"""Quaternion and 3-vector algebra shared by every other module.

Conventions:
    - Quaternions are scalar-first numpy arrays [w, x, y, z], Hamilton product.
    - All functions broadcast over leading axes: a quaternion argument has
      shape (..., 4), a vector argument (..., 3). Single states use plain
      (4,) / (3,) arrays and go through the same operations, so a batched
      call is bit-identical to looping over rows.
    - Orientation error is a rotation vector (axis * angle, rad) with the
      angle canonicalized to [0, pi]. It is logged per body axis; there is
      no standard axis convention for plotting orientation error per axis,
      so the rotation-vector components are the documented choice here.
    - All math is float64.
    - At the batch sizes the env steps (1 to tens of rows), numpy's
      per-call overhead costs more than the arithmetic, so the array
      kernels are written to make few numpy calls, each over all rows:
        - They work component-major, on the transpose of their (..., k)
          arguments (a view), where component j of every row is the one
          row x.T[j]. An operation on a component or a block of them then
          runs numpy's inner loop once over all rows; on the (n, k)
          columns it would run once per row. Results come back as
          transposes too, and `env.BatchEnv` keeps its arrays in that
          layout, so the tick never copies between layouts.
        - Products are formed in one call (`v * v`, or a `take` gather of
          each operand along the component axis and one multiply) and then
          added or subtracted in blocks, in the grouping the comments spell
          out. Each product and each sum is the same IEEE operation as in
          the written-out formula.
        - A check over many values is `np.count_nonzero`, not `.any()` or
          `.all()`, which cost several times more on small arrays; scalar
          operands are 0-d arrays, numpy's cheapest scalar form.
        - A check that another implies, with the same message, is folded
          into it. The normalize checks the sum of squares, which a
          non-finite quaternion makes inf or nan and a zero one makes 0,
          and looks at the quaternion itself only when that fails. The
          Hamilton product has no input checks: a non-finite input makes
          every component of the product non-finite, so the normalize of
          the product raises the same error, and the product runs with
          numpy's overflow and invalid-value warnings silenced.
        - The orientation error is built from the goal's half of its
          products (`quat_error_terms`, the conjugate's signs folded in).
          A caller that measures attitudes against a fixed goal keeps
          those terms and gathers only the attitude
          (`quat_error_from_terms`); `quat_error` builds them per call.
      Branches taken only for rare rows (the small-angle series, the
      canonicalizing flip) are skipped when no row needs them.
"""

from __future__ import annotations

import math

import numpy as np


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=np.float64)


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


# (a x b)_k = a_{k+1} b_{k+2} - a_{k+2} b_{k+1} (indices mod 3): gathering
# a at _CROSS_A and b at _CROSS_B lines up the six products, the three
# positive ones first; _CROSS_QV gathers a quaternion's vector part at
# _CROSS_A
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])
_CROSS_QV = _CROSS_A + 1

# gathers lining up the 16 products of a Hamilton product a ⊗ b in four
# blocks of four, so that the sums run over whole blocks:
#   x1x2 w1x2 w1y2 w1z2 | y1y2 x1w2 y1w2 z1w2 | z1z2 y1z2 z1x2 x1y2 | w1w2 z1y2 x1z2 y1x2
_MUL_A = np.array([1, 0, 0, 0, 2, 1, 2, 3, 3, 2, 3, 1, 0, 3, 1, 2])
_MUL_B = np.array([1, 1, 2, 3, 2, 0, 0, 0, 3, 3, 1, 2, 0, 2, 3, 1])

# the signs conj(b) puts on the 16 products of a ⊗ conj(b)
_CONJ_TERMS = np.array([1.0, -1.0, -1.0, -1.0])[_MUL_B]
# scalars as 0-d arrays: array * 0-d array is numpy's cheapest multiply by
# a scalar
_HALF = np.array(0.5)
_TWO = np.array(2.0)
_ONE = np.array(1.0)
_ZERO = np.array(0.0)
# below these, quat_from_rotvec and quat_to_rotvec take their series or
# limit branch
_SMALL_ANGLE = np.array(1e-8)
_SMALL_VN = np.array(1e-12)
_F64 = np.dtype(np.float64)


def _f64(x) -> np.ndarray:
    """x as a float64 array: x itself when it is one already."""
    if x.__class__ is not np.ndarray or x.dtype is not _F64:
        return np.asarray(x, dtype=np.float64)
    return x


def _cm(x) -> np.ndarray:
    """x as a float64 array, component-major: its transpose, a view."""
    return _f64(x).T


def _cm2(a, b) -> tuple[np.ndarray, np.ndarray]:
    """_cm of two operands, the one of lower rank first given leading
    axes of length 1 so that the transposes broadcast as the operands do."""
    a, b = _f64(a), _f64(b)
    if a.ndim < b.ndim:
        a = a.reshape((1,) * (b.ndim - a.ndim) + a.shape)
    elif b.ndim < a.ndim:
        b = b.reshape((1,) * (a.ndim - b.ndim) + b.shape)
    return a.T, b.T


def vec_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, fixed component order.

    Written as an explicit component sum so batched and scalar calls
    produce bit-identical results.
    """
    return _norm3(_cm(v)).T


def _norm3(vt: np.ndarray) -> np.ndarray:
    sq = vt * vt
    # (v0*v0 + v1*v1) + v2*v2
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def vec_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    at, bt = _cm2(a, b)
    return _cross(at.take(_CROSS_A, axis=0), bt.take(_CROSS_B, axis=0)).T


def _cross(agt: np.ndarray, bgt: np.ndarray) -> np.ndarray:
    """a x b, component-major, from a gathered at _CROSS_A and b at _CROSS_B."""
    p = agt * bgt
    return np.subtract(p[:3], p[3:])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """q / |q|. Raises ValueError for a non-finite or a zero quaternion."""
    return _normalize(_cm(q)).T


def _normalize(qt: np.ndarray) -> np.ndarray:
    sq = qt * qt
    # ((q0*q0 + q1*q1) + q2*q2) + q3*q3
    s = ((sq[0] + sq[1]) + sq[2]) + sq[3]
    # both checks read the sum of squares: a non-finite q makes it inf or
    # nan (quietly: squares and sums of inf and nan raise no flag), and a
    # zero q, or one whose squares underflow, makes it 0. Only when the sum
    # is not finite and positive is q itself checked, in the twin's order.
    if np.count_nonzero(np.isfinite(s)) != s.size or np.count_nonzero(s) != s.size:
        if np.count_nonzero(np.isfinite(qt)) != qt.size:
            raise ValueError("non-finite quaternion")
        if np.count_nonzero(s == 0.0):
            raise ValueError("cannot normalize zero quaternion")
        # left: a finite q whose squares overflow; its norm is inf
    return qt / np.sqrt(s)


def quat_canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0, removing the double-cover ambiguity. Returns
    a view of q when no row has w < 0."""
    return _canonical(_cm(q)).T


def _canonical(qt: np.ndarray) -> np.ndarray:
    flip = qt[0] < _ZERO
    if np.count_nonzero(flip):
        return qt * np.where(flip, -1.0, 1.0)
    return qt


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized.

    A non-finite input raises ValueError("non-finite quaternion") at the
    normalize check, without a numpy warning on the way (inf * 0, inf - inf).
    """
    at, bt = _cm2(a, b)
    return _mul(at.take(_MUL_A, axis=0), bt.take(_MUL_B, axis=0)).T


def _mul(agt: np.ndarray, bgt: np.ndarray) -> np.ndarray:
    """a ⊗ b, renormalized, component-major, from a gathered at _MUL_A and
    b at _MUL_B."""
    # a non-finite a or b puts a non-finite term in every component (each
    # component multiplies every component of a, each by a different
    # component of b; inf * 0 is nan), so the normalize check raises
    with np.errstate(over="ignore", invalid="ignore"):
        p = agt * bgt
        # terms are paired so that a ⊗ conj(a) cancels exactly in floats,
        # making the relative rotation of identical attitudes a true zero:
        # c1 = (w1x2 + x1w2) + (y1z2 - z1y2), c2 and c3 likewise, and
        # c0 = w1w2 - ((x1x2 + y1y2) + z1z2) written over row 0, which the
        # block sums fill with (x1x2 + y1y2) + (z1z2 - w1w2)
        pair = p[0:4] + p[4:8]
        out = pair + (p[8:12] - p[12:16])
        np.subtract(p[12], pair[0] + p[8], out=out[0, ...])
        return _normalize(out)


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis*angle) to unit quaternion.

    Safe at zero angle (returns identity); the small-angle branch uses the
    series sin(a/2)/a = 1/2 - a^2/48 + ...
    """
    rvt = _cm(rv)
    angle = _norm3(rvt)
    half = angle * _HALF
    small = angle < _SMALL_ANGLE
    if np.count_nonzero(small):
        # np.where evaluates both branches: keep the denominator nonzero.
        safe = np.where(small, 1.0, angle)
        k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / safe)
    else:
        k = np.sin(half) / angle
    out = np.empty((4,) + np.shape(k), dtype=np.float64)
    np.cos(half, out=out[0, ...])
    np.multiply(rvt, k, out=out[1:])
    return quat_normalize(out.T)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Log map: unit quaternion to rotation vector with angle in [0, pi]."""
    return _rotvec(quat_canonicalize(q).T).T


def _rotvec(qt: np.ndarray) -> np.ndarray:
    """The log map of a component-major unit quaternion with w >= -0.0."""
    # the clip of w to [-1, 1] is min(w, 1)
    w = np.minimum(qt[0], _ONE)
    qvt = qt[1:]
    vn = _norm3(qvt)
    angle = np.arctan2(vn, w) * _TWO
    small = vn < _SMALL_VN
    if np.count_nonzero(small):
        safe = np.where(small, 1.0, vn)
        # angle/vn -> 2/w as vn -> 0; with w >= 0 the limit is 2.
        k = np.where(small, 2.0, angle / safe)
    else:
        k = angle / vn
    return qvt * k


def quat_error(goal: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Rotation vector of goal ⊗ conj(current), angle in [0, pi].

    World-frame orientation error: rotating `current` by the returned
    vector (applied on the left) reaches `goal`.
    """
    return quat_error_from_terms(quat_error_terms(goal), current)


def quat_error_terms(goal: np.ndarray) -> np.ndarray:
    """The goal's half of quat_error's products, (..., 16): goal gathered
    at _MUL_A with conj's signs folded in. A caller that measures many
    attitudes against one goal computes these once, at the goal."""
    gt = _cm(goal).take(_MUL_A, axis=0)
    return (gt * _CONJ_TERMS.reshape((16,) + (1,) * (gt.ndim - 1))).T


def quat_error_from_terms(goal_terms: np.ndarray, current: np.ndarray) -> np.ndarray:
    """quat_error(goal, current) from `quat_error_terms(goal)`. The terms
    equal the products of goal ⊗ conj(current) bit for bit, since a sign
    flip is exact: (-g) * c == g * (-c)."""
    tt, ct = _cm2(goal_terms, current)
    return quat_to_rotvec(_mul(tt, ct.take(_MUL_B, axis=0)).T)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q (body->world for an attitude quat).

    v + w*t + qv x t with t = 2*(qv x v); the grouping (v + w*t) + cross
    is fixed so results stay bit-stable.
    """
    qt, vt = _cm2(q, v)
    return _rotate(qt.take(_CROSS_QV, axis=0), qt[0], vt).T


def quat_rotate_inv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by conj(q) (world->body for an attitude quat).

    Same expansion as quat_rotate with the vector part negated in place of
    building the conjugate quaternion.
    """
    qt, vt = _cm2(q, v)
    return _rotate(np.negative(qt.take(_CROSS_QV, axis=0)), qt[0], vt).T


def _rotate(qvgt: np.ndarray, qwt: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """The rotation of v, component-major, from the quaternion's vector
    part gathered at _CROSS_A (negated for the inverse) and its w."""
    t = _cross(qvgt, vt.take(_CROSS_B, axis=0))
    t += t  # == 2.0 * t, exactly
    out = qwt * t
    out += vt
    out += _cross(qvgt, t.take(_CROSS_B, axis=0))
    return out


# Single-state twins in Python floats. Each `*_f` function repeats the
# array function of the same name on one quaternion or vector held as a
# list of floats, with the same operations in the same grouping, so the
# result is bit-identical (IEEE-754 +, -, *, / and sqrt are correctly
# rounded either way; sin, cos and arctan2 go through the same numpy
# ufuncs). A single state through the array functions spends nearly all
# its time in numpy's per-call overhead on 3- and 4-element arrays.


def vec_norm_f(v: list[float]) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _require_finite_f(q: list[float]) -> None:
    if not all(map(math.isfinite, q)):
        raise ValueError("non-finite quaternion")


def quat_normalize_f(q: list[float]) -> list[float]:
    _require_finite_f(q)
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return [q[0] / n, q[1] / n, q[2] / n, q[3] / n]


def quat_mul_f(a: list[float], b: list[float]) -> list[float]:
    _require_finite_f(a)
    _require_finite_f(b)
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return quat_normalize_f(
        [
            w1 * w2 - ((x1 * x2 + y1 * y2) + z1 * z2),
            (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
            (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
            (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
        ]
    )


def quat_from_rotvec_f(rv: list[float]) -> list[float]:
    angle = math.sqrt(rv[0] * rv[0] + rv[1] * rv[1] + rv[2] * rv[2])
    half = 0.5 * angle
    if angle < 1e-8:
        k = 0.5 - angle * angle / 48.0
    else:
        k = float(np.sin(half)) / angle
    return quat_normalize_f([float(np.cos(half)), rv[0] * k, rv[1] * k, rv[2] * k])


def quat_error_f(goal: list[float], current: list[float]) -> list[float]:
    """quat_error: log map of goal ⊗ conj(current), canonicalized to w >= 0."""
    w, x, y, z = quat_mul_f(goal, [current[0], -current[1], -current[2], -current[3]])
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    vn = math.sqrt(x * x + y * y + z * z)
    if vn < 1e-12:
        k = 2.0
    else:
        k = 2.0 * float(np.arctan2(vn, min(max(w, -1.0), 1.0))) / vn
    return [x * k, y * k, z * k]


def quat_rotate_f(q: list[float], v: list[float]) -> list[float]:
    qw, qx, qy, qz = q
    vx, vy, vz = v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return [
        (vx + qw * tx) + (qy * tz - qz * ty),
        (vy + qw * ty) + (qz * tx - qx * tz),
        (vz + qw * tz) + (qx * ty - qy * tx),
    ]


def quat_rotate_inv_f(q: list[float], v: list[float]) -> list[float]:
    qw, qx, qy, qz = q[0], -q[1], -q[2], -q[3]
    vx, vy, vz = v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return [
        (vx + qw * tx) + (qy * tz - qz * ty),
        (vy + qw * ty) + (qz * tx - qx * tz),
        (vz + qw * tz) + (qx * ty - qy * tx),
    ]
