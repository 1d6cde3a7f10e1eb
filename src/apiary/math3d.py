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
    - At the batch sizes the env steps (up to tens of rows), numpy's
      per-call overhead costs more than the arithmetic, so the array
      kernels form all their products in one call (`v * v`, or a `take`
      gather of each operand and one multiply) and then add or subtract
      slices of the result in the grouping their comments spell out. Each
      product and each sum is the same IEEE operation as in the
      written-out formula. Branches taken only for rare rows (the
      small-angle series) are skipped when no row needs them.
    - Each `*_f` function is the single-state twin of the array function
      of the same name, on lists of Python floats, bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=np.float64)


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def vec_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, fixed component order.

    Written as an explicit component sum so batched and scalar calls
    produce bit-identical results.
    """
    v = np.asarray(v, dtype=np.float64)
    sq = v * v
    # (v0*v0 + v1*v1) + v2*v2
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


# (a x b)_k = a_{k+1} b_{k+2} - a_{k+2} b_{k+1} (indices mod 3): gathering
# a at _CROSS_A and b at _CROSS_B lines up the six products, the three
# positive ones first
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def vec_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = a.take(_CROSS_A, axis=-1) * b.take(_CROSS_B, axis=-1)
    return np.subtract(p[..., :3], p[..., 3:])


def _require_finite(x: np.ndarray, what: str) -> None:
    # method-call form: the np.all wrapper costs real time on the hot path
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite {what}")


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    _require_finite(q, "quaternion")
    sq = q * q
    # ((q0*q0 + q1*q1) + q2*q2) + q3*q3
    n = np.sqrt(((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3])
    if (n == 0.0).any():
        raise ValueError("cannot normalize zero quaternion")
    return q / n[..., None]


def quat_canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0, removing the double-cover ambiguity."""
    q = np.asarray(q, dtype=np.float64)
    sign = np.where(q[..., 0] < 0.0, -1.0, 1.0)
    return q * sign[..., None]


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    out = np.negative(q)
    out[..., 0] = q[..., 0]
    return out


# gathers lining up the 16 products of a Hamilton product a ⊗ b:
#   w1w2 x1x2 y1y2 z1z2 | w1x2 w1y2 w1z2 | x1w2 y1w2 z1w2 | y1z2 z1x2 x1y2 | z1y2 x1z2 y1x2
_MUL_A = np.array([0, 1, 2, 3, 0, 0, 0, 1, 2, 3, 2, 3, 1, 3, 1, 2])
_MUL_B = np.array([0, 1, 2, 3, 1, 2, 3, 0, 0, 0, 3, 1, 2, 2, 3, 1])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require_finite(a, "quaternion")
    _require_finite(b, "quaternion")
    p = a.take(_MUL_A, axis=-1) * b.take(_MUL_B, axis=-1)
    out = np.empty(p.shape[:-1] + (4,), dtype=np.float64)
    # terms are paired so that a ⊗ conj(a) cancels exactly in floats,
    # making the relative rotation of identical attitudes a true zero:
    # c0 = w1w2 - ((x1x2 + y1y2) + z1z2)
    # c1 = (w1x2 + x1w2) + (y1z2 - z1y2), c2 and c3 likewise
    np.subtract(p[..., 0], (p[..., 1] + p[..., 2]) + p[..., 3], out=out[..., 0])
    np.add(p[..., 4:7] + p[..., 7:10], p[..., 10:13] - p[..., 13:16], out=out[..., 1:])
    return quat_normalize(out)


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis*angle) to unit quaternion.

    Safe at zero angle (returns identity); the small-angle branch uses the
    series sin(a/2)/a = 1/2 - a^2/48 + ...
    """
    rv = np.asarray(rv, dtype=np.float64)
    angle = vec_norm(rv)
    half = 0.5 * angle
    small = angle < 1e-8
    if small.any():
        # np.where evaluates both branches: keep the denominator nonzero.
        safe = np.where(small, 1.0, angle)
        k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / safe)
    else:
        k = np.sin(half) / angle
    out = np.empty(np.shape(k) + (4,), dtype=np.float64)
    np.cos(half, out=out[..., 0])
    np.multiply(rv, k[..., None], out=out[..., 1:])
    return quat_normalize(out)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Log map: unit quaternion to rotation vector with angle in [0, pi]."""
    q = quat_canonicalize(np.asarray(q, dtype=np.float64))
    w = q[..., 0].clip(-1.0, 1.0)
    vn = vec_norm(q[..., 1:4])
    angle = 2.0 * np.arctan2(vn, w)
    small = vn < 1e-12
    if small.any():
        safe = np.where(small, 1.0, vn)
        # angle/vn -> 2/w as vn -> 0; with w >= 0 the limit is 2.
        k = np.where(small, 2.0, angle / safe)
    else:
        k = angle / vn
    return q[..., 1:4] * k[..., None]


def quat_error(goal: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Rotation vector of goal ⊗ conj(current), angle in [0, pi].

    World-frame orientation error: rotating `current` by the returned
    vector (applied on the left) reaches `goal`.
    """
    return quat_to_rotvec(quat_mul(goal, quat_conj(current)))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q (body->world for an attitude quat).

    v + w*t + qv x t with t = 2*(qv x v); the grouping (v + w*t) + cross
    is fixed so results stay bit-stable.
    """
    q = np.asarray(q, dtype=np.float64)
    return _rotate(q[..., 0], q[..., 1:4], np.asarray(v, dtype=np.float64))


def quat_rotate_inv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by conj(q) (world->body for an attitude quat).

    Same expansion as quat_rotate with the vector part negated in place of
    building the conjugate quaternion.
    """
    q = np.asarray(q, dtype=np.float64)
    return _rotate(q[..., 0], np.negative(q[..., 1:4]), np.asarray(v, dtype=np.float64))


def _rotate(qw: np.ndarray, qv: np.ndarray, v: np.ndarray) -> np.ndarray:
    t = vec_cross(qv, v)
    t *= 2.0
    out = qw[..., None] * t
    out += v
    out += vec_cross(qv, t)
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
