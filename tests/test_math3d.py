"""Quaternion/vector algebra checks against independent oracles.

Rotation operations are validated against their 3x3 matrix equivalents
and against closed-form single-axis cases; batched calls are required to
be bit-identical to scalar loops.
"""

import numpy as np
import pytest

from apiary import math3d as m3


def quat_to_matrix(q):
    """Oracle: 3x3 rotation matrix (body->world) of unit quaternions (..., 4)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def random_unit_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def test_vec_norm_matches_numpy():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((64, 3))
    np.testing.assert_allclose(m3.vec_norm(v), np.linalg.norm(v, axis=1), rtol=1e-14)
    assert m3.vec_norm(np.zeros(3)) == 0.0


def test_vec_cross_matches_numpy():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((32, 3))
    b = rng.standard_normal((32, 3))
    np.testing.assert_array_equal(m3.vec_cross(a, b), np.cross(a, b))


def test_quat_normalize_and_errors():
    q = np.array([2.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(m3.quat_normalize(q), m3.quat_identity())
    with pytest.raises(ValueError):
        m3.quat_normalize(np.zeros(4))
    with pytest.raises(ValueError):
        m3.quat_normalize(np.array([np.nan, 0, 0, 0]))


def test_quat_canonicalize_flips_negative_w():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    out = m3.quat_canonicalize(q)
    assert out[0] > 0
    np.testing.assert_array_equal(out, -q)
    # positive w untouched
    np.testing.assert_array_equal(m3.quat_canonicalize(-q), -q)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_unit_quats(rng, 1)[0]
        b = random_unit_quats(rng, 1)[0]
        rab = quat_to_matrix(m3.quat_mul(a, b))
        np.testing.assert_allclose(
            rab, quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-13
        )


def test_quat_rotate_matches_matrix():
    rng = np.random.default_rng(12)
    q = random_unit_quats(rng, 40)
    v = rng.standard_normal((40, 3))
    expected = np.einsum("nij,nj->ni", quat_to_matrix(q), v)
    np.testing.assert_allclose(m3.quat_rotate(q, v), expected, atol=1e-13)
    # rotation preserves length
    np.testing.assert_allclose(
        m3.vec_norm(m3.quat_rotate(q, v)), m3.vec_norm(v), rtol=1e-13
    )


def test_quat_rotate_inv_inverts_rotate():
    rng = np.random.default_rng(13)
    q = random_unit_quats(rng, 40)
    v = rng.standard_normal((40, 3))
    np.testing.assert_allclose(m3.quat_rotate_inv(q, m3.quat_rotate(q, v)), v, atol=1e-13)


def test_rotvec_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-7, np.pi - 1e-9)
        rv = axis * angle
        back = m3.quat_to_rotvec(m3.quat_from_rotvec(rv))
        np.testing.assert_allclose(back, rv, rtol=1e-9, atol=1e-12)


def test_rotvec_angle_canonicalized_to_pi():
    # a 270 degree rotation about z comes back as -90 degrees
    rv = np.array([0.0, 0.0, 1.5 * np.pi])
    back = m3.quat_to_rotvec(m3.quat_from_rotvec(rv))
    np.testing.assert_allclose(back, [0.0, 0.0, -0.5 * np.pi], atol=1e-12)
    assert m3.vec_norm(back) <= np.pi + 1e-12


def test_rotvec_small_angle_branch_continuous():
    # values either side of the 1e-8 series switch agree with each other
    axis = np.array([1.0, 0.0, 0.0])
    for angle in (0.999e-8, 1.001e-8):
        q = m3.quat_from_rotvec(axis * angle)
        np.testing.assert_allclose(m3.quat_to_rotvec(q), axis * angle, rtol=1e-10)
    np.testing.assert_array_equal(m3.quat_from_rotvec(np.zeros(3)), m3.quat_identity())
    np.testing.assert_array_equal(m3.quat_to_rotvec(m3.quat_identity()), np.zeros(3))


def test_quat_error_left_multiply_reaches_goal():
    rng = np.random.default_rng(16)
    for _ in range(100):
        goal = random_unit_quats(rng, 1)[0]
        cur = random_unit_quats(rng, 1)[0]
        err = m3.quat_error(goal, cur)
        reached = m3.quat_mul(m3.quat_from_rotvec(err), cur)
        # same rotation up to quaternion sign
        assert (
            np.allclose(reached, goal, atol=1e-9)
            or np.allclose(reached, -goal, atol=1e-9)
        )
        assert m3.vec_norm(err) <= np.pi + 1e-12


def test_quat_error_zero_at_same_attitude():
    rng = np.random.default_rng(17)
    q = random_unit_quats(rng, 10)
    np.testing.assert_allclose(m3.quat_error(q, q), np.zeros((10, 3)), atol=1e-12)
    # double cover: q and -q are the same attitude
    np.testing.assert_allclose(m3.quat_error(q, -q), np.zeros((10, 3)), atol=1e-12)


def test_quat_error_known_single_axis():
    goal = m3.quat_from_rotvec(np.array([0.0, 0.0, 0.4]))
    err = m3.quat_error(goal, m3.quat_identity())
    np.testing.assert_allclose(err, [0.0, 0.0, 0.4], atol=1e-12)


def test_batched_calls_bit_identical_to_scalar():
    rng = np.random.default_rng(18)
    q = random_unit_quats(rng, 25)
    p = random_unit_quats(rng, 25)
    v = rng.standard_normal((25, 3))
    rv = rng.uniform(-2.0, 2.0, (25, 3))

    batched = {
        "mul": m3.quat_mul(q, p),
        "rot": m3.quat_rotate(q, v),
        "inv": m3.quat_rotate_inv(q, v),
        "to_rv": m3.quat_to_rotvec(q),
        "from_rv": m3.quat_from_rotvec(rv),
        "err": m3.quat_error(q, p),
        "norm": m3.vec_norm(v),
    }
    for i in range(25):
        np.testing.assert_array_equal(batched["mul"][i], m3.quat_mul(q[i], p[i]))
        np.testing.assert_array_equal(batched["rot"][i], m3.quat_rotate(q[i], v[i]))
        np.testing.assert_array_equal(batched["inv"][i], m3.quat_rotate_inv(q[i], v[i]))
        np.testing.assert_array_equal(batched["to_rv"][i], m3.quat_to_rotvec(q[i]))
        np.testing.assert_array_equal(batched["from_rv"][i], m3.quat_from_rotvec(rv[i]))
        np.testing.assert_array_equal(batched["err"][i], m3.quat_error(q[i], p[i]))
        assert batched["norm"][i] == m3.vec_norm(v[i])
