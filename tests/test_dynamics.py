"""Propagation checks against closed-form rigid-body solutions.

Covers Newton/Euler limits with constant wrenches, conservation under
zero wrench, the planar DOF mask, parameter validation and the batched
array path. Single states step through `step_f`, the kernel the flight
loop runs, as four lists of Python floats.
"""

import numpy as np
import pytest

from apiary import math3d as m3
from apiary.dynamics import (
    FULL_6DOF,
    GRANITE_3DOF,
    BodyParams,
    SimulationDivergedError,
    step_arrays,
    step_f,
)
from float_state import body_args, momentum, state

ZERO = [0.0, 0.0, 0.0]


def kinetic_energy(s, params):
    """Probe: translational plus rotational kinetic energy of (pos, att, lv, av)."""
    lv, av = np.array(s[2]), np.array(s[3])
    v2 = float(np.dot(lv, lv))
    rot = float(np.dot(av, params.inertia_diag * av))
    return 0.5 * params.mass * v2 + 0.5 * rot


def test_constant_body_force_matches_newton():
    params = BodyParams()
    dt = 1e-3
    n = 1000
    f = np.array([0.2, -0.1, 0.05])
    s, body = state(), body_args(params)
    for _ in range(n):
        s = step_f(*s, f.tolist(), ZERO, *body, dt)
    pos, att, lv, _ = s
    t = n * dt
    # semi-implicit velocity is exact for constant acceleration
    np.testing.assert_allclose(lv, f / params.mass * t, rtol=1e-13)
    np.testing.assert_allclose(pos, 0.5 * f / params.mass * t * t, rtol=2e-3)
    assert att == [1.0, 0.0, 0.0, 0.0]


def test_constant_axis_torque_matches_euler():
    params = BodyParams(inertia_diag=m3.vec3(0.15, 0.15, 0.16))
    dt = 1e-3
    n = 1000
    tau = np.array([0.0, 0.0, 0.02])
    s, body = state(), body_args(params)
    for _ in range(n):
        s = step_f(*s, ZERO, tau.tolist(), *body, dt)
    _, att, _, av = s
    t = n * dt
    np.testing.assert_allclose(av, tau / params.inertia_diag * t, rtol=1e-12)
    angle = m3.quat_to_rotvec(np.array(att))
    np.testing.assert_allclose(
        angle[2], 0.5 * tau[2] / params.inertia_diag[2] * t * t, rtol=2e-3
    )
    assert abs(angle[0]) < 1e-15 and abs(angle[1]) < 1e-15


def test_zero_wrench_conserves_momentum():
    rng = np.random.default_rng(21)
    params = BodyParams(inertia_diag=m3.vec3(0.15, 0.11, 0.19))
    s = state(lv=rng.uniform(-0.3, 0.3, 3), av=rng.uniform(-1.0, 1.0, 3))
    p0, l0 = momentum(s, params)
    body = body_args(params)
    for _ in range(10_000):
        s = step_f(*s, ZERO, ZERO, *body, 0.016)
    p1, l1 = momentum(s, params)
    # force-free linear velocity never changes at all
    np.testing.assert_array_equal(p1, p0)
    np.testing.assert_allclose(l1, l0, rtol=1e-9, atol=1e-12)


def test_principal_axis_spin_is_steady():
    # spin about a principal axis: rate and energy hold to round-off
    params = BodyParams(inertia_diag=m3.vec3(0.15, 0.11, 0.19))
    s = state(av=[0.0, 0.0, 0.8])
    e0 = kinetic_energy(s, params)
    body = body_args(params)
    for _ in range(10_000):
        s = step_f(*s, ZERO, ZERO, *body, 0.016)
    np.testing.assert_allclose(s[3], [0.0, 0.0, 0.8], atol=1e-12)
    assert abs(kinetic_energy(s, params) - e0) <= 1e-12 * e0


def test_tumbling_attitude_follows_momentum():
    # body rate vector must wander (asymmetric inertia, off-axis spin)
    # while the world momentum direction stays put
    params = BodyParams(inertia_diag=m3.vec3(0.15, 0.11, 0.19))
    s = state(av=[0.7, 0.5, 0.3])
    _, l0 = momentum(s, params)
    body = body_args(params)
    for _ in range(2000):
        s = step_f(*s, ZERO, ZERO, *body, 0.016)
    _, l1 = momentum(s, params)
    np.testing.assert_allclose(l1, l0, rtol=1e-10)
    assert np.linalg.norm(np.array(s[3]) - [0.7, 0.5, 0.3]) > 1e-3


def test_com_offset_converts_force_to_torque():
    # +x force applied ahead of the COM (offset +y) torques about -z
    params = BodyParams(com_offset=m3.vec3(0.0, 0.1, 0.0))
    _, _, _, av = step_f(*state(), [1.0, 0.0, 0.0], ZERO, *body_args(params), 0.01)
    expected_tau = -np.cross(params.com_offset, [1.0, 0.0, 0.0])
    expected_w = expected_tau * 0.01 / params.inertia_diag
    np.testing.assert_allclose(av, expected_w, rtol=1e-12)


def test_granite_mask_pins_out_of_plane_axes():
    s, body = state(), body_args(BodyParams(), GRANITE_3DOF)
    rng = np.random.default_rng(22)
    for _ in range(500):
        force, torque = rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.1, 0.1, 3)
        s = step_f(*s, force.tolist(), torque.tolist(), *body, 0.016)
        pos, att, lv, av = s
        assert pos[2] == 0.0
        assert lv[2] == 0.0
        assert av[0] == 0.0 and av[1] == 0.0
        assert att[1] == 0.0 and att[2] == 0.0
    # in-plane axes actually moved
    assert np.linalg.norm(pos[:2]) > 0.0
    assert att[3] != 0.0


def test_step_arrays_batched_bit_identical():
    rng = np.random.default_rng(23)
    n = 17
    pos = rng.standard_normal((n, 3))
    att = rng.standard_normal((n, 4))
    att /= np.linalg.norm(att, axis=1, keepdims=True)
    lv = rng.standard_normal((n, 3)) * 0.2
    av = rng.standard_normal((n, 3)) * 0.5
    force = rng.uniform(-0.4, 0.4, (n, 3))
    torque = rng.uniform(-0.1, 0.1, (n, 3))
    mass = rng.uniform(7.0, 12.0, n)
    inertia = rng.uniform(0.1, 0.2, (n, 3))
    com = np.zeros((n, 3))
    tm = FULL_6DOF.translation_floats()
    rm = FULL_6DOF.rotation_floats()

    bp, ba, bv, bw = step_arrays(pos, att, lv, av, force, torque, mass, inertia, com, tm, rm, 0.016)
    for i in range(n):
        sp, sa, sv, sw = step_arrays(
            pos[i], att[i], lv[i], av[i], force[i], torque[i],
            np.float64(mass[i]), inertia[i], com[i], tm, rm, 0.016,
        )
        np.testing.assert_array_equal(bp[i], sp)
        np.testing.assert_array_equal(ba[i], sa)
        np.testing.assert_array_equal(bv[i], sv)
        np.testing.assert_array_equal(bw[i], sw)


def test_step_matches_step_arrays_bitwise():
    # `step_f` runs its own float path; it must agree bit for bit with the
    # array path the batched environment uses, over long rollouts, both
    # masks, a COM offset and the small-angle branch of the exponential map
    rng = np.random.default_rng(31)
    cases = [
        (BodyParams(), FULL_6DOF, 0.3),
        (BodyParams(8.0, m3.vec3(0.12, 0.15, 0.2), m3.vec3(0.01, -0.02, 0.005)), FULL_6DOF, 0.3),
        (BodyParams(), GRANITE_3DOF, 0.3),
        (BodyParams(), FULL_6DOF, 1e-12),
    ]
    for params, mask, scale in cases:
        att = rng.standard_normal(4)
        s = state(
            rng.standard_normal(3), att / np.linalg.norm(att),
            rng.standard_normal(3) * 0.2, rng.standard_normal(3) * scale,
        )
        body = body_args(params, mask)
        for _ in range(200):
            force, torque = rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.1, 0.1, 3) * scale
            expect = step_arrays(
                *map(np.array, s), force, torque, np.float64(params.mass), params.inertia_diag,
                params.com_offset, mask.translation_floats(), mask.rotation_floats(), 0.016,
            )
            s = step_f(*s, force.tolist(), torque.tolist(), *body, 0.016)
            for g, e in zip(s, expect):
                assert np.array(g).tobytes() == e.tobytes()


def test_step_rejects_non_finite_attitude():
    s = state(att=[np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite quaternion"):
        step_f(*s, ZERO, ZERO, *body_args(BodyParams()), 0.016)


@pytest.mark.parametrize("rate", [np.inf, np.nan, 1e308])
def test_non_finite_angular_rate_is_divergence(rate):
    # both kernels raise SimulationDivergedError, not the quaternion check's
    # ValueError; at 1e308 the rate is finite but the rotation vector's
    # norm overflows
    s, body = state(av=[rate, 0.0, 0.0]), body_args(BodyParams())
    rows = [np.array([v, v]) for v in (*s, ZERO, ZERO)]
    rows[3][0] = 0.0  # one finite row and one diverging row
    with np.errstate(all="ignore"):
        with pytest.raises(SimulationDivergedError, match="angular rate"):
            step_f(*s, ZERO, ZERO, *body, 0.016)
        with pytest.raises(SimulationDivergedError, match="angular rate"):
            step_arrays(*rows, np.full(2, 9.5), *map(np.array, body[1:]), 0.016)


def test_step_validation():
    # an unclamped infinite wrench stops the step instead of propagating
    with pytest.raises(ValueError):
        step_f(*state(), [np.inf, 0.0, 0.0], ZERO, *body_args(BodyParams()), 0.016)


def test_diverged_state_raises():
    s, body = state(), body_args(BodyParams(mass=1e-308))
    with pytest.raises(SimulationDivergedError):
        for _ in range(2000):
            s = step_f(*s, [0.4, 0.0, 0.0], ZERO, *body, 0.016)


def test_body_params_validation():
    with pytest.raises(ValueError):
        BodyParams(mass=0.0)
    with pytest.raises(ValueError):
        BodyParams(inertia_diag=m3.vec3(0.1, -0.1, 0.1))
    with pytest.raises(ValueError):
        BodyParams(inertia_diag=m3.vec3(1.0, 0.1, 0.1))  # triangle inequality
