import numpy as np
import pytest

from apiary.actuation import ActuationLimits, Wrench, apply_limits


def test_apply_limits_magnitude_clamp():
    lim = ActuationLimits(f_max=0.4, tau_max=0.1)
    cmd = Wrench(np.array([1.0, -0.3, 0.0]), np.array([0.5, 0.05, -0.5]))
    out = apply_limits(None, cmd, lim)
    np.testing.assert_allclose(out.force, [0.4, -0.3, 0.0])
    np.testing.assert_allclose(out.torque, [0.1, 0.05, -0.1])


def test_apply_limits_slew():
    lim = ActuationLimits(f_max=1.0, tau_max=1.0, force_rate=2.0, torque_rate=1.0)
    prev = Wrench(np.zeros(3), np.zeros(3))
    cmd = Wrench(np.array([1.0, -1.0, 0.01]), np.array([1.0, 0.0, -1.0]))
    out = apply_limits(prev, cmd, lim, dt=0.1)
    # at most rate*dt change per tick from prev
    np.testing.assert_allclose(out.force, [0.2, -0.2, 0.01])
    np.testing.assert_allclose(out.torque, [0.1, 0.0, -0.1])
    # rate 0 means no slew limit
    lim2 = ActuationLimits(f_max=1.0, tau_max=1.0)
    out2 = apply_limits(prev, cmd, lim2, dt=0.1)
    np.testing.assert_allclose(out2.force, cmd.force)


def test_apply_limits_nonfinite_command():
    lim = ActuationLimits(f_max=0.4, tau_max=0.1)
    cmd = Wrench(np.array([np.nan, np.inf, -np.inf]), np.array([np.nan, 0.0, np.inf]))
    out = apply_limits(None, cmd, lim)
    np.testing.assert_allclose(out.force, [0.0, 0.4, -0.4])
    np.testing.assert_allclose(out.torque, [0.0, 0.0, 0.1])
    assert out.is_finite()


def test_validation():
    with pytest.raises(ValueError):
        ActuationLimits(f_max=0.0)
    with pytest.raises(ValueError):
        ActuationLimits(force_rate=-1.0)
    with pytest.raises(ValueError):
        apply_limits(None, Wrench(), ActuationLimits(), dt=0.0)
