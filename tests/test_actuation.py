"""Actuation limits applied per channel through `clamp_axes`, as the flight
loop applies them to force and torque each tick."""

import numpy as np
import pytest

from apiary.actuation import ActuationLimits, clamp_axes

DT = 0.016


def test_apply_limits_magnitude_clamp():
    lim = ActuationLimits(f_max=0.4, tau_max=0.1)
    force = clamp_axes([1.0, -0.3, 0.0], None, lim.f_max, lim.force_rate, DT)
    torque = clamp_axes([0.5, 0.05, -0.5], None, lim.tau_max, lim.torque_rate, DT)
    np.testing.assert_allclose(force, [0.4, -0.3, 0.0])
    np.testing.assert_allclose(torque, [0.1, 0.05, -0.1])


def test_apply_limits_slew():
    lim = ActuationLimits(f_max=1.0, tau_max=1.0, force_rate=2.0, torque_rate=1.0)
    prev = [0.0, 0.0, 0.0]
    cmd_force, cmd_torque = [1.0, -1.0, 0.01], [1.0, 0.0, -1.0]
    # at most rate*dt change per tick from prev
    force = clamp_axes(cmd_force, prev, lim.f_max, lim.force_rate, 0.1)
    torque = clamp_axes(cmd_torque, prev, lim.tau_max, lim.torque_rate, 0.1)
    np.testing.assert_allclose(force, [0.2, -0.2, 0.01])
    np.testing.assert_allclose(torque, [0.1, 0.0, -0.1])
    # rate 0 means no slew limit
    lim2 = ActuationLimits(f_max=1.0, tau_max=1.0)
    assert clamp_axes(cmd_force, prev, lim2.f_max, lim2.force_rate, 0.1) == cmd_force


def test_apply_limits_nonfinite_command():
    lim = ActuationLimits(f_max=0.4, tau_max=0.1)
    nan, inf = float("nan"), float("inf")
    force = clamp_axes([nan, inf, -inf], None, lim.f_max, lim.force_rate, DT)
    torque = clamp_axes([nan, 0.0, inf], None, lim.tau_max, lim.torque_rate, DT)
    assert force == [0.0, 0.4, -0.4]
    assert torque == [0.0, 0.0, 0.1]


def test_validation():
    with pytest.raises(ValueError):
        ActuationLimits(f_max=0.0)
    with pytest.raises(ValueError):
        ActuationLimits(force_rate=-1.0)
