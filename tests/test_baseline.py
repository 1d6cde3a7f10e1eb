"""PD regulator unit tests on `pd_wrench_f`, plus the documented closed-loop
claims flown through `run_maneuver` in BASELINE mode."""

import numpy as np
import pytest

from apiary import math3d as m3
from apiary.actuation import ActuationLimits, clamp_axes
from apiary.baseline import PdGains, pd_wrench_f
from apiary.mission import ControlMode, Maneuver, MissionConfig, read_log
from flight import column, fly
from float_state import state

DT = 0.016
ZERO = [0.0, 0.0, 0.0]
IDENTITY = [1.0, 0.0, 0.0, 0.0]


def pd_law(goal_pos, goal_att, pos=ZERO, att=IDENTITY, lin_vel=ZERO, ang_vel=ZERO, gains=None):
    """`pd_wrench_f` fed the errors the flight tick computes for this state."""
    pos_err = [g - p for g, p in zip(goal_pos, pos)]
    ori_err = m3.quat_error_f(goal_att, att)
    return pd_wrench_f(pos_err, ori_err, att, lin_vel, ang_vel, gains or PdGains())


def test_gains_validation():
    PdGains()
    PdGains(kp_pos=0.0, kd_pos=0.0, kp_att=0.0, kd_att=0.0)  # pure drift, allowed
    with pytest.raises(ValueError):
        PdGains(kp_pos=-1.0)
    with pytest.raises(ValueError):
        PdGains(kp_pos=1.0, kd_pos=0.0)
    with pytest.raises(ValueError):
        PdGains(kp_att=0.1, kd_att=0.0)


def test_zero_wrench_at_goal_at_rest():
    goal_pos = [0.3, -0.2, 0.1]
    goal_att = m3.quat_from_rotvec(m3.vec3(0.2, 0.0, 0.4)).tolist()
    force, torque = pd_law(goal_pos, goal_att, goal_pos, goal_att)
    assert force == ZERO and torque == ZERO


def test_force_direction_identity_attitude():
    g = PdGains()
    force, torque = pd_law([0.4, 0.0, 0.0], IDENTITY, gains=g)
    np.testing.assert_allclose(force, [g.kp_pos * 0.4, 0.0, 0.0], atol=1e-15)
    assert torque == ZERO


def test_force_rotated_into_body_frame():
    # vehicle yawed +90 deg: a world +x push acts along body -y
    yaw = m3.quat_from_rotvec(m3.vec3(0, 0, np.pi / 2)).tolist()
    g = PdGains()
    force, _ = pd_law([0.4, 0.0, 0.0], yaw, att=yaw, gains=g)
    np.testing.assert_allclose(force, [0.0, -g.kp_pos * 0.4, 0.0], atol=1e-15)


def test_attitude_error_torque():
    ang = 0.3
    g = PdGains()
    force, torque = pd_law(ZERO, m3.quat_from_rotvec(m3.vec3(0, 0, ang)).tolist(), gains=g)
    assert force == ZERO
    np.testing.assert_allclose(torque, [0.0, 0.0, g.kp_att * ang], atol=1e-15)


def test_velocity_damping():
    lin_vel, ang_vel = [0.05, -0.02, 0.01], [0.1, 0.0, -0.3]
    g = PdGains()
    force, torque = pd_law(ZERO, IDENTITY, lin_vel=lin_vel, ang_vel=ang_vel, gains=g)
    np.testing.assert_allclose(force, -g.kd_pos * np.array(lin_vel), atol=1e-15)
    np.testing.assert_allclose(torque, -g.kd_att * np.array(ang_vel), atol=1e-15)


def test_limits_clamp_magnitude():
    force, torque = pd_law([5.0, 0.0, 0.0], m3.quat_from_rotvec(m3.vec3(0, 0, 3.0)).tolist())
    lim = ActuationLimits()
    assert m3.vec_norm_f(force) > lim.f_max
    clamped_force = clamp_axes(force, None, lim.f_max, lim.force_rate, DT)
    clamped_torque = clamp_axes(torque, None, lim.tau_max, lim.torque_rate, DT)
    assert m3.vec_norm_f(clamped_force) == pytest.approx(lim.f_max)
    assert m3.vec_norm_f(clamped_torque) == pytest.approx(lim.tau_max)


def fly_baseline(start, maneuver, log_path=None):
    """Fly one maneuver under the PD baseline, logged to `log_path` when
    given; (final state, outcome)."""
    return fly(start, maneuver, ControlMode.BASELINE, MissionConfig(), log_path=log_path)


def test_translation_settles_without_overshoot(tmp_path):
    path = tmp_path / "log.csv"
    (pos, _, lv, _), out = fly_baseline(state(), Maneuver("translate", 0, 0.5, timeout=30.0), path)
    assert out.outcome == "success"
    assert abs(pos[0] - 0.5) < 0.01
    assert m3.vec_norm_f(lv) < 0.005
    max_x = max(float(column(read_log(path), "px").max()), pos[0])
    assert max_x < 0.505, "critically damped loop must not overshoot"
    np.testing.assert_allclose(pos[1:], [0.0, 0.0], atol=1e-12)


# A dock maneuver targets the origin at identity attitude; flown from
# there, the baseline runs the hold law on it: regulate to the pose at entry
# with zero velocity targets, whatever twist the body entered with.


def test_hold_pose_captures_drift():
    # 5 cm/s drift must be brought under 5 mm/s in 10 s
    (pos, _, lv, _), _ = fly_baseline(state(lv=[0.05, 0.0, 0.0]), Maneuver("dock", timeout=10.0))
    assert m3.vec_norm_f(lv) < 0.005
    assert m3.vec_norm_f(pos) < 0.1  # stays near the captured pose


def test_hold_pose_arrests_rotation():
    start = state(av=[0.0, 0.0, 0.2])
    # int(15 s / DT) = 937 ticks; a 15.0 s timeout would round to 938
    (_, att, _, av), _ = fly_baseline(start, Maneuver("dock", timeout=937 * DT))
    assert m3.vec_norm_f(av) < 0.01
    assert m3.vec_norm_f(m3.quat_error_f(start[1], att)) < 0.05
