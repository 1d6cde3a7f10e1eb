"""PD regulator unit tests plus small closed-loop captures."""

import numpy as np
import pytest

from apiary import math3d as m3
from apiary.actuation import ActuationLimits, Wrench, apply_limits
from apiary.baseline import PdGains, hold_pose_controller, pd_wrench
from apiary.dynamics import BodyParams, RigidState, step
from apiary.env import EpisodeGoal

DT = 0.016


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
    goal = EpisodeGoal(m3.vec3(0.3, -0.2, 0.1), m3.quat_from_rotvec(m3.vec3(0.2, 0.0, 0.4)))
    state = RigidState(position=goal.position.copy(), attitude=goal.attitude.copy())
    cmd = pd_wrench(state, goal)
    np.testing.assert_array_equal(cmd.force, np.zeros(3))
    np.testing.assert_array_equal(cmd.torque, np.zeros(3))


def test_force_direction_identity_attitude():
    goal = EpisodeGoal(m3.vec3(0.4, 0.0, 0.0), m3.quat_identity())
    state = RigidState()
    g = PdGains()
    cmd = pd_wrench(state, goal, g)
    np.testing.assert_allclose(cmd.force, [g.kp_pos * 0.4, 0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(cmd.torque, np.zeros(3))


def test_force_rotated_into_body_frame():
    # vehicle yawed +90 deg: a world +x push acts along body -y
    goal = EpisodeGoal(m3.vec3(0.4, 0.0, 0.0), m3.quat_from_rotvec(m3.vec3(0, 0, np.pi / 2)))
    state = RigidState(attitude=m3.quat_from_rotvec(m3.vec3(0, 0, np.pi / 2)))
    g = PdGains()
    cmd = pd_wrench(state, goal, g)
    np.testing.assert_allclose(cmd.force, [0.0, -g.kp_pos * 0.4, 0.0], atol=1e-15)


def test_attitude_error_torque():
    ang = 0.3
    goal = EpisodeGoal(np.zeros(3), m3.quat_from_rotvec(m3.vec3(0, 0, ang)))
    state = RigidState()
    g = PdGains()
    cmd = pd_wrench(state, goal, g)
    np.testing.assert_array_equal(cmd.force, np.zeros(3))
    np.testing.assert_allclose(cmd.torque, [0.0, 0.0, g.kp_att * ang], atol=1e-15)


def test_velocity_damping():
    goal = EpisodeGoal(np.zeros(3), m3.quat_identity())
    state = RigidState(lin_vel=m3.vec3(0.05, -0.02, 0.01), ang_vel=m3.vec3(0.1, 0.0, -0.3))
    g = PdGains()
    cmd = pd_wrench(state, goal, g)
    np.testing.assert_allclose(cmd.force, -g.kd_pos * state.lin_vel, atol=1e-15)
    np.testing.assert_allclose(cmd.torque, -g.kd_att * state.ang_vel, atol=1e-15)


def test_limits_clamp_magnitude():
    goal = EpisodeGoal(m3.vec3(5.0, 0.0, 0.0), m3.quat_from_rotvec(m3.vec3(0, 0, 3.0)))
    state = RigidState()
    lim = ActuationLimits()
    cmd = apply_limits(None, pd_wrench(state, goal), lim)
    assert m3.vec_norm(cmd.force) == pytest.approx(lim.f_max)
    assert m3.vec_norm(cmd.torque) == pytest.approx(lim.tau_max)
    unclamped = pd_wrench(state, goal)
    assert m3.vec_norm(unclamped.force) > lim.f_max


def run_closed_loop(controller, state, body, steps, limits=None):
    for _ in range(steps):
        cmd = controller(state)
        if limits is not None:
            cmd = apply_limits(None, cmd, limits, DT)
        state = step(state, cmd, body, dt=DT)
    return state


def test_translation_settles_without_overshoot():
    body = BodyParams()
    goal = EpisodeGoal(m3.vec3(0.5, 0.0, 0.0), m3.quat_identity())
    lim = ActuationLimits()
    state = RigidState()
    max_x = 0.0
    for _ in range(int(30.0 / DT)):
        cmd = apply_limits(None, pd_wrench(state, goal), lim, DT)
        state = step(state, cmd, body, dt=DT)
        max_x = max(max_x, state.position[0])
    assert abs(state.position[0] - 0.5) < 0.01
    assert m3.vec_norm(state.lin_vel) < 0.005
    assert max_x < 0.505, "critically damped loop must not overshoot"
    np.testing.assert_allclose(state.position[1:], [0.0, 0.0], atol=1e-12)


def test_hold_pose_captures_drift():
    # 5 cm/s drift must be brought under 5 mm/s in 10 s
    body = BodyParams()
    start = RigidState(lin_vel=m3.vec3(0.05, 0.0, 0.0))
    ctl = hold_pose_controller(start)
    state = run_closed_loop(ctl, start, body, int(10.0 / DT), ActuationLimits())
    assert m3.vec_norm(state.lin_vel) < 0.005
    assert m3.vec_norm(state.position) < 0.1  # stays near the captured pose


def test_hold_pose_goal_is_a_snapshot():
    start = RigidState(position=m3.vec3(1.0, 2.0, 3.0))
    ctl = hold_pose_controller(start)
    start.position[0] = 99.0  # later mutation must not move the hold goal
    cmd = ctl(RigidState(position=m3.vec3(1.0, 2.0, 3.0)))
    np.testing.assert_array_equal(cmd.force, np.zeros(3))


def test_hold_pose_arrests_rotation():
    body = BodyParams()
    start = RigidState(ang_vel=m3.vec3(0.0, 0.0, 0.2))
    ctl = hold_pose_controller(start)
    state = run_closed_loop(ctl, start, body, int(15.0 / DT), ActuationLimits())
    assert m3.vec_norm(state.ang_vel) < 0.01
    err = m3.quat_error(start.attitude, state.attitude)
    assert m3.vec_norm(err) < 0.05


def test_returns_wrench_type():
    cmd = pd_wrench(RigidState(), EpisodeGoal(np.zeros(3), m3.quat_identity()))
    assert isinstance(cmd, Wrench)
