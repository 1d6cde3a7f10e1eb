"""Sequencer, safety monitor, trajectory log, metrics and parser tests."""

import csv
import os
import signal
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apiary import math3d as m3
from apiary import mission
from apiary.actuation import ActuationLimits
from apiary.baseline import PdGains
from apiary.dynamics import GRANITE_3DOF, BodyParams, SimulationDivergedError, step_arrays
from apiary.env import ORI_ERR, POS_ERR, EnvConfig, RewardWeights, obs_norms, observe_arrays
from apiary.learn import evaluate_policy
from apiary.learn.checkpoint import load_policy
from apiary.learn.nets import policy_init, policy_mean
from apiary.learn.ppo import PpoConfig
from apiary.mission import (
    DOCK_POS_TOL,
    DOCK_STANDOFF,
    LOG_COLUMNS,
    LOG_HEADER,
    MAX_MANEUVER_TICKS,
    ControlMode,
    FaultSpec,
    LogWriter,
    Maneuver,
    ManeuverMetrics,
    MissionConfig,
    SafetyThresholds,
    goal_for_maneuver,
    log_line,
    metrics_from_log,
    parse_faults_file,
    parse_maneuver_spec,
    parse_maneuver_tokens,
    parse_sequence_file,
    read_log,
    run_compare,
    run_sequence,
    safety_check,
)
from flight import column, columns, fly, labels
from float_state import state

DT = 0.016
ASSETS = Path(__file__).resolve().parents[1] / "assets"
REFERENCE_CKPT = ASSETS / "reference_policy.ckpt"
STOCK_SEQUENCE = ASSETS / "stock_sequence.txt"


def tiny_net():
    # out_scale 0.01 keeps the random policy's wrench near zero
    return policy_init(np.random.default_rng(1234), PpoConfig())


def obs_of(s, goal_pos, goal_att, body_frame=False):
    """The 12-vector observation of the state (pos, att, lv, av) against one goal."""
    goal_terms = m3.quat_error_terms(np.array(goal_att))
    return observe_arrays(*map(np.array, (*s, goal_pos)), goal_terms, body_frame)


# ------------------------------------------------------------- safety


def monitor_norms(s):
    """The four channel norms the flight loop hands the monitor, against
    a goal at the origin with identity attitude."""
    return obs_norms(obs_of(s, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])).tolist()


def test_safety_check_counts_and_trips():
    th = SafetyThresholds()
    bad = monitor_norms(state(pos=[0.3, 0.0, 0.0]))  # 0.3 > 0.25
    good = monitor_norms(state())
    decision, c = safety_check(bad, th, 0)
    assert decision is None and c == 1
    decision, c = safety_check(bad, th, c)
    assert decision is None and c == 2
    decision, c = safety_check(bad, th, c)
    assert decision is ControlMode.HOLD_FALLBACK and c == 3
    # one clean tick resets the streak
    decision, c = safety_check(good, th, 2)
    assert decision is None and c == 0


def test_safety_check_boundary_is_strict():
    th = SafetyThresholds()
    at_limit = monitor_norms(state(pos=[th.max_pos_err, 0.0, 0.0]))
    _, c = safety_check(at_limit, th, 0)
    assert c == 0, "exactly at the limit is not a violation"
    limits = (th.max_pos_err, th.max_ori_err, th.max_lin_vel, th.max_ang_vel)
    for k, limit in enumerate(limits):
        norms = [0.0] * 4
        norms[k] = limit
        assert safety_check(norms, th, 0)[1] == 0, k
        norms[k] = float(np.nextafter(limit, np.inf))
        assert safety_check(norms, th, 0)[1] == 1, k


def test_safety_check_each_channel():
    th = SafetyThresholds()
    cases = [
        state(pos=[0.26, 0, 0]),
        state(att=m3.quat_from_rotvec(m3.vec3(0, 0, np.deg2rad(31.0)))),
        state(lv=[0.51, 0, 0]),
        state(av=[0, 1.01, 0]),
    ]
    for k, s in enumerate(cases):
        norms = monitor_norms(s)
        assert [n > 0.0 for n in norms] == [j == k for j in range(4)]
        _, c = safety_check(norms, th, 0)
        assert c == 1


def test_safety_thresholds_validation():
    with pytest.raises(ValueError):
        SafetyThresholds(max_pos_err=0.0)
    with pytest.raises(ValueError):
        SafetyThresholds(trip_consecutive=0)


# ------------------------------------------------------------- dataclasses


def test_maneuver_validation():
    with pytest.raises(ValueError):
        Maneuver("warp")
    with pytest.raises(ValueError):
        Maneuver("translate", axis=None, magnitude=0.5)
    with pytest.raises(ValueError):
        Maneuver("translate", axis=0, timeout=0.0)
    with pytest.raises(ValueError):
        Maneuver("goto_pose", pose=(1.0, 2.0))
    for bad in (
        dict(kind="translate", axis=0, magnitude=np.inf),
        dict(kind="rotate", axis=2, magnitude=0.1, timeout=np.nan),
        dict(kind="dock", timeout=np.inf),
        dict(kind="goto_pose", pose=(np.nan, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            Maneuver(**bad)
    Maneuver("dock")  # no extra args needed


def test_mission_config_validation():
    # MissionConfig holds only parts that check themselves when built
    for dt in (0.0, 0.6):
        with pytest.raises(ValueError, match=r"dt must be in \(0, 0.5\]"):
            MissionConfig(EnvConfig(dt=dt))
    MissionConfig(EnvConfig(dt=0.5))
    with pytest.raises(ValueError, match="success tolerances must be positive"):
        MissionConfig(EnvConfig(success_pos_tol=0.0))
    with pytest.raises(ValueError, match="hold_steps"):
        MissionConfig(EnvConfig(hold_steps=0))
    with pytest.raises(ValueError, match="trip_consecutive"):
        MissionConfig(safety=SafetyThresholds(trip_consecutive=0))
    with pytest.raises(ValueError, match="damping"):
        MissionConfig(gains=PdGains(kp_pos=1.0, kd_pos=0.0))


def test_fault_spec_validation():
    FaultSpec(0, 0, np.zeros(3))
    with pytest.raises(ValueError):
        FaultSpec(-1, 0, np.zeros(3))
    with pytest.raises(ValueError):
        FaultSpec(0, 0, np.zeros(2))
    with pytest.raises(ValueError):
        FaultSpec(0, 0, np.array([np.nan, 0.0, 0.0]))


# ------------------------------------------------------------- goals


def array_goal(maneuver, entry_pos, entry_att):
    """Oracle: goal resolution over numpy arrays, the formula
    `goal_for_maneuver` ran before it ran on floats: the rotate increment
    through the axis-angle kernel, and the dock at the origin with identity
    attitude, its standoff rotated into the dock frame."""
    entry_pos = np.asarray(entry_pos, dtype=np.float64)
    entry_att = np.asarray(entry_att, dtype=np.float64)
    dock_pos, dock_att = np.zeros(3), m3.quat_identity()
    if maneuver.kind == "translate":
        offset = np.zeros(3)
        offset[maneuver.axis] = maneuver.magnitude
        return entry_pos + offset, entry_att.copy()
    if maneuver.kind == "rotate":
        axis = np.zeros(3)
        axis[maneuver.axis] = 1.0
        u = axis / m3.vec_norm(axis)[..., None]
        half = 0.5 * np.asarray(maneuver.magnitude, dtype=np.float64)
        s = np.sin(half)
        dq = m3.quat_normalize(np.stack([np.cos(half), u[0] * s, u[1] * s, u[2] * s], axis=-1))
        return entry_pos.copy(), m3.quat_mul(entry_att, dq)
    if maneuver.kind == "goto_pose":
        pose = np.asarray(maneuver.pose, dtype=np.float64)
        return pose[:3], m3.quat_normalize(pose[3:])
    if maneuver.kind == "dock_approach":
        standoff = m3.quat_rotate(dock_att, m3.vec3(DOCK_STANDOFF, 0.0, 0.0))
        return dock_pos + standoff, dock_att
    return dock_pos, dock_att


# entry components include both signed zeros: a rotate goal keeps the sign
# of an off-axis zero only if the increment's off-axis terms carry it
signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
entry_positions = st.lists(signed, min_size=3, max_size=3)
entry_attitudes = (
    st.lists(signed, min_size=4, max_size=4)
    .filter(lambda q: sum(c * c for c in q) > 1e-6)
    .map(m3.quat_normalize_f)
)
maneuvers = st.one_of(
    st.builds(
        Maneuver, st.sampled_from(["translate", "rotate"]), st.sampled_from([0, 1, 2]),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-7.0, 7.0)),
    ),
    st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7).map(
        lambda pose: Maneuver("goto_pose", pose=tuple(pose))
    ),
    st.sampled_from([Maneuver("dock_approach"), Maneuver("dock")]),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(maneuvers, entry_positions, entry_attitudes)
@example(Maneuver("rotate", 2, -0.3), [0.0, -0.0, 0.5], [0.9, -0.0, 0.0, -0.0])
@example(Maneuver("rotate", 0, -2.5), [-0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 1.0])
@example(Maneuver("rotate", 1, float(np.deg2rad(-170.0))), [0.0] * 3, [1.0, 0.0, 0.0, 0.0])
@example(Maneuver("goto_pose", pose=(0.2, -0.1, 0.05, 0.9, 0.1, -0.2, 0.3)), [0.0] * 3,
         [1.0, 0.0, 0.0, 0.0])  # an unnormalized quaternion
@example(Maneuver("goto_pose", pose=(0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0)), [0.0] * 3,
         [1.0, 0.0, 0.0, 0.0])  # w < 0
@example(Maneuver("goto_pose", pose=(1.0, 2.0, 3.0, -2.0, 0.5, -0.0, 0.0)), [0.5, 0.0, -0.0],
         [0.0, 1.0, 0.0, 0.0])
@example(Maneuver("goto_pose", pose=(0.0,) * 7), [0.0] * 3, [1.0, 0.0, 0.0, 0.0])  # zero quaternion
def test_goal_for_maneuver_matches_array_oracle(maneuver, entry_pos, entry_att):
    try:
        want = array_goal(maneuver, entry_pos, entry_att)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            goal_for_maneuver(maneuver, entry_pos, entry_att)
        return
    got = goal_for_maneuver(maneuver, entry_pos, entry_att)
    for g, w in zip(got, want):
        assert all(type(c) is float for c in g)
        assert np.array(g).tobytes() == w.tobytes(), (g, w)


def test_goal_translate():
    entry_att = m3.quat_from_rotvec(m3.vec3(0.1, 0, 0)).tolist()
    goal_pos, goal_att = goal_for_maneuver(Maneuver("translate", 1, -0.5), [1.0, 2.0, 3.0], entry_att)
    assert goal_pos == [1.0, 1.5, 3.0]
    assert goal_att == entry_att


def test_goal_rotate_composes_with_entry():
    ang = np.deg2rad(20.0)
    goal_pos, goal_att = goal_for_maneuver(
        Maneuver("rotate", 2, ang), [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]
    )
    np.testing.assert_allclose(goal_att, m3.quat_from_rotvec(m3.vec3(0, 0, ang)), atol=1e-15)
    assert goal_pos == [0.0, 0.0, 0.0]


def test_goal_goto_pose_normalizes():
    man = Maneuver("goto_pose", pose=(1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0))
    goal_pos, goal_att = goal_for_maneuver(man, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    assert goal_att == [1.0, 0.0, 0.0, 0.0]
    assert goal_pos == [1.0, 0.0, 0.0]


def test_goal_dock_approach_standoff_in_dock_frame():
    # the dock is the start pose of every flight, the origin at identity
    # attitude, whatever pose the maneuver enters from
    entry_att = m3.quat_from_rotvec(m3.vec3(0, 0, np.pi / 2)).tolist()
    goal = goal_for_maneuver(Maneuver("dock_approach"), [9.0, 9.0, 9.0], entry_att)
    assert goal == ([DOCK_STANDOFF, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    direct = goal_for_maneuver(Maneuver("dock"), [9.0, 9.0, 9.0], entry_att)
    assert direct == ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- logging


NO_WRENCH = [0.0] * 6


def log_row(t, s=None, commanded=NO_WRENCH, applied=NO_WRENCH, pos_err=(0, 0, 0),
            ori_err=(0, 0, 0)):
    """One numeric log row in schema order for the state s = (pos, att, lv,
    av), at rest at the origin when None; the commanded and applied
    wrenches are six numbers each, force then torque."""
    return np.concatenate(([t], *(s or state()), commanded, applied, pos_err, ori_err))


def make_log_rows(n=3):
    """n rows of a flight along x, in schema order."""
    return np.array([
        log_row(
            k * DT,
            state(pos=[0.1 * k, 0, 0]),
            [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.4, 0.0, 0.0, 0.0, 0.0, 0.0],
            m3.vec3(1.0 - 0.1 * k, 0, 0),
        )
        for k in range(n)
    ])


def write_log(path, rows, row_labels=None):
    """`LOG_HEADER`, then a `log_line` per row, as a flight writes them;
    each row's (mode, maneuver) is ("baseline", 0) unless given."""
    row_labels = row_labels or [("baseline", 0)] * len(rows)
    path.write_text(
        LOG_HEADER + "".join(log_line(r, *lab) for r, lab in zip(rows.tolist(), row_labels)),
        newline="",
    )
    return path


def test_log_schema_and_columns(tmp_path):
    path = write_log(tmp_path / "log.csv", make_log_rows(), [("baseline", 2)] * 3)
    num = read_log(path)
    assert num.shape == (3, 32) and num.dtype == np.float64
    np.testing.assert_array_equal(column(num, "t"), [0.0, DT, 2 * DT])
    np.testing.assert_array_equal(column(num, "px"), [0.0, 0.1, 0.2])
    np.testing.assert_array_equal(column(num, "Fcx"), [0.4, 0.4, 0.4])
    assert labels(path) == (["baseline"] * 3, [2, 2, 2])
    assert len(LOG_COLUMNS) == 34


def test_log_requires_increasing_time(tmp_path):
    # the error names the file and the first pair out of order
    rows = np.zeros((4, 32))
    rows[:, 0] = [0.0, DT, 3 * DT, 2 * DT]
    path = write_log(tmp_path / "log.csv", rows)
    with pytest.raises(ValueError, match=rf"log.csv: .*strictly increase: {2 * DT} after {3 * DT}"):
        read_log(path)
    # a one-row log has no pair to compare
    assert read_log(write_log(tmp_path / "one.csv", rows[:1])).shape == (1, 32)


def test_log_read_csv_rejects_non_increasing_time(tmp_path):
    # a time that repeats, falls back or is NaN
    rows = np.zeros((3, 32))
    for t in ([0.0, DT, DT], [0.0, 2 * DT, DT], [0.0, np.nan, 2 * DT]):
        rows[:, 0] = t
        with pytest.raises(ValueError, match="strictly increase"):
            read_log(write_log(tmp_path / "log.csv", rows))


def test_log_read_csv_reads_and_grows(tmp_path):
    rows = np.zeros((2, 32))
    rows[:, 0] = [0.0, DT]
    rows[:, 1] = [0.5, 0.6]
    num = read_log(write_log(tmp_path / "log.csv", rows, [("baseline", 2)] * 2))
    np.testing.assert_array_equal(column(num, "px"), [0.5, 0.6])
    assert labels(tmp_path / "log.csv") == (["baseline"] * 2, [2, 2])
    # a long log reads back whole, in order
    rows = np.zeros((200, 32))
    rows[:, 0] = np.arange(200) * DT
    num = read_log(write_log(tmp_path / "long.csv", rows, [("baseline", 2)] * 200))
    assert num.shape == (200, 32)
    np.testing.assert_array_equal(column(num, "t")[:3], [0.0, DT, 2 * DT])
    assert num.tobytes() == rows.tobytes()


def test_log_csv_round_trip(tmp_path):
    rows = make_log_rows(5)
    path = write_log(tmp_path / "traj.csv", rows)
    assert read_log(path).tobytes() == rows.tobytes()
    assert labels(path) == (["baseline"] * 5, [0] * 5)


def _csv_module_bytes(rows, row_labels, path):
    """The trajectory CSV as the csv module writes it, repr for every float."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOG_COLUMNS)
        for row, (mode, man) in zip(rows.tolist(), row_labels):
            w.writerow([repr(v) for v in row] + [str(mode), int(man)])
    return path.read_bytes()


def test_log_csv_bytes_survive_round_trip(tmp_path):
    rows = np.arange(8 * 32, dtype=np.float64).reshape(8, 32) / 7.0
    rows[:, 0] = np.arange(8) * DT
    rows[0, 1], rows[1, 2], rows[2, 3], rows[3, 4] = np.nan, np.inf, -np.inf, -0.0
    rows[1, 31] = 1e-300
    # the applied wrench (Fcx..Tcz) equal to the commanded one (Fx..Tz):
    # whole; with signed zeros that compare equal but print apart, either
    # way round; and with nan, which equals nothing
    rows[4:, 20:26] = rows[4:, 14:20]
    rows[5, [14, 25]], rows[5, [20, 19]] = 0.0, -0.0
    rows[6, [16, 23]], rows[6, [22, 17]] = -0.0, 0.0
    rows[7, [15, 21]] = np.nan
    row_labels = [("rl_policy", 3), ("rl_policy", 3), ("hold_fallback", 6), ("baseline", 7)]
    row_labels += [("rl_policy", 8)] * 4
    first = write_log(tmp_path / "a.csv", rows, row_labels)
    data = first.read_bytes()
    assert data == _csv_module_bytes(rows, row_labels, tmp_path / "oracle.csv")
    assert b"\r\n" in data and b'"' not in data
    assert b",nan," in data and b",inf," in data and b",-inf," in data and b",-0.0," in data
    back = read_log(first)
    assert back.tobytes() == rows.tobytes()
    modes, maneuvers = labels(first)
    assert modes == ["rl_policy"] * 2 + ["hold_fallback", "baseline"] + ["rl_policy"] * 4
    assert maneuvers == [3, 3, 6, 7, 8, 8, 8, 8]
    second = write_log(tmp_path / "b.csv", back, list(zip(modes, maneuvers)))
    assert second.read_bytes() == data


def test_log_csv_rejects_other_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_log(path)


# ------------------------------------------------------------- maneuvers


def test_run_maneuver_validation(tmp_path):
    mc = MissionConfig()
    with pytest.raises(ValueError, match="RL_POLICY or BASELINE"):
        fly(state(), Maneuver("dock"), ControlMode.HOLD_FALLBACK, mc)
    with pytest.raises(ValueError, match="policy"):
        fly(state(), Maneuver("dock"), ControlMode.RL_POLICY, mc)
    # a timeout under half a tick runs no ticks: rejected before anything is logged
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError, match=r"maneuver index 3: timeout 0.001 s .* dt 0.016 s"):
        fly(state(), Maneuver("translate", 0, 0.5, timeout=0.001),
            ControlMode.BASELINE, mc, log_path=path, maneuver_index=3)
    assert path.read_bytes() == LOG_HEADER.encode()
    assert fly(state(), Maneuver("dock", timeout=0.01), ControlMode.BASELINE, mc)[1].ticks == 1
    # a state that overflows during propagation stops the flight
    fast = state(pos=[1.79e308, 0, 0], lv=[1e308, 0, 0])
    with pytest.raises(SimulationDivergedError):
        fly(fast, Maneuver("dock"), ControlMode.BASELINE, mc)


def test_pd_translate_full_timeout_and_log_consistency(tmp_path):
    mc = MissionConfig()
    man = Maneuver("translate", 0, 0.5, timeout=30.0)
    path = tmp_path / "log.csv"
    _, out = fly(state(), man, ControlMode.BASELINE, mc, log_path=path)
    num = read_log(path)  # rejects a time that does not strictly increase
    assert out.outcome == "success"
    assert out.ticks == int(round(30.0 / DT)) == len(num)
    assert out.final_pos_err < 0.01
    assert out.final_ori_err < np.deg2rad(0.5)
    assert np.isfinite(out.settle_time) and 0.0 < out.settle_time < 30.0
    # logged error columns recompute exactly from logged state and the goal
    px = column(num, "px")
    epx = column(num, "epx")
    np.testing.assert_allclose(px + epx, 0.5, atol=1e-12)
    # pure x maneuver: no cross-axis motion at all
    np.testing.assert_array_equal(column(num, "py"), np.zeros(out.ticks))
    np.testing.assert_array_equal(column(num, "pz"), np.zeros(out.ticks))
    assert labels(path) == (["baseline"] * out.ticks, [0] * out.ticks)


def test_fault_trips_monitor_on_exact_tick(tmp_path):
    mc = MissionConfig()
    # goal equals entry, so the monitor arms on the first tick; the fault
    # then pushes measured position past the envelope at tick 10
    man = Maneuver("translate", 0, 0.0, timeout=5.0)
    fault = FaultSpec(0, 10, m3.vec3(0.5, 0.0, 0.0))
    path = tmp_path / "log.csv"
    _, out = fly(state(), man, ControlMode.RL_POLICY, mc, net=tiny_net(), log_path=path,
                 fault=fault)
    assert out.outcome == "fallback_triggered"
    assert out.end_mode == "hold_fallback"
    modes, _ = labels(path)
    trip_tick = 10 + mc.safety.trip_consecutive - 1
    assert modes[:trip_tick] == ["rl_policy"] * trip_tick
    assert modes[trip_tick:] == ["hold_fallback"] * (len(modes) - trip_tick)
    # measured state is what gets logged: the offset appears at tick 10
    px = column(read_log(path), "px")
    assert abs(px[10] - px[9] - 0.5) < 0.01


def test_fault_ignored_by_baseline_mode(tmp_path):
    mc = MissionConfig()
    man = Maneuver("translate", 0, 0.0, timeout=5.0)
    fault = FaultSpec(0, 10, m3.vec3(0.5, 0.0, 0.0))
    path = tmp_path / "log.csv"
    _, out = fly(state(), man, ControlMode.BASELINE, mc, log_path=path, fault=fault)
    assert out.outcome != "fallback_triggered"
    assert set(labels(path)[0]) == {"baseline"}


def test_monitor_stays_disarmed_outside_envelope(tmp_path):
    # a large commanded motion starts outside the envelope; an RL policy
    # that barely moves must time out rather than trip the monitor
    mc = MissionConfig()
    man = Maneuver("translate", 0, 0.5, timeout=2.0)
    path = tmp_path / "log.csv"
    _, out = fly(state(), man, ControlMode.RL_POLICY, mc, net=tiny_net(), log_path=path)
    assert out.outcome == "timeout"
    assert set(labels(path)[0]) == {"rl_policy"}


def test_flight_tick_computes_orientation_error_once(monkeypatch, tmp_path):
    # the observation is the tick's only error computation: the policy,
    # the logged errors, the monitor and the success streak all read it.
    # The tick runs in Python floats, so it is the float kernel that counts.
    calls = []
    quat_error_f = m3.quat_error_f

    def counted(goal, current):
        calls.append(1)
        return quat_error_f(goal, current)

    def array_path(goal, current):
        raise AssertionError("the flight tick called the array quat_error")

    monkeypatch.setattr(m3, "quat_error_f", counted)
    monkeypatch.setattr(m3, "quat_error", array_path)
    net, _ = load_policy(REFERENCE_CKPT)
    man = parse_sequence_file(STOCK_SEQUENCE)[0]
    assert man.kind == "translate"
    path = tmp_path / "log.csv"
    _, out = fly(state(), man, ControlMode.RL_POLICY, MissionConfig(), net=net, log_path=path)
    assert out.outcome == "success" and len(read_log(path)) == out.ticks
    assert len(calls) <= out.ticks + 2


def test_run_sequence_skips_after_fallback(tmp_path):
    mc = MissionConfig()
    seq = [
        Maneuver("translate", 0, 0.0, timeout=2.0),
        Maneuver("translate", 0, 0.0, timeout=2.0),
        Maneuver("translate", 0, 0.0, timeout=2.0),
    ]
    faults = [FaultSpec(0, 5, m3.vec3(0.5, 0, 0))]
    path = tmp_path / "traj.csv"
    outcomes = run_sequence(seq, ControlMode.RL_POLICY, mc, tiny_net(), faults, path)
    assert [o.outcome for o in outcomes] == [
        "fallback_triggered", "skipped", "skipped",
    ]
    assert outcomes[1].ticks == 0 and outcomes[2].ticks == 0
    assert set(labels(path)[1]) == {0}


def test_run_sequence_resume_flag_continues(tmp_path):
    mc = MissionConfig()
    seq = [
        Maneuver("translate", 0, 0.0, timeout=2.0),
        Maneuver("translate", 0, 0.0, timeout=2.0, resume=True),
        Maneuver("translate", 0, 0.0, timeout=2.0),
    ]
    faults = [FaultSpec(0, 5, m3.vec3(0.5, 0, 0))]
    path = tmp_path / "traj.csv"
    outcomes = run_sequence(seq, ControlMode.RL_POLICY, mc, tiny_net(), faults, path)
    assert outcomes[0].outcome == "fallback_triggered"
    assert outcomes[1].outcome != "skipped"
    assert outcomes[2].outcome != "skipped"
    # log tick counter keeps increasing across maneuvers (read_log checks it)
    t = column(read_log(path), "t")
    assert len(t) == 3 * 125 and t[-1] == (3 * 125 - 1) * DT
    assert labels(path)[1] == [0] * 125 + [1] * 125 + [2] * 125


@pytest.mark.parametrize(
    "faults, message",
    [
        ([FaultSpec(3, 5, m3.vec3(0.5, 0, 0))], r"maneuver index 3, tick 5: the sequence has only 2"),
        (
            [FaultSpec(1, 5, m3.vec3(0.5, 0, 0)), FaultSpec(1, 7, np.zeros(3))],
            r"maneuver index 1, tick 7: maneuver index 1 already has a fault at tick 5",
        ),
        ([FaultSpec(0, 125, m3.vec3(0.5, 0, 0))], r"maneuver index 0, tick 125: .*ticks 0\.\.124"),
    ],
)
def test_run_sequence_rejects_faults_that_never_fire(tmp_path, faults, message):
    mc = MissionConfig()
    seq = [Maneuver("translate", 0, 0.0, timeout=2.0)] * 2  # 125 ticks each
    with pytest.raises(ValueError, match=message):
        run_sequence(seq, ControlMode.RL_POLICY, mc, tiny_net(), faults,
                     tmp_path / "out" / "traj.csv")
    assert not (tmp_path / "out").exists()


def test_run_sequence_fault_on_last_tick_fires(tmp_path):
    mc = MissionConfig()
    seq = [Maneuver("translate", 0, 0.0, timeout=2.0)]
    fault = FaultSpec(0, 124, m3.vec3(0.5, 0, 0))
    path = tmp_path / "traj.csv"
    run_sequence(seq, ControlMode.RL_POLICY, mc, tiny_net(), [fault], path)
    np.testing.assert_allclose(column(read_log(path), "epx")[-2:], [0.0, -0.5], atol=1e-3)


def test_maneuver_tick_bound(tmp_path):
    # 4000 s is exactly MAX_MANEUVER_TICKS at 0.016 s: accepted, as the
    # fault check's tick range shows without flying it; one tick more is
    # rejected before the first maneuver flies
    mc = MissionConfig()
    path = tmp_path / "out" / "traj.csv"
    assert round(4000.0 / DT) == MAX_MANEUVER_TICKS
    short = Maneuver("translate", 0, 0.0, timeout=2.0)
    fault = FaultSpec(1, MAX_MANEUVER_TICKS, m3.vec3(0.5, 0, 0))
    with pytest.raises(ValueError, match=r"index 1, tick 250000: .*ticks 0\.\.249999"):
        run_sequence([short, Maneuver("dock", timeout=4000.0)], ControlMode.BASELINE, mc,
                     None, [fault], path)
    too_long = Maneuver("dock", timeout=4000.0 + DT)
    message = r"maneuver index 1: timeout 4000.016 s is 250001 ticks .* more than the 250000"
    with pytest.raises(ValueError, match=message):
        run_sequence([short, too_long], ControlMode.BASELINE, mc, None, [], path)
    with pytest.raises(ValueError, match="maneuver index 0: .* more than the 250000"):
        fly(state(), too_long, ControlMode.BASELINE, mc)
    assert not (tmp_path / "out").exists()


def test_run_sequence_dock_targets_entry_pose(tmp_path):
    # the dock maneuver enters 0.2 m from the sequence entry (the origin)
    # and flies back to it, not to its own entry pose
    mc = MissionConfig()
    seq = [
        Maneuver("translate", 0, 0.2, timeout=20.0),
        Maneuver("dock", timeout=20.0),
    ]
    path = tmp_path / "traj.csv"
    outcomes = run_sequence(seq, ControlMode.BASELINE, mc, None, [], path)
    assert [o.outcome for o in outcomes] == ["success", "success"]
    num = read_log(path)
    dock = np.array(labels(path)[1]) == 1
    pos = columns(num, ["px", "py", "pz"])[dock]
    goal = pos + columns(num, ["epx", "epy", "epz"])[dock]
    np.testing.assert_allclose(pos[0], [0.2, 0.0, 0.0], atol=0.01)
    np.testing.assert_allclose(goal, 0.0, atol=1e-12)
    np.testing.assert_allclose(pos[-1], np.zeros(3), atol=DOCK_POS_TOL)


def test_run_sequence_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        run_sequence([], ControlMode.BASELINE, MissionConfig(), None, [], tmp_path / "t.csv")


GRANITE = MissionConfig(EnvConfig(mask=GRANITE_3DOF))


@pytest.mark.parametrize(
    "pinned, message",
    [
        (Maneuver("translate", 2, 0.1), "translate asks for translation along z"),
        (Maneuver("translate", 2, -1e-300), "translate asks for translation along z"),
        (Maneuver("rotate", 0, -0.5), "rotate asks for rotation about x"),
        (Maneuver("rotate", 1, 0.2), "rotate asks for rotation about y"),
        (Maneuver("goto_pose", pose=(0.1, 0.2, -0.1, 1.0, 0.0, 0.0, 0.0)),
         "goto_pose asks for translation along z"),
        (Maneuver("goto_pose", pose=(0.1, 0.2, 0.0, 0.9, 0.1, 0.0, 0.3)),
         "goto_pose asks for rotation about x"),
        (Maneuver("goto_pose", pose=(0.1, 0.2, 0.0, 0.9, 0.0, -0.2, 0.3)),
         "goto_pose asks for rotation about y"),
    ],
)
def test_run_sequence_rejects_goal_on_pinned_dof(tmp_path, pinned, message):
    # under the granite mask (z, roll and pitch pinned) the goal is checked
    # before anything flies, and the error names the maneuver and the axis
    seq = [Maneuver("translate", 0, 0.1, timeout=1.0), pinned]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^maneuver index 1 \\(item 2\\): {message}, which"):
        run_sequence(seq, ControlMode.BASELINE, GRANITE, None, [], out / "traj.csv")
    assert not out.exists()


def test_run_sequence_flies_planar_goals_under_granite_mask(tmp_path):
    # zero steps on pinned axes, yaw, and a goto_pose whose attitude is
    # pure yaw once normalized are all reachable on the table
    seq = [
        Maneuver("translate", 2, 0.0, timeout=0.5),
        Maneuver("rotate", 0, -0.0, timeout=0.5),
        Maneuver("rotate", 2, 0.3, timeout=0.5),
        Maneuver("goto_pose", pose=(0.1, -0.2, 0.0, 2.0, 0.0, -0.0, 0.4), timeout=0.5),
        Maneuver("dock_approach", timeout=0.5),
    ]
    path = tmp_path / "traj.csv"
    outcomes = run_sequence(seq, ControlMode.BASELINE, GRANITE, None, [], path)
    assert [o.ticks for o in outcomes] == [31] * 5
    num = read_log(path)
    for name in ("pz", "qx", "qy", "epz", "erx", "ery"):
        assert not np.any(column(num, name)), name


def _flight_peak_bytes(path, timeout: float) -> int:
    """tracemalloc peak of a PD flight of one maneuver of `timeout` seconds."""
    seq = [Maneuver("translate", 0, 0.2, timeout=timeout)]
    tracemalloc.start()
    try:
        run_sequence(seq, ControlMode.BASELINE, MissionConfig(), None, [], path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_run_sequence_log_memory_independent_of_length(tmp_path):
    # rows go to the log writer process in batches of LOG_BATCH, so the
    # flight holds at most one batch, and one four times as long holds no
    # more memory; 1,875 more rows of 32 float64 would add 480 kB
    short = _flight_peak_bytes(tmp_path / "short.csv", 10.0)
    long = _flight_peak_bytes(tmp_path / "long.csv", 40.0)
    assert abs(long - short) < 100_000, (short, long)
    assert len(read_log(tmp_path / "long.csv")) == 2500


def test_run_sequence_failure_leaves_no_log(tmp_path):
    # a state that overflows on the second maneuver stops the flight after
    # rows were written; the partial file is deleted
    mc = MissionConfig(EnvConfig(body=BodyParams(mass=1e-320)))
    seq = [Maneuver("translate", 0, 0.0, timeout=1.0), Maneuver("translate", 0, 0.5, timeout=1.0)]
    path = tmp_path / "out" / "traj.csv"
    with pytest.raises(SimulationDivergedError):
        run_sequence(seq, ControlMode.BASELINE, mc, None, [], path)
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("how", ["abort", "cut_short", "cut_in_half"])
def test_log_writer_deletes_open_files_when_not_finished(tmp_path, monkeypatch, how):
    # an abort closes the pipe without a finish, as a sender that dies does.
    # The writer, which ignores SIGINT, writes every whole message sent,
    # keeps the file closed before, deletes the one still open, and exits.
    # A message cut short by an interrupt inside its write, 4 bytes of a
    # finish or half of one that carries rows of the open file, is not
    # whole, and finishes nothing
    rows = make_log_rows(3)
    closed, still_open = tmp_path / "closed.csv", tmp_path / "open.csv"
    log = LogWriter({0: str(still_open), 1: str(closed)})
    os.kill(log._child.pid, signal.SIGINT)
    for key in (0, 1):
        for row in rows.tolist():
            log.row(key, row, "baseline", 5)
    log.close(1)
    if how == "cut_in_half":
        for row in rows.tolist():
            log.row(0, row, "baseline", 6)
    if how != "abort":
        write = os.write

        def cut_short(fd, data):
            write(fd, bytes(data[: 4 if how == "cut_short" else len(data) // 2]))
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "write", cut_short)
        with pytest.raises(KeyboardInterrupt):
            log.finish()
        monkeypatch.setattr(os, "write", write)
    log.abort()
    want = write_log(tmp_path / "want.csv", rows, [("baseline", 5)] * 3).read_bytes()
    assert closed.read_bytes() == want
    assert not still_open.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_system_exit(signum, frame):
    raise SystemExit(128 + signum)


@pytest.mark.parametrize("signum, raised", [
    (signal.SIGTERM, SystemExit),  # how `eval --workers N` stops its workers
    (signal.SIGINT, KeyboardInterrupt),
])
def test_signal_during_writer_fork_stops_writer(tmp_path, monkeypatch, signum, raised):
    # a signal that arrives while the writer is being forked must raise in
    # the sender, once the writer is on record: the writer is reaped, its
    # files are gone, and the exception is the signal's own
    fork = os.fork

    def signalled_fork():
        pid = fork()
        if pid:
            signal.pthread_kill(threading.main_thread().ident, signum)
        return pid

    monkeypatch.setattr(os, "fork", signalled_fork)
    previous = signal.signal(signal.SIGTERM, _raise_system_exit)
    try:
        with pytest.raises(raised):
            LogWriter({0: str(tmp_path / "a.csv"), 1: str(tmp_path / "b.csv")})
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("when", ["opening", "forked"])
@pytest.mark.parametrize("sender", ["flight", "eval"])
def test_signal_while_writer_starts_leaves_no_file_and_no_child(tmp_path, monkeypatch, sender, when):
    # Ctrl-C as a flight starts its writer, or the SIGTERM that stops an
    # eval worker as a chunk starts its writer: while a log file opens, or
    # just after the writer is forked. The signal lands only once the
    # writer is on record in the sender's `try`, which aborts it. It is
    # aimed at the main thread, which holds it: a signal sent to the whole
    # process may reach another thread that does not, as an OpenBLAS one
    signum, raised = {
        "flight": (signal.SIGINT, KeyboardInterrupt), "eval": (signal.SIGTERM, SystemExit),
    }[sender]
    last = tmp_path / ("traj.csv" if sender == "flight" else "episode_0002.csv")

    def signal_self():
        signal.pthread_kill(threading.main_thread().ident, signum)

    if when == "opening":
        def signalled_open(path, *args, **kwargs):
            f = open(path, *args, **kwargs)
            if str(path) == str(last):
                signal_self()
            return f

        monkeypatch.setattr(mission, "open", signalled_open, raising=False)
    else:
        class Signalled(mission.Child):
            def __init__(self, run):
                super().__init__(run)
                signal_self()

        monkeypatch.setattr(mission, "Child", Signalled)
    previous = signal.signal(signal.SIGTERM, _raise_system_exit)
    try:
        with pytest.raises(raised):
            if sender == "flight":
                run_sequence([Maneuver("translate", 0, 0.1, timeout=2.0)], ControlMode.BASELINE,
                             MissionConfig(), None, [], last)
            else:
                evaluate_policy(tiny_net(), EnvConfig(), RewardWeights(), 3, seed=1,
                                logs_dir=tmp_path)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------- metrics


def hand_log():
    """Three rows of a maneuver commanded from the origin to (1, 0, 0)."""
    rows = [
        (0.0, m3.vec3(0.0, 0.0, 0.0), m3.vec3(0.4, 0, 0)),
        (DT, m3.vec3(0.6, 0.2, 0.0), m3.vec3(0.2, 0, 0)),
        (2 * DT, m3.vec3(0.99, 0.0, 0.0), m3.vec3(0.0, 0, 0)),
    ]
    return np.array([
        log_row(
            t,
            state(pos=pos),
            [*(fc * 2), 0.0, 0.0, 0.0],
            [*fc, 0.0, 0.0, 0.0],
            m3.vec3(1.0, 0, 0) - pos,
        )
        for t, pos, fc in rows
    ])


def test_metrics_hand_computed():
    met = metrics_from_log(hand_log(), pos_tol=0.05, ori_tol=0.1, dt=DT)
    assert met.final_pos_err == pytest.approx(0.01)
    np.testing.assert_allclose(met.final_pos_err_axes, [0.01, 0, 0])
    assert met.final_ori_err == 0.0
    # only the last row is inside 0.05, so the suffix starts there
    assert met.settle_time == pytest.approx(2 * DT)
    assert met.max_cross_axis_excursion == pytest.approx(0.2)
    expected_path = np.sqrt(0.6**2 + 0.2**2) + np.sqrt(0.39**2 + 0.2**2)
    assert met.path_length == pytest.approx(expected_path, rel=1e-12)
    assert met.force_impulse == pytest.approx((0.4 + 0.2) * DT, rel=1e-12)
    assert met.torque_impulse == 0.0


def test_metrics_cross_axis_without_displacement():
    # zero commanded displacement (the first row's position error): the
    # excursion is the distance from the entry, the first row's position
    entry = m3.vec3(0.1, -0.2, 0.0)
    log = np.array([
        log_row(k * DT, state(pos=pos), pos_err=entry - pos)
        for k, pos in enumerate([entry, entry + [0.0, 0.3, 0.4], entry])
    ])
    met = metrics_from_log(log, 0.05, 0.1, DT)
    assert met.max_cross_axis_excursion == pytest.approx(0.5)


def test_metrics_empty_log_raises():
    with pytest.raises(ValueError, match="empty"):
        metrics_from_log(np.empty((0, 32)), 0.05, 0.1, DT)


def test_compare_identical_logs_zero_diff(tmp_path):
    # a policy whose mean is exactly zero and a PD law with zero gains both
    # command no wrench, so both flights stay at the entry, 0.2 m short
    net = tiny_net()
    net.actor.weights[-1][:] = 0.0
    net.actor.biases[-1][:] = 0.0
    mc = MissionConfig(gains=PdGains(0.0, 0.0, 0.0, 0.0))
    log_rl, log_pd, rl, base = run_compare(Maneuver("translate", 1, 0.2, 2.0), mc, net, tmp_path)
    assert log_rl.tobytes() == log_pd.tobytes()
    assert rl.final_pos_err == base.final_pos_err == 0.2
    for name in ManeuverMetrics.SCALARS:
        v = getattr(rl, name) - getattr(base, name)
        assert v == 0.0 or (np.isnan(v) and name == "settle_time"), name


def _array_pd(pos, att, lv, av, goal_pos, goal_att, g):
    """The PD law over arrays: world-frame errors, then body-frame wrench."""
    f_world = g.kp_pos * (goal_pos - pos) - g.kd_pos * lv
    ori_body = m3.quat_rotate_inv(att, m3.quat_error(goal_att, att))
    return m3.quat_rotate_inv(att, f_world), g.kp_att * ori_body - g.kd_att * av


def _array_flight(s, maneuver, mode, mc, net=None, fault=None):
    """One maneuver flown tick by tick over arrays from the state s: the
    array goal oracle, env.observe_arrays, the monitor, policy_mean or the
    PD law, np.clip + np.nan_to_num with the slew clamp, and step_arrays.
    Returns (final state as arrays, numeric log rows, their (mode,
    maneuver) labels)."""
    env = mc.env
    lim = env.limits
    start = 0 if fault is None else fault.start_tick
    pos, att, lv, av = map(np.array, s)

    def measured(p, k):
        return p + fault.pos_offset if fault is not None and k >= start else p

    goal_pos, goal_att = array_goal(maneuver, measured(pos, 0), att)
    rows, row_labels = [], []
    cur, trip, armed, hold, prev = mode, 0, False, None, None
    for k in range(int(round(maneuver.timeout / env.dt))):
        meas = measured(pos, k)
        obs = observe_arrays(meas, att, lv, av, goal_pos, m3.quat_error_terms(goal_att), False)
        if cur is ControlMode.RL_POLICY:
            decision, counter = safety_check(obs_norms(obs).tolist(), mc.safety, trip)
            armed = armed or counter == 0
            if armed:
                trip = counter
                if decision is ControlMode.HOLD_FALLBACK:
                    cur = ControlMode.HOLD_FALLBACK
                    hold = (meas.copy(), att.copy())
        if cur is ControlMode.HOLD_FALLBACK:
            force, torque = _array_pd(meas, att, lv, av, *hold, mc.gains)
        elif cur is ControlMode.RL_POLICY:
            a = policy_mean(net, obs)
            force, torque = a[:3] * lim.f_max, a[3:] * lim.tau_max
        else:
            force, torque = _array_pd(meas, att, lv, av, goal_pos, goal_att, mc.gains)
        f = np.clip(force, -lim.f_max, lim.f_max)
        tq = np.clip(torque, -lim.tau_max, lim.tau_max)
        if prev is not None:
            df, dtq = lim.force_rate * env.dt, lim.torque_rate * env.dt
            f = prev[0] + np.clip(f - prev[0], -df, df)
            tq = prev[1] + np.clip(tq - prev[1], -dtq, dtq)
        f = np.nan_to_num(f, nan=0.0, posinf=lim.f_max, neginf=-lim.f_max)
        tq = np.nan_to_num(tq, nan=0.0, posinf=lim.tau_max, neginf=-lim.tau_max)
        row = np.concatenate(
            ([k * env.dt], meas, att, lv, av, force, torque, f, tq, obs[POS_ERR], obs[ORI_ERR])
        )
        rows.append(row)
        row_labels.append((cur.value, 0))
        pos, att, lv, av = step_arrays(
            pos, att, lv, av, f, tq,
            env.body.mass, env.body.inertia_diag, env.body.com_offset,
            env.mask.translation_floats(), env.mask.rotation_floats(), env.dt,
        )
        prev = (f, tq)
    return (pos, att, lv, av), np.array(rows), row_labels


@pytest.mark.parametrize("mode", [ControlMode.RL_POLICY, ControlMode.BASELINE])
def test_slew_limited_faulted_flight_matches_array_oracle(tmp_path, mode):
    mc = MissionConfig(EnvConfig(limits=ActuationLimits(force_rate=0.5, torque_rate=0.2)))
    man = parse_maneuver_spec("translate:x:0.5:30")
    fault = FaultSpec(0, 1000, m3.vec3(0.5, 0.0, 0.0))
    net, _ = load_policy(REFERENCE_CKPT)
    path = tmp_path / "flight.csv"
    final, out = fly(state(), man, mode, mc, net=net, log_path=path, fault=fault)
    want_final, want_rows, want_labels = _array_flight(state(), man, mode, mc, net=net, fault=fault)

    write_log(tmp_path / "oracle.csv", want_rows, want_labels)
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    for got, want in zip(final, want_final):
        assert np.array(got).tobytes() == want.tobytes()
    # the slew clamp binds on some ticks: applied force differs from the
    # magnitude-clamped command
    log = read_log(path)
    commanded = np.clip(columns(log, ["Fx", "Fy", "Fz"]), -mc.env.limits.f_max, mc.env.limits.f_max)
    assert np.any(columns(log, ["Fcx", "Fcy", "Fcz"]) != commanded)
    if mode is ControlMode.RL_POLICY:
        assert out.outcome == "fallback_triggered"
        assert "hold_fallback" in labels(path)[0]


def test_body_frame_policy_reads_body_frame_observation(tmp_path):
    net, _ = load_policy(REFERENCE_CKPT)
    start = state(att=m3.quat_from_rotvec(m3.vec3(0.2, -0.4, 0.7)))
    man = Maneuver("translate", 1, 0.3, timeout=1.0)
    goal = goal_for_maneuver(man, start[0], start[1])
    lim = EnvConfig().limits
    scale = np.array([lim.f_max] * 3 + [lim.tau_max] * 3)
    first_cmd = {}
    for body_frame in (False, True):
        path = tmp_path / f"body_frame_{body_frame}.csv"
        mc = MissionConfig(EnvConfig(body_frame_obs=body_frame))
        fly(start, man, ControlMode.RL_POLICY, mc, net=net, log_path=path)
        log = read_log(path)
        first_cmd[body_frame] = columns(log, ["Fx", "Fy", "Fz", "Tx", "Ty", "Tz"])[0]
        want = policy_mean(net, obs_of(start, *goal, body_frame=body_frame)) * scale
        assert first_cmd[body_frame].tobytes() == want.tobytes()
        # the logged errors stay world-frame either way
        np.testing.assert_array_equal(
            columns(log, ["epx", "epy", "epz", "erx", "ery", "erz"])[0],
            obs_of(start, *goal)[:6],
        )
    assert not np.array_equal(first_cmd[False], first_cmd[True])


def test_run_compare_same_entry_both_logs(tmp_path):
    mc = MissionConfig()
    man = Maneuver("translate", 0, 0.1, timeout=20.0)
    log_rl, log_pd, rl, base = run_compare(man, mc, tiny_net(), tmp_path)
    assert len(log_rl) == len(log_pd) == int(round(20.0 / DT))
    # the logs returned are the files written, read back
    assert log_rl.tobytes() == read_log(tmp_path / "rl_trajectory.csv").tobytes()
    assert log_pd.tobytes() == read_log(tmp_path / "baseline_trajectory.csv").tobytes()
    assert labels(tmp_path / "rl_trajectory.csv")[0] == ["rl_policy"] * len(log_rl)
    assert labels(tmp_path / "baseline_trajectory.csv")[0] == ["baseline"] * len(log_pd)
    # each side's metrics are those of its own log, whose first row holds
    # the entry (the origin) and the commanded displacement
    for log, met in ((log_rl, rl), (log_pd, base)):
        assert columns(log, ["px", "py", "pz"])[0].tolist() == [0.0, 0.0, 0.0]
        assert columns(log, ["epx", "epy", "epz"])[0].tolist() == [0.1, 0.0, 0.0]
        want = metrics_from_log(log, mc.env.success_pos_tol, mc.env.success_ori_tol, DT)
        assert repr(met) == repr(want)
    assert base.final_pos_err < 0.01
    # the near-zero random policy goes nowhere, so PD wins on final error
    assert rl.final_pos_err > base.final_pos_err


# ------------------------------------------------------------- parsing


def test_parse_translate_tokens():
    man = parse_maneuver_tokens(["translate", "x", "0.5", "30"], "seq.txt", 1)
    assert (man.kind, man.axis, man.magnitude, man.timeout) == ("translate", 0, 0.5, 30.0)
    assert not man.resume and man.note == ""


def test_parse_rotate_degrees_to_radians():
    man = parse_maneuver_tokens(["rotate", "z", "-20", "20"], "seq.txt", 1)
    assert man.axis == 2
    assert man.magnitude == pytest.approx(np.deg2rad(-20.0))


def test_parse_flags():
    man = parse_maneuver_tokens(["dock_approach", "30", "resume"], "seq.txt", 1)
    assert man.resume
    man = parse_maneuver_tokens(["dock", "30", "los"], "seq.txt", 1)
    assert man.note == "loss_of_signal"
    man = parse_maneuver_tokens(["dock", "30", "resume", "los"], "seq.txt", 1)
    assert man.resume and man.note == "loss_of_signal"


def test_parse_goto_pose():
    man = parse_maneuver_tokens(
        ["goto_pose", "1", "2", "3", "1", "0", "0", "0", "25"], "seq.txt", 1
    )
    assert man.pose == (1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0)
    assert man.timeout == 25.0


def test_parse_timeout_is_optional():
    cases = [
        (["translate", "x", "0.5"], ["translate", "x", "0.5", "30"]),
        (["rotate", "z", "-20", "resume"], ["rotate", "z", "-20", "30", "resume"]),
        (["goto_pose", "1", "2", "3", "1", "0", "0", "0"],
         ["goto_pose", "1", "2", "3", "1", "0", "0", "0", "30"]),
        (["dock"], ["dock", "30"]),
        (["dock_approach", "los"], ["dock_approach", "30", "los"]),
    ]
    for short, full in cases:
        man = parse_maneuver_tokens(short, "seq.txt", 1)
        assert man == parse_maneuver_tokens(full, "seq.txt", 2)
        assert man.timeout == Maneuver("dock").timeout == 30.0


def test_parse_errors_name_location():
    with pytest.raises(ValueError, match=r"seq\.txt:3: translate needs: axis magnitude \[timeout\]"):
        parse_maneuver_tokens(["translate", "x", "0.5", "30", "40"], "seq.txt", 3)
    with pytest.raises(ValueError, match=r"seq\.txt:4: translate needs"):
        parse_maneuver_tokens(["translate", "x"], "seq.txt", 4)
    with pytest.raises(ValueError, match=r"dock needs: \[timeout\]"):
        parse_maneuver_tokens(["dock", "30", "40"], "seq.txt", 1)
    with pytest.raises(ValueError, match="goto_pose needs: px py pz qw qx qy qz"):
        parse_maneuver_tokens(["goto_pose", "1", "2", "3"], "seq.txt", 1)
    with pytest.raises(ValueError, match="axis must be x, y or z"):
        parse_maneuver_tokens(["translate", "q", "0.5", "30"], "seq.txt", 1)
    with pytest.raises(ValueError, match="unknown maneuver kind"):
        parse_maneuver_tokens(["slide", "x", "0.5", "30"], "seq.txt", 1)
    with pytest.raises(ValueError, match="bad number"):
        parse_maneuver_tokens(["translate", "x", "fast", "30"], "seq.txt", 1)
    with pytest.raises(ValueError, match="empty"):
        parse_maneuver_tokens([], "seq.txt", 1)


def test_parse_maneuver_spec_colon_form():
    man = parse_maneuver_spec("rotate:z:45:15")
    assert man.magnitude == pytest.approx(np.deg2rad(45.0))
    assert man.timeout == 15.0


def test_parse_sequence_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(
        "# demo sequence\n"
        "translate x 0.5 30\n"
        "\n"
        "rotate z -20 20   # comment at end\n"
        "dock 30 resume\n"
    )
    seq = parse_sequence_file(path)
    assert [m.kind for m in seq] == ["translate", "rotate", "dock"]
    assert seq[2].resume
    bad = tmp_path / "bad.txt"
    bad.write_text("translate x 0.5 30\nrotate w 5 5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        parse_sequence_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no maneuvers"):
        parse_sequence_file(empty)


def test_parse_faults_file(tmp_path):
    path = tmp_path / "faults.txt"
    path.write_text("# one fault\npos_offset 5 400 0.5 0 0\n")
    faults = parse_faults_file(path)
    assert len(faults) == 1
    assert faults[0].maneuver_index == 5 and faults[0].start_tick == 400
    np.testing.assert_array_equal(faults[0].pos_offset, [0.5, 0, 0])
    bad = tmp_path / "bad.txt"
    bad.write_text("vel_offset 5 400 0.5 0 0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        parse_faults_file(bad)
    bad.write_text("pos_offset 5 400 0.5 0\n")
    with pytest.raises(ValueError, match="expected"):
        parse_faults_file(bad)
    bad.write_text("pos_offset 5 nope 0.5 0 0\n")
    with pytest.raises(ValueError, match="bad fault values"):
        parse_faults_file(bad)


def test_stock_sequence_shape():
    # the shipped file `replay` flies: undock, two Z rotations, a second leg
    # out, then two approach-and-dock attempts back at the entry pose
    seq = parse_sequence_file(STOCK_SEQUENCE)
    assert [m.kind for m in seq] == [
        "translate", "rotate", "rotate", "translate",
        "dock_approach", "dock", "dock_approach", "dock",
    ]
    assert [m.timeout for m in seq] == [30.0, 20.0, 20.0, 30.0, 30.0, 30.0, 30.0, 30.0]
    assert seq[0].magnitude == 0.5 and seq[0].axis == 0
    assert seq[1].magnitude == pytest.approx(-np.deg2rad(20.0))
    assert seq[2].magnitude == pytest.approx(np.deg2rad(20.0))
    assert seq[1].axis == seq[2].axis == 2 and seq[3].axis == 0
    assert seq[6].resume and not any(m.resume for m in seq[:6] + seq[7:])
    assert seq[7].note == "loss_of_signal" and not any(m.note for m in seq[:7])
