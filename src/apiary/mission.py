"""Maneuver sequencing, safety supervision, trajectory logging and metrics.

A maneuver is a goal pose derived from the pose at maneuver entry
(translate/rotate), an absolute pose (goto_pose), or the dock, the start
pose of every flight: the origin at identity attitude (dock;
dock_approach stands DOCK_STANDOFF off it along +X). Each maneuver runs
a fixed-rate closed loop for its full timeout: measure -> observe ->
safety monitor -> controller -> clamp -> log -> propagate. The
observation errors (those of `env.observe_arrays`, the vector the policy
was trained on) are computed once per tick from the measured state; the
policy reads the observation, the logged errors are its slices, and the
monitor's arming test, its trip test and the success streak all read its
four channel norms. With `body_frame_obs` the policy reads the
body-frame observation instead; the log, the monitor and the streak keep
the world-frame errors. Running to timeout (instead of stopping at first
tolerance entry) lets controllers settle fully, so final errors reflect
steady state.

`run_sequence` is the one flight entry. `replay` flies a sequence file
through it, and `run_compare` flies its maneuver through it twice as a
one-maneuver sequence, under the policy and under the PD baseline, so a
compared maneuver logs the same bytes as the replay of that one line.
Every flight starts at rest at the origin with identity attitude;
`run_maneuver` flies one maneuver of a sequence.

A trajectory log exists only as its CSV file: `LOG_HEADER`, then one
`log_line` per control tick (eval's episode logs are the same format).
The flight does not format it: each tick hands its row's float64 values
to a `LogWriter`, a process that formats the rows through `log_line` and
writes them, so formatting runs beside the flight on another core. The
values and each row's (file key, mode, maneuver) int32 triple cross the
pipe in batches, packed `array`s inside one pickled `child.send` message.
`run_sequence` checks the whole sequence (each maneuver's tick count,
and no goal on a DOF the mask pins) and its faults before it touches the
file system; if the flight or the writer fails, the partial log is
deleted, so a failed flight leaves no trajectory file. `run_compare`
reads its two logs back through `read_log` for the metrics once their
writers have finished; every float is written as its `repr`, so the
numbers read back bit for bit.

`MissionConfig` bundles what a flight reads: the `EnvConfig` the policy
was trained in, the safety thresholds and the PD gains. The flight takes
its vehicle, actuation limits, control period, DOF mask, success test
and observation frame from that `EnvConfig`, so it flies what training
simulated. Dock maneuvers succeed inside the fixed `DOCK_POS_TOL`
(0.02 m) and `DOCK_ORI_TOL` (2 degrees) in place of the env's position
and attitude tolerances.

A flight holds its poses as lists of Python floats from the start pose
to the log: the true state as `dynamics.step_f`'s four lists
`(pos, att, lv, av)`, carried from maneuver to maneuver, and each goal
as `(position, attitude)`. `metrics_from_log` reads the entry and the
commanded displacement back from the log's first row. The tick runs on
the single-state kernels: `math3d`'s `*_f` functions,
`baseline.pd_wrench_f`, `actuation.clamp_axes` and `dynamics.step_f`.
`policy_mean` is its only numpy call. Each kernel is bit-identical to
its array twin, so a flight writes the same bytes as stepping arrays
through `env.observe_arrays`, `np.clip` and `dynamics.step_arrays`,
without numpy's per-call overhead on 3- and 4-element arrays.

Safety supervision guards the RL policy only. The monitor arms once the
vehicle first enters the safety envelope around the goal (large commanded
motions start outside it and must not trip); once armed,
trip_consecutive consecutive violating ticks switch control to a
hold-pose fallback on exactly the tick the counter fills, and the log's
mode column shows the switch on that same tick. The fallback captures
the measured pose at the trip and is absorbing for the rest of the
maneuver; a sequence resumes after a fallback only if the very next
entry carries the resume flag, otherwise all remaining entries are
skipped.

Fault injection models a localization anomaly: from a given tick to the
end of its maneuver, the measured position is offset by a constant
vector. Controllers and the monitor see measured state; physics
propagates the true state; the log records the measured state, so logged
errors always recompute exactly from logged state and goal.
"""

from __future__ import annotations

import array
import contextlib
import enum
import functools
import io
import math
import os
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import math3d as m3
from .actuation import clamp_axes
from .baseline import PdGains, pd_wrench_f
from .child import Child, held, receive, send
from .dynamics import DofMask, step_f
from .env import EnvConfig
from .learn.nets import PolicyNet, policy_mean

LOG_COLUMNS = [
    "t",
    "px", "py", "pz",
    "qw", "qx", "qy", "qz",
    "vx", "vy", "vz",
    "wx", "wy", "wz",
    "Fx", "Fy", "Fz",
    "Tx", "Ty", "Tz",
    "Fcx", "Fcy", "Fcz",
    "Tcx", "Tcy", "Tcz",
    "epx", "epy", "epz",
    "erx", "ery", "erz",
    "mode", "maneuver",
]
LOG_HEADER = ",".join(LOG_COLUMNS) + "\r\n"


def log_line(row: list[float], mode: str, maneuver: int) -> str:
    """One trajectory CSV row in the bytes csv.writer wrote: the 32 numeric
    columns as repr, then mode and maneuver, CRLF, no quoting (no field
    holds a comma, quote or newline). Every log file is `LOG_HEADER` and
    then one such line per tick.

    Most rows apply the wrench they command, so when `Fcx..Tcz` equal
    `Fx..Tz` their six reprs are reused, but only when none is zero:
    0.0 == -0.0, and the two reprs differ."""
    commanded = row[14:20]
    if row[20:26] == commanded and all(commanded):
        head = list(map(repr, row[:20]))
        return ",".join(head + head[14:] + list(map(repr, row[26:]))) + f",{mode},{maneuver}\r\n"
    return ",".join(map(repr, row)) + f",{mode},{maneuver}\r\n"

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}
# dock and dock_approach succeed inside these tolerances; the approach
# goal stands DOCK_STANDOFF meters off the dock along +X
DOCK_POS_TOL = 0.02
DOCK_ORI_TOL = float(np.deg2rad(2.0))
DOCK_STANDOFF = 0.3
# the most control ticks one maneuver may run: 66 min at the default dt.
# A log row is about 690 bytes, so this bounds one maneuver's share of the
# trajectory file at about 170 MB
MAX_MANEUVER_TICKS = 250_000
MANEUVER_KINDS = ("translate", "rotate", "goto_pose", "dock_approach", "dock")


class ControlMode(enum.Enum):
    RL_POLICY = "rl_policy"
    BASELINE = "baseline"
    HOLD_FALLBACK = "hold_fallback"


# a row's mode crosses to the log writer as its index here
_LOG_MODES = tuple(m.value for m in ControlMode)
# rows a LogWriter hands over per message: one pipe write per batch, not
# per tick, and at most one batch held by the sender
LOG_BATCH = 256
# a message: (op, file key, rows' float64 values, their (file key, mode,
# maneuver) int32 triples)
_ROWS, _CLOSE, _FINISH = range(3)


class LogWriter:
    """A writer process that formats trajectory rows through `log_line`
    and writes them to their log files, off the process that simulates.

    `LogWriter(paths)` opens each file of `paths` (file key -> path) in
    the calling process, so an open error raises there, then forks the
    writer, which owns the files from then on and starts each with
    `LOG_HEADER`. Each row crosses the pipe as its 32 float64 values and a
    (file key, mode, maneuver) int32 triple, packed in the `array`s of one
    pickled message, so the writer formats the very doubles the sender
    computed; rows go in batches of LOG_BATCH.
    `close(key)` closes one file after the rows handed over before it, and
    `finish()` the rest; it waits for the writer and raises OSError with
    the writer's error if it failed. `abort()` closes the pipe without a
    finish, as a sender that dies does, and waits: the writer then writes
    every whole message already sent, deletes the files still open, and
    exits. A writer that fails also deletes the files still open. The
    writer ignores SIGINT, so an interrupted sender aborts it, and it ends
    with `os._exit`, running none of the sender's exit handlers or buffers.
    A sender creates it under `child.held()`, inside the `try` that aborts
    it, so an interrupt cannot leave a started writer or an opened file.
    """

    def __init__(self, paths: dict[int, str]) -> None:
        files: dict[int, TextIO] = {}
        try:
            for key, path in paths.items():
                files[key] = open(path, "w", newline="")
            self._child = Child(functools.partial(_write_logs, files=files))
        except BaseException:
            for f in files.values():
                f.close()
                # a writer that was started has deleted them as it stopped
                with contextlib.suppress(FileNotFoundError):
                    os.remove(f.name)
            raise
        for f in files.values():
            f.close()  # nothing written yet: the writer holds its own copies
        self._values = array.array("d")
        self._keys = array.array("i")

    def row(self, key: int, row: list[float], mode: str, maneuver: int) -> None:
        """Hand over one row for file `key`, as `log_line(row, mode,
        maneuver)` will format it."""
        self._values.extend(row)
        self._keys.extend((key, _LOG_MODES.index(mode), maneuver))
        if len(self._keys) >= 3 * LOG_BATCH:
            self._send(_ROWS)

    def rows(self, table: np.ndarray, keys: np.ndarray, mode: str, maneuvers: np.ndarray) -> None:
        """Hand over the rows of the (n, 32) float64 `table`, row i for file
        `keys[i]`, as `log_line(table[i], mode, maneuvers[i])` will format it."""
        triples = np.empty((len(keys), 3), dtype=np.int32)
        triples[:, 0] = keys
        triples[:, 1] = _LOG_MODES.index(mode)
        triples[:, 2] = maneuvers
        self._values.frombytes(np.asarray(table, dtype=np.float64).tobytes())
        self._keys.frombytes(triples.tobytes())
        if len(self._keys) >= 3 * LOG_BATCH:
            self._send(_ROWS)

    def close(self, key: int) -> None:
        """Close file `key` once the rows handed over so far are written."""
        self._send(_CLOSE, key)

    def finish(self) -> None:
        """Write every row handed over, close every file and wait for the
        writer; raise OSError if it failed (its open files are deleted)."""
        self._send(_FINISH)
        error = self._reap()
        if error:
            raise OSError(f"trajectory log writer: {error}")

    def abort(self) -> None:
        """Have the writer delete the files still open, and wait for it.
        Rows not yet sent are dropped; they belong to those files. A
        message cut short (an interrupt inside a send) is dropped too."""
        if self._child.pid is not None:
            self._reap()

    def _send(self, op: int, key: int = 0) -> None:
        try:
            send(self._child.pipe, (op, key, self._values, self._keys))
        except BrokenPipeError:
            # the writer stopped on an error of its own: report that
            error = self._reap()
            raise OSError(f"trajectory log writer: {error or 'stopped'}") from None
        del self._values[:], self._keys[:]

    def _reap(self) -> str:
        """Close the pipe, wait for the writer, and return its error
        message ("" if it exited cleanly)."""
        ended = self._child.reap()
        with open(self._child.out, "rb") as f:
            error = f.read().decode()
        return error or ended


def _write_logs(rows_fd: int, status_fd: int, files: dict[int, TextIO]) -> int:
    """The writer process: format and write rows until a finish or the end
    of the pipe, and return its exit code. On anything but a finish the
    files still open are deleted; an error's text goes to `status_fd`."""
    code = 1
    try:
        with open(rows_fd, "rb") as pipe:
            for f in files.values():
                f.write(LOG_HEADER)
            while True:
                message = receive(pipe)
                if message is None:
                    break  # aborted, or the sender died, without a finish
                op, key, values, keys = message
                values, keys = iter(values.tolist()), iter(keys.tolist())
                # each row as a 32-tuple, each key as a 3-tuple
                for row, (file_key, mode, maneuver) in zip(zip(*[values] * 32), zip(*[keys] * 3)):
                    files[file_key].write(log_line(row, _LOG_MODES[mode], maneuver))
                if op == _CLOSE:
                    files[key].close()
                    del files[key]
                elif op == _FINISH:
                    for key in list(files):
                        files[key].close()
                        del files[key]
                    code = 0
                    break
    except Exception as e:  # any failure: the sender reports it
        text = str(e) if isinstance(e, OSError) else f"{type(e).__name__}: {e}"
        with contextlib.suppress(OSError):
            os.write(status_fd, text.encode())
    finally:
        for f in files.values():
            with contextlib.suppress(OSError):
                f.close()
            with contextlib.suppress(OSError):
                os.remove(f.name)
    return code


@dataclass(frozen=True)
class SafetyThresholds:
    max_pos_err: float = 0.25
    max_ori_err: float = float(np.deg2rad(30.0))
    max_lin_vel: float = 0.5
    max_ang_vel: float = 1.0
    trip_consecutive: int = 3

    def __post_init__(self) -> None:
        if min(self.max_pos_err, self.max_ori_err, self.max_lin_vel, self.max_ang_vel) <= 0.0:
            raise ValueError("safety thresholds must be positive")
        if self.trip_consecutive < 1:
            raise ValueError("trip_consecutive must be >= 1")


@dataclass(frozen=True)
class Maneuver:
    kind: str
    axis: int | None = None
    magnitude: float = 0.0  # meters for translate, radians for rotate
    timeout: float = 30.0
    pose: tuple | None = None  # goto_pose target: (px,py,pz,qw,qx,qy,qz)
    resume: bool = False
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in MANEUVER_KINDS:
            raise ValueError(f"unknown maneuver kind {self.kind!r}")
        if not all(map(math.isfinite, (self.magnitude, self.timeout, *(self.pose or ())))):
            raise ValueError("magnitude, timeout and pose must be finite")
        if self.timeout <= 0.0:
            raise ValueError("timeout must be positive")
        if self.kind in ("translate", "rotate"):
            if self.axis not in (0, 1, 2):
                raise ValueError(f"{self.kind} needs axis 0, 1 or 2")
        if self.kind == "goto_pose":
            if self.pose is None or len(self.pose) != 7:
                raise ValueError("goto_pose needs 7 numbers: px py pz qw qx qy qz")


@dataclass(frozen=True)
class FaultSpec:
    """Constant measured-position offset from start_tick to maneuver end."""

    maneuver_index: int
    start_tick: int
    pos_offset: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pos_offset", np.asarray(self.pos_offset, dtype=np.float64)
        )
        if self.maneuver_index < 0 or self.start_tick < 0:
            raise ValueError("maneuver_index and start_tick must be >= 0")
        if self.pos_offset.shape != (3,) or not np.all(np.isfinite(self.pos_offset)):
            raise ValueError("pos_offset must be a finite 3-vector")


@dataclass(frozen=True)
class MissionConfig:
    """What a flight reads: the trained environment, the monitor's
    thresholds and the PD gains (see the module docstring)."""

    env: EnvConfig = field(default_factory=EnvConfig)
    safety: SafetyThresholds = field(default_factory=SafetyThresholds)
    gains: PdGains = field(default_factory=PdGains)


@dataclass
class ManeuverOutcome:
    """One maneuver's result: `outcome` is success, fallback_triggered,
    timeout or skipped, and `settle_time` runs from the maneuver's start
    to the start of its final in-tolerance streak. A skipped maneuver
    keeps the defaults."""

    index: int
    kind: str
    outcome: str
    note: str
    ticks: int = 0
    settle_time: float = float("nan")
    final_pos_err: float = float("nan")
    final_ori_err: float = float("nan")
    end_mode: str = ""


def safety_check(
    norms, thresholds: SafetyThresholds, trip_counter: int
) -> tuple[ControlMode | None, int]:
    """Threshold monitor step: (decision, updated counter).

    `norms` holds the measured channel norms (|e_p|, |e_o|, |v|, |w|), as
    `env.obs_norms` gives them. The counter rises by one on a tick where
    any of position error, orientation error, speed or angular speed
    exceeds its limit, and resets to zero on a clean tick. Decision is
    HOLD_FALLBACK once the counter reaches trip_consecutive, else None
    (keep the current mode).
    """
    pos_err, ori_err, speed, rate = norms
    violated = (
        pos_err > thresholds.max_pos_err
        or ori_err > thresholds.max_ori_err
        or speed > thresholds.max_lin_vel
        or rate > thresholds.max_ang_vel
    )
    counter = trip_counter + 1 if violated else 0
    decision = ControlMode.HOLD_FALLBACK if counter >= thresholds.trip_consecutive else None
    return decision, counter


def goal_for_maneuver(
    maneuver: Maneuver, entry_pos: list[float], entry_att: list[float]
) -> tuple[list[float], list[float]]:
    """Resolve a maneuver to an absolute goal (position, attitude).

    translate/rotate are relative to the entry pose; goto_pose is absolute;
    dock targets the start pose of every flight, the origin at identity
    attitude, and dock_approach stands DOCK_STANDOFF off it along +X.
    """
    if maneuver.kind == "translate":
        goal_pos = [p + (maneuver.magnitude if i == maneuver.axis else 0.0)
                    for i, p in enumerate(entry_pos)]
        return goal_pos, list(entry_att)
    if maneuver.kind == "rotate":
        half = 0.5 * maneuver.magnitude
        s = float(np.sin(half))
        # 0.0 * s, not 0.0: an off-axis component is a signed zero
        dq = [float(np.cos(half)), 0.0 * s, 0.0 * s, 0.0 * s]
        dq[1 + maneuver.axis] = s
        return list(entry_pos), m3.quat_mul_f(entry_att, m3.quat_normalize_f(dq))
    if maneuver.kind == "goto_pose":
        pose = [float(v) for v in maneuver.pose]
        return pose[:3], m3.quat_normalize_f(pose[3:])
    if maneuver.kind == "dock_approach":
        return [DOCK_STANDOFF, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]
    return [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]


def _maneuver_ticks(maneuver: Maneuver, index: int, dt: float) -> int:
    """Control ticks a maneuver runs for: its whole timeout at rate 1/dt.
    Raises ValueError, naming the maneuver's index, when that is 0 ticks
    or more than MAX_MANEUVER_TICKS."""
    n_ticks = int(round(maneuver.timeout / dt))
    if n_ticks == 0:
        raise ValueError(
            f"maneuver index {index}: timeout {maneuver.timeout} s "
            f"rounds to 0 ticks at dt {dt} s"
        )
    if n_ticks > MAX_MANEUVER_TICKS:
        raise ValueError(
            f"maneuver index {index}: timeout {maneuver.timeout} s is {n_ticks} ticks "
            f"at dt {dt} s, more than the {MAX_MANEUVER_TICKS} a maneuver may run"
        )
    return n_ticks


def run_maneuver(
    state: tuple[list[float], list[float], list[float], list[float]],
    maneuver: Maneuver,
    mode: ControlMode,
    mc: MissionConfig,
    net: PolicyNet | None,
    log: LogWriter,
    maneuver_index: int,
    fault: FaultSpec | None,
    t0_tick: int,
) -> tuple[tuple[list[float], list[float], list[float], list[float]], ManeuverOutcome]:
    """Run one maneuver of a sequence for its full timeout at the control
    rate, handing each tick's row, mode and maneuver index to `log` as file
    0's row, from tick `t0_tick` on. `state` is the true state as step_f's
    four lists (pos, att, lv, av).

    Outcome is success when the maneuver's tolerance condition is true for
    the final hold_steps ticks, fallback_triggered if the safety monitor
    tripped, else timeout. Returns the true final state; the log records
    measured state. Raises ValueError for a timeout that rounds to 0 ticks
    or to more than MAX_MANEUVER_TICKS.
    """
    if mode not in (ControlMode.RL_POLICY, ControlMode.BASELINE):
        raise ValueError("run_maneuver starts in RL_POLICY or BASELINE mode")
    if mode is ControlMode.RL_POLICY and net is None:
        raise ValueError("RL_POLICY mode needs a loaded policy")
    env = mc.env
    dt = env.dt
    n_ticks = _maneuver_ticks(maneuver, maneuver_index, dt)

    pos, att, lv, av = state
    # the measured position is pos + offset on ticks k >= fault_tick
    fault_tick = fault.start_tick if fault is not None else n_ticks + 1
    offset = fault.pos_offset.tolist() if fault is not None else None

    entry_pos = [pos[i] + offset[i] for i in range(3)] if fault_tick <= 0 else pos
    goal_pos, goal_att = goal_for_maneuver(maneuver, entry_pos, att)

    if maneuver.kind in ("dock", "dock_approach"):
        pos_tol, ori_tol = DOCK_POS_TOL, DOCK_ORI_TOL
    else:
        pos_tol, ori_tol = env.success_pos_tol, env.success_ori_tol
    vel_tol, angvel_tol = env.success_vel_tol, env.success_angvel_tol
    body_frame_obs, hold_steps = env.body_frame_obs, env.hold_steps

    lim, gains, safety = env.limits, mc.gains, mc.safety
    body, quat_error_f, vec_norm_f = env.body, m3.quat_error_f, m3.vec_norm_f
    mass, inertia, com = float(body.mass), body.inertia_diag.tolist(), body.com_offset.tolist()
    tmask, rmask = env.mask.translation_floats().tolist(), env.mask.rotation_floats().tolist()
    cur_mode = mode
    trip_count = 0
    armed = False
    hold_pos = hold_att = None
    streak = 0
    streak_start = -1
    prev_force = prev_torque = None

    for k in range(n_ticks):
        meas_pos = [pos[i] + offset[i] for i in range(3)] if k >= fault_tick else pos
        # the observation's error channels (env.observe_arrays, world frame)
        pos_err = [goal_pos[i] - meas_pos[i] for i in range(3)]
        ori_err = quat_error_f(goal_att, att)
        norms = (vec_norm_f(pos_err), vec_norm_f(ori_err), vec_norm_f(lv), vec_norm_f(av))

        if cur_mode is ControlMode.RL_POLICY:
            # the monitor arms on the first tick inside the envelope; until
            # then a violating tick neither counts nor trips
            decision, counter = safety_check(norms, safety, trip_count)
            armed = armed or counter == 0
            if armed:
                trip_count = counter
                if decision is ControlMode.HOLD_FALLBACK:
                    cur_mode = ControlMode.HOLD_FALLBACK
                    hold_pos, hold_att = list(meas_pos), list(att)

        if cur_mode is ControlMode.HOLD_FALLBACK:
            force, torque = pd_wrench_f(
                [hold_pos[i] - meas_pos[i] for i in range(3)], quat_error_f(hold_att, att),
                att, lv, av, gains,
            )
        elif cur_mode is ControlMode.RL_POLICY:
            if body_frame_obs:
                obs = (m3.quat_rotate_inv_f(att, pos_err) + m3.quat_rotate_inv_f(att, ori_err)
                       + m3.quat_rotate_inv_f(att, lv) + av)
            else:
                obs = pos_err + ori_err + lv + av
            a = policy_mean(net, obs).tolist()
            force = [a[0] * lim.f_max, a[1] * lim.f_max, a[2] * lim.f_max]
            torque = [a[3] * lim.tau_max, a[4] * lim.tau_max, a[5] * lim.tau_max]
        else:
            force, torque = pd_wrench_f(pos_err, ori_err, att, lv, av, gains)
        applied_force = clamp_axes(force, prev_force, lim.f_max, lim.force_rate, dt)
        applied_torque = clamp_axes(torque, prev_torque, lim.tau_max, lim.torque_rate, dt)

        log.row(
            0,
            [(t0_tick + k) * dt, *meas_pos, *att, *lv, *av, *force, *torque,
             *applied_force, *applied_torque, *pos_err, *ori_err],
            cur_mode.value, maneuver_index,
        )

        pe, oe, speed, rate = norms
        if (
            cur_mode is not ControlMode.HOLD_FALLBACK
            and pe <= pos_tol
            and oe <= ori_tol
            and speed <= vel_tol
            and rate <= angvel_tol
        ):
            if streak == 0:
                streak_start = k
            streak += 1
        else:
            streak = 0

        pos, att, lv, av = step_f(
            pos, att, lv, av, applied_force, applied_torque,
            mass, inertia, com, tmask, rmask, dt,
        )
        prev_force, prev_torque = applied_force, applied_torque

    if cur_mode is ControlMode.HOLD_FALLBACK:
        outcome = "fallback_triggered"
    elif streak >= hold_steps:
        outcome = "success"
    else:
        outcome = "timeout"
    meas_pos = [pos[i] + offset[i] for i in range(3)] if n_ticks > fault_tick else pos
    out = ManeuverOutcome(
        index=maneuver_index,
        kind=maneuver.kind,
        outcome=outcome,
        ticks=n_ticks,
        settle_time=streak_start * dt if outcome == "success" else float("nan"),
        final_pos_err=vec_norm_f([goal_pos[i] - meas_pos[i] for i in range(3)]),
        final_ori_err=vec_norm_f(quat_error_f(goal_att, att)),
        end_mode=cur_mode.value,
        note=maneuver.note,
    )
    return (pos, att, lv, av), out


def _faults_by_maneuver(
    sequence: list[Maneuver], faults: list[FaultSpec], dt: float
) -> dict[int, FaultSpec]:
    """Index faults by maneuver, rejecting any that could never fire."""
    by_index: dict[int, FaultSpec] = {}
    for f in faults:
        where = f"fault at maneuver index {f.maneuver_index}, tick {f.start_tick}"
        if f.maneuver_index >= len(sequence):
            raise ValueError(
                f"{where}: the sequence has only {len(sequence)} maneuvers "
                f"(indices 0..{len(sequence) - 1})"
            )
        n_ticks = _maneuver_ticks(sequence[f.maneuver_index], f.maneuver_index, dt)
        if f.start_tick >= n_ticks:
            raise ValueError(
                f"{where}: that maneuver runs ticks 0..{n_ticks - 1}, so the fault never fires"
            )
        if f.maneuver_index in by_index:
            raise ValueError(
                f"{where}: maneuver index {f.maneuver_index} already has a fault "
                f"at tick {by_index[f.maneuver_index].start_tick}; one fault per maneuver"
            )
        by_index[f.maneuver_index] = f
    return by_index


def _check_reachable(maneuver: Maneuver, index: int, mask: DofMask) -> None:
    """Raise ValueError, naming the maneuver's index and the axis, for a
    goal with a component on a DOF the mask pins. A flight starts at the
    origin at identity attitude and never moves a pinned DOF, so a goal is
    reachable when, resolved from that start, its position and its
    attitude's vector part are zero on every pinned DOF."""
    pos, att = goal_for_maneuver(maneuver, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    for what, move, free in (
        ("translation along", pos, mask.free_translation),
        ("rotation about", att[1:], mask.free_rotation),
    ):
        for axis in range(3):
            if move[axis] != 0.0 and not free[axis]:
                raise ValueError(
                    f"maneuver index {index} (item {index + 1}): {maneuver.kind} asks for "
                    f"{what} {'xyz'[axis]}, which the DOF mask pins"
                )


def run_sequence(
    sequence: list[Maneuver],
    mode: ControlMode,
    mc: MissionConfig,
    net: PolicyNet | None,
    faults: list[FaultSpec],
    log_path,
) -> list[ManeuverOutcome]:
    """Execute maneuvers in order with pause-on-fallback semantics, logging
    every tick to the trajectory CSV `log_path`; returns the outcomes.

    The sequence starts at rest at the origin with identity attitude, the
    pose the dock maneuvers target. After a fallback_triggered
    outcome the sequence runs the next entry only if it carries the resume
    flag; otherwise that entry and everything after it is skipped.
    Raises ValueError, before it touches the file system, for a maneuver
    that runs 0 ticks or more than MAX_MANEUVER_TICKS, a goal on a DOF the
    mask pins, a fault past the end of the sequence, a second fault for
    one maneuver, or a start tick at or past the maneuver's tick count.
    Then it creates `log_path`'s directory, opens the log, starts its
    `LogWriter` and flies, handing the rows over in batches. It returns once
    the writer has written and closed the whole log; if the flight or the
    writer fails, the partial log is deleted.
    """
    if not sequence:
        raise ValueError("sequence must not be empty")
    for i, man in enumerate(sequence):
        _maneuver_ticks(man, i, mc.env.dt)
        _check_reachable(man, i, mc.env.mask)
    fault_by_index = _faults_by_maneuver(sequence, faults, mc.env.dt)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    state = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    outcomes: list[ManeuverOutcome] = []
    tick = 0
    paused = False
    aborted = False
    log = None
    try:
        with held():
            log = LogWriter({0: log_path})
        for i, man in enumerate(sequence):
            if aborted or (paused and not man.resume):
                aborted = True
                outcomes.append(ManeuverOutcome(i, man.kind, "skipped", man.note))
                continue
            paused = False
            state, out = run_maneuver(
                state, man, mode, mc,
                net, log, i, fault_by_index.get(i), tick,
            )
            tick += out.ticks
            outcomes.append(out)
            if out.outcome == "fallback_triggered":
                paused = True
        log.finish()
    except BaseException:
        if log is not None:
            log.abort()
            # an interrupt while finishing leaves a whole log, but no outcomes
            with contextlib.suppress(FileNotFoundError):
                os.remove(log_path)
        raise
    return outcomes


@dataclass
class ManeuverMetrics:
    final_pos_err_axes: list[float]
    final_pos_err: float
    final_ori_err: float
    settle_time: float
    max_cross_axis_excursion: float
    path_length: float
    force_impulse: float
    torque_impulse: float

    SCALARS = (
        "final_pos_err",
        "final_ori_err",
        "settle_time",
        "max_cross_axis_excursion",
        "path_length",
        "force_impulse",
        "torque_impulse",
    )


def metrics_from_log(
    num: np.ndarray, pos_tol: float, ori_tol: float, dt: float
) -> ManeuverMetrics:
    """Scalar maneuver metrics from the (n, 32) numeric columns of one
    maneuver's log, as `read_log` gives them. Its entry is
    the first logged position, and its commanded displacement the first
    logged position error (goal - entry).

    Settle time is measured from the log's first row to the start of the
    suffix where position and orientation errors stay within tolerance.
    Cross-axis excursion is the largest position component perpendicular
    to the commanded displacement (or total displacement from entry when
    the maneuver commands none). Each row's post-clamp wrench is taken to
    act for one dt when integrating control effort.
    """
    if len(num) == 0:
        raise ValueError("empty log")
    t = num[:, 0]
    pos = num[:, 1:4]
    pos_err = num[:, 26:29]
    ori_err = num[:, 29:32]
    fc = num[:, 20:23]
    tc = num[:, 23:26]

    pe = m3.vec_norm(pos_err)
    oe = m3.vec_norm(ori_err)
    inside = (pe <= pos_tol) & (oe <= ori_tol)
    settle = float("nan")
    if inside[-1]:
        # walk back to the start of the final in-tolerance suffix
        idx = len(inside) - 1
        while idx > 0 and inside[idx - 1]:
            idx -= 1
        settle = float(t[idx] - t[0])

    entry = pos[0]
    disp = pos_err[0]
    dn = float(m3.vec_norm(disp))
    rel = pos - entry
    if dn > 1e-9:
        u = disp / dn
        along = rel @ u
        perp = rel - along[:, None] * u
        cross = float(np.max(m3.vec_norm(perp)))
    else:
        cross = float(np.max(m3.vec_norm(rel)))

    deltas = np.diff(pos, axis=0)
    path = float(np.sum(m3.vec_norm(deltas))) if len(pos) > 1 else 0.0
    return ManeuverMetrics(
        final_pos_err_axes=pos_err[-1].tolist(),
        final_pos_err=float(pe[-1]),
        final_ori_err=float(oe[-1]),
        settle_time=settle,
        max_cross_axis_excursion=cross,
        path_length=path,
        force_impulse=float(np.sum(m3.vec_norm(fc)) * dt),
        torque_impulse=float(np.sum(m3.vec_norm(tc)) * dt),
    )


def read_log(path) -> np.ndarray:
    """The 32 numeric columns of the trajectory CSV at `path`, as an (n, 32)
    float64 array in schema order. Rejects another header and a time that
    does not strictly increase."""
    with open(path, newline="") as f:
        if f.readline().rstrip("\r\n").split(",") != LOG_COLUMNS:
            raise ValueError(f"{path}: unexpected trajectory log header")
        num = np.loadtxt(f, delimiter=",", usecols=range(32), ndmin=2)
    t = num[:, 0]
    k = np.flatnonzero(~(np.diff(t) > 0))
    if k.size:
        raise ValueError(f"{path}: log time must strictly increase: {t[k[0] + 1]} after {t[k[0]]}")
    return num


def run_compare(
    maneuver: Maneuver, mc: MissionConfig, net: PolicyNet, out_dir
) -> tuple[np.ndarray, np.ndarray, ManeuverMetrics, ManeuverMetrics]:
    """Fly one maneuver as a one-maneuver sequence twice, policy vs PD, into
    `rl_trajectory.csv` and `baseline_trajectory.csv` in `out_dir`: (policy
    log, PD log, policy metrics, PD metrics), each log as `read_log` reads
    its file back."""
    rl_path = os.path.join(out_dir, "rl_trajectory.csv")
    pd_path = os.path.join(out_dir, "baseline_trajectory.csv")
    run_sequence([maneuver], ControlMode.RL_POLICY, mc, net, [], rl_path)
    run_sequence([maneuver], ControlMode.BASELINE, mc, None, [], pd_path)
    log_rl, log_pd = read_log(rl_path), read_log(pd_path)
    env = mc.env
    tols = (env.success_pos_tol, env.success_ori_tol, env.dt)
    return log_rl, log_pd, metrics_from_log(log_rl, *tols), metrics_from_log(log_pd, *tols)


def _parse_error(path, line_no: int, msg: str) -> ValueError:
    return ValueError(f"{path}:{line_no}: {msg}")


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at `path`, newlines read as `open`
    reads them. A byte that is not UTF-8 raises ValueError naming
    `path:line`; the position in its message is the file offset."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _parse_error(path, data.count(b"\n", 0, e.start) + 1, str(e)) from None
    return io.StringIO(text, newline=None).readlines()


_MANEUVER_ARGS = {
    "translate": ("axis", "magnitude"),
    "rotate": ("axis", "magnitude"),
    "goto_pose": ("px", "py", "pz", "qw", "qx", "qy", "qz"),
}


def parse_maneuver_tokens(tokens: list[str], path, line_no: int) -> Maneuver:
    """Parse one maneuver from tokens: kind [args] [timeout] [resume] [los].

    translate/rotate take an axis letter and a magnitude (meters, or
    degrees for rotate); goto_pose takes px py pz qw qx qy qz; dock kinds
    take no arguments. A missing timeout means Maneuver's default, 30 s.
    """
    if not tokens:
        raise _parse_error(path, line_no, "empty maneuver")
    kind = tokens[0]
    if kind not in MANEUVER_KINDS:
        raise _parse_error(path, line_no, f"unknown maneuver kind {kind!r}")
    flags = []
    rest = list(tokens[1:])
    while rest and rest[-1] in ("resume", "los"):
        flags.append(rest.pop())
    resume = "resume" in flags
    note = "loss_of_signal" if "los" in flags else ""
    names = _MANEUVER_ARGS.get(kind, ())
    if len(rest) not in (len(names), len(names) + 1):
        raise _parse_error(path, line_no, f"{kind} needs: {' '.join(names + ('[timeout]',))}")
    args, timeout = rest[: len(names)], rest[len(names):]
    try:
        fields = {}
        if kind in ("translate", "rotate"):
            fields["axis"] = _AXIS_NAMES.get(args[0].lower())
            if fields["axis"] is None:
                raise _parse_error(path, line_no, f"axis must be x, y or z, got {args[0]!r}")
            mag = float(args[1])
            fields["magnitude"] = float(np.deg2rad(mag)) if kind == "rotate" else mag
        elif kind == "goto_pose":
            fields["pose"] = tuple(float(v) for v in args)
        if timeout:
            fields["timeout"] = float(timeout[0])
        maneuver = Maneuver(kind, resume=resume, note=note, **fields)
        if kind == "goto_pose":
            try:
                m3.quat_normalize_f(maneuver.pose[3:])
            except ValueError:
                raise _parse_error(
                    path, line_no, "goto_pose quaternion qw qx qy qz has zero norm"
                ) from None
        return maneuver
    except ValueError as e:
        if str(e).startswith(str(path)):
            raise
        raise _parse_error(path, line_no, f"bad number in maneuver: {e}")


def parse_sequence_file(path) -> list[Maneuver]:
    """Read a maneuver sequence: one maneuver per line, # comments allowed."""
    maneuvers = []
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            maneuvers.append(parse_maneuver_tokens(line.split(), path, line_no))
    if not maneuvers:
        raise ValueError(f"{path}: no maneuvers found")
    return maneuvers


def parse_maneuver_spec(spec: str) -> Maneuver:
    """Parse a colon-separated maneuver, e.g. translate:x:0.5 or rotate:z:-20:30
    (the optional last number is the timeout in seconds)."""
    return parse_maneuver_tokens(spec.split(":"), "<maneuver spec>", 0)


def parse_faults_file(path) -> list[FaultSpec]:
    """Read fault lines: pos_offset MANEUVER_INDEX START_TICK DX DY DZ."""
    faults = []
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "pos_offset" or len(tokens) != 6:
            raise _parse_error(
                path, line_no, "expected: pos_offset MANEUVER_INDEX START_TICK DX DY DZ"
            )
        try:
            faults.append(
                FaultSpec(
                    int(tokens[1]),
                    int(tokens[2]),
                    np.array([float(v) for v in tokens[3:6]]),
                )
            )
        except ValueError as e:
            raise _parse_error(path, line_no, f"bad fault values: {e}")
    return faults
