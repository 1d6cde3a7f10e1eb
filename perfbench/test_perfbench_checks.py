"""Each benchmark output check passes on real outputs and fails when one
output is corrupted.

Runs the three workloads once each at small size (2 training iterations,
4 eval episodes, the full stock replay), then corrupts a copy of the
outputs one way per test.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench_checks.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from apiary import cli  # noqa: E402


def run(wl, out: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(wl.argv(out)) == 0
    return stdout.getvalue()


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after edit(rows), where rows[0] is the header."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def set_cell(path: Path, row: int, column: str, fn) -> None:
    def edit(rows):
        k = rows[0].index(column)
        rows[row + 1][k] = repr(fn(float(rows[row + 1][k])))

    edit_csv(path, edit)


@pytest.fixture(scope="module")
def train(tmp_path_factory):
    base = tmp_path_factory.mktemp("train")
    wl = workloads.Train(ROOT, base / "inputs", seed=3, iterations=2)
    return wl, base, run(wl, base / "a"), run(wl, base / "b")


@pytest.fixture(scope="module")
def evaluation(tmp_path_factory):
    base = tmp_path_factory.mktemp("eval")
    wl = workloads.Eval(ROOT, base / "inputs", seed=3, episodes=4)
    run(wl, base / "out")
    return wl, base / "out"


@pytest.fixture(scope="module")
def flight(tmp_path_factory):
    base = tmp_path_factory.mktemp("flight")
    wl = workloads.Flight(ROOT, base / "inputs", seed=0)
    run(wl, base / "out")
    return wl, base / "out"


def copy(src: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(src, tmp_path / "copy"))


# ------------------------------------------------------------------ train


def test_train_outputs_pass(train):
    wl, base, stdout, _ = train
    wl.check(base / "a", stdout)
    for name in wl.repeat_files:
        checks.check_same_bytes(base / "a" / name, base / "b" / name)


def test_train_counts_fail_on_wrong_iterations(train):
    wl, _, stdout, _ = train
    with pytest.raises(checks.CheckFailed, match="trained"):
        wl.check(Path("unused"), stdout.replace("in 2 iterations", "in 3 iterations"))


@pytest.mark.parametrize(
    "column, value, match",
    [("clip_fraction", 1.5, "clip fraction"), ("value_loss", float("nan"), "value_loss")],
)
def test_curve_fails_on_bad_row(train, tmp_path, column, value, match):
    wl, base, stdout, _ = train
    out = copy(base / "a", tmp_path)
    set_cell(out / "curve.csv", 0, column, lambda _: value)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_curve(out / "curve.csv", wl.points)


def test_curve_fails_on_missing_eval_row(train, tmp_path):
    wl, base, _, _ = train
    out = copy(base / "a", tmp_path)
    edit_csv(out / "curve.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckFailed, match="curve rows"):
        checks.check_curve(out / "curve.csv", wl.points)


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_checkpoint_fails_on_flipped_hash_byte(train, tmp_path):
    wl, base, _, _ = train
    out = copy(base / "a", tmp_path)
    # magic, version, 4 actor sizes, 4 critic sizes, 12 scales, 2 bounds, then the hash
    flip_byte(out / "final.ckpt", 4 + 4 + 20 + 20 + 4 + 96 + 16 + 5)
    with pytest.raises(checks.CheckFailed, match="env hash"):
        checks.check_checkpoint(out / "final.ckpt", wl.env_hash, workloads._program_mean, wl.obs)


def test_repeat_fails_on_flipped_weight_byte(train, tmp_path):
    wl, base, _, _ = train
    out = copy(base / "a", tmp_path)
    flip_byte(out / "final.ckpt", 1000)
    checks.check_checkpoint(out / "final.ckpt", wl.env_hash, workloads._program_mean, wl.obs)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_same_bytes(base / "b" / "final.ckpt", out / "final.ckpt")


def test_checkpoint_fails_when_program_forward_differs(train):
    wl, base, _, _ = train

    def off(path, obs):
        return workloads._program_mean(path, obs) + 1e-9

    with pytest.raises(checks.CheckFailed, match="reference forward pass"):
        checks.check_checkpoint(base / "a" / "final.ckpt", wl.env_hash, off, wl.obs)


def test_checkpoint_fails_on_trailing_byte(train, tmp_path):
    wl, base, _, _ = train
    out = copy(base / "a", tmp_path)
    (out / "final.ckpt").write_bytes((base / "a" / "final.ckpt").read_bytes() + b"\0")
    with pytest.raises(checks.CheckFailed, match="after the parameters"):
        checks.check_checkpoint(out / "final.ckpt", wl.env_hash, lambda p, o: 0.0, wl.obs)


# ------------------------------------------------------------------ eval


def test_eval_outputs_pass(evaluation):
    wl, out = evaluation
    wl.check(out, "")


def first_success(out: Path) -> int:
    rows = checks.read_rows(out / "episodes.csv")
    return next(i for i, r in enumerate(rows) if r["reason"] == "success")


@pytest.mark.parametrize(
    "column, match",
    [("epy", "pos \\+ pos_err"), ("Tcz", "applied T"), ("t", "k\\*dt")],
)
def test_episode_log_fails_on_shifted_value(evaluation, tmp_path, column, match):
    wl, out = evaluation
    out = copy(out, tmp_path)
    set_cell(out / "logs" / "episode_0001.csv", 10, column, lambda v: v + 1e-3)
    with pytest.raises(checks.CheckFailed, match=match):
        wl.check(out, "")


def test_episode_log_fails_on_shifted_position(evaluation, tmp_path):
    wl, out = evaluation
    out = copy(out, tmp_path)
    log = out / "logs" / "episode_0001.csv"
    # move position and position error together, so only the update breaks
    set_cell(log, 10, "px", lambda v: v + 1e-3)
    set_cell(log, 10, "epx", lambda v: v - 1e-3)
    with pytest.raises(checks.CheckFailed, match="pos\\[k\\+1\\]"):
        wl.check(out, "")


def test_episode_log_fails_on_inconsistent_mass(evaluation, tmp_path):
    wl, out = evaluation
    out = copy(out, tmp_path)
    log = out / "logs" / "episode_0000.csv"
    cols, _, _ = checks.read_log(log)
    f = np.abs(cols["Fcx"][:-1])
    k = int(np.flatnonzero((f > 0.1 * wl.env["f_max"]) & (f < 0.5 * wl.env["f_max"]))[0])
    # scale command and applied force alike, so only the implied mass moves
    for column in ("Fx", "Fcx"):
        set_cell(log, k, column, lambda v: v * 1.01)
    with pytest.raises(checks.CheckFailed, match="implied mass"):
        wl.check(out, "")


def test_episode_log_fails_on_missing_row(evaluation, tmp_path):
    wl, out = evaluation
    out = copy(out, tmp_path)
    edit_csv(out / "logs" / "episode_0002.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckFailed, match="rows"):
        wl.check(out, "")


def test_summary_fails_on_changed_episode(evaluation, tmp_path):
    wl, out = evaluation
    out = copy(out, tmp_path)
    set_cell(out / "episodes.csv", 0, "episode_return", lambda v: v + 1.0)
    with pytest.raises(checks.CheckFailed, match="mean_return"):
        wl.check(out, "")


def test_episodes_fail_on_success_outside_tolerance(evaluation):
    wl, out = evaluation
    rows = checks.read_rows(out / "episodes.csv")
    rows[first_success(out)]["final_pos_err"] = repr(2 * wl.env["success_pos_tol"])
    with pytest.raises(checks.CheckFailed, match="final_pos_err"):
        checks.check_episodes(rows, wl.env)


def test_episodes_fail_on_overlong_episode(evaluation):
    wl, out = evaluation
    rows = checks.read_rows(out / "episodes.csv")
    rows[0]["steps"] = str(wl.env["episode_len"] + 1)
    with pytest.raises(checks.CheckFailed, match="limit"):
        checks.check_episodes(rows, wl.env)


# ------------------------------------------------------------------ flight


def test_flight_outputs_pass(flight):
    wl, out = flight
    found = wl.check(out, "")
    assert found["trip_tick"] == 502


def test_outcomes_fail_on_swapped_rows(flight, tmp_path):
    wl, out = flight
    out = copy(out, tmp_path)

    def swap(rows):
        rows[5], rows[6] = rows[6], rows[5]

    edit_csv(out / "outcomes.csv", swap)
    with pytest.raises(checks.CheckFailed, match="outcomes"):
        wl.check(out, "")


def faulted_item_start(wl) -> int:
    return sum(round(item["timeout"] / wl.dt) for item in wl.sequence[: wl.fault["index"]])


def test_flight_log_fails_on_late_fallback(flight, tmp_path):
    wl, out = flight
    out = copy(out, tmp_path)
    trip_row = faulted_item_start(wl) + 502

    def keep_policy(rows):
        rows[trip_row + 1][-2] = "rl_policy"

    edit_csv(out / "trajectory.csv", keep_policy)
    with pytest.raises(checks.CheckFailed, match="fallback at maneuver tick 503"):
        wl.check(out, "")


def test_flight_log_fails_on_missing_row(flight, tmp_path):
    wl, out = flight
    out = copy(out, tmp_path)
    edit_csv(out / "trajectory.csv", lambda rows: rows.pop(100))
    with pytest.raises(checks.CheckFailed, match="13749 rows"):
        wl.check(out, "")


def test_flight_log_fails_on_moved_translate_goal(flight, tmp_path):
    wl, out = flight
    out = copy(out, tmp_path)
    set_cell(out / "trajectory.csv", 0, "epx", lambda v: v + 1e-3)
    with pytest.raises(checks.CheckFailed, match="item 1"):
        wl.check(out, "")


def test_flight_log_fails_when_speed_stays_high(flight, tmp_path):
    wl, out = flight
    out = copy(out, tmp_path)
    start = faulted_item_start(wl) + 502

    def fast(rows):
        k = rows[0].index("vy")
        for r in rows[start + 1 : start + 1 + 700]:
            r[k] = "0.02"

    edit_csv(out / "trajectory.csv", fast)
    with pytest.raises(checks.CheckFailed, match="0.01 m/s"):
        wl.check(out, "")
