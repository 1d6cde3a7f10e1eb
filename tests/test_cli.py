"""End-to-end command-line tests, including exit-code contracts."""

import csv
import importlib
import itertools
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from apiary.cli import main
from apiary.config import load_config, set_value
from apiary.env import ORI_ERR, POS_ERR, BatchEnv
from apiary.learn.checkpoint import load_policy, save_policy
from apiary.learn.nets import PolicyNet, mlp_init, policy_mean
from apiary import mission
from apiary.mission import LOG_HEADER, ControlMode, log_line, read_log
from children import assert_no_child_left
from flight import column, columns

# the package's `train` name is the function; this is its module
train_module = importlib.import_module("apiary.learn.train")
ppo_module = importlib.import_module("apiary.learn.ppo")

ASSETS = Path(__file__).resolve().parents[1] / "assets"
SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE_CKPT = ASSETS / "reference_policy.ckpt"
RECIPE = ASSETS / "reference_training_config.ini"
# the reference policy was trained under RECIPE, not under the defaults
MISMATCH = (
    "warning: checkpoint was trained under a different environment "
    "configuration; running anyway\n"
)

TINY_CONFIG = """\
[env]
goal_pos_range_x = 0.03
goal_pos_range_y = 0.03
goal_pos_range_z = 0.03
goal_ang_range_x = 0.02
goal_ang_range_y = 0.02
goal_ang_range_z = 0.02
episode_len = 40
hold_steps = 5

[ppo]
n_envs = 2
horizon = 16
total_env_steps = 64
minibatch_size = 32
epochs = 2
hidden = 8
eval_every = 1
eval_episodes = 1

[logging]
verbose = false
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny training run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.ini"
    cfg.write_text(TINY_CONFIG)
    out = root / "train"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "4"])
    assert rc == 0
    return {"root": root, "config": cfg, "ckpt": out / "final.ckpt", "train_out": out}


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["orbit"]) == 1
    assert capsys.readouterr().err != ""


def test_missing_required_argument(capsys):
    assert main(["train"]) == 1
    assert "--out" in capsys.readouterr().err


def test_train_artifacts(workspace, capsys):
    out = workspace["train_out"]
    for name in ("best.ckpt", "final.ckpt", "curve.csv", "config.ini"):
        assert (out / name).exists(), name
    snapshot = (out / "config.ini").read_text()
    assert snapshot.startswith("# resolved configuration snapshot")
    assert "command: apiary train" in snapshot
    assert "seed = 4" in snapshot
    net, _ = load_policy(workspace["ckpt"])
    assert net.actor.sizes == [12, 8, 6]


def test_train_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[engine]\nthrust = 11\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown section" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["eval_every", "eval_episodes"])
def test_train_rejects_zero_eval_setting(tmp_path, capsys, key):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(TINY_CONFIG.replace(f"{key} = 1", f"{key} = 0"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {cfg}: eval_every and eval_episodes must be >= 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_divergence_exits_2(tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 2\nlr = 1e200"))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
    # the crash path still leaves usable artifacts behind
    assert (out / "final.ckpt").exists()
    net, _ = load_policy(out / "final.ckpt")
    for w in net.actor.weights:
        assert np.all(np.isfinite(w))
    assert_no_child_left()


def test_interrupted_train_leaves_no_child(tmp_path, monkeypatch):
    # an interrupt in the parent's half of the second PPO update (2
    # minibatches per update) stops and reaps that update's worker
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_CONFIG)
    actor_grads, calls = ppo_module._actor_grads, []

    def interrupted(*args):
        calls.append(None)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return actor_grads(*args)

    monkeypatch.setattr(ppo_module, "_actor_grads", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert len(calls) == 3
    assert_no_child_left()


def test_train_bytes_independent_of_starting_blas_threads(tmp_path):
    # minibatches of 512 rows through 64-wide layers: big enough that
    # OpenBLAS splits a product over threads when it has two
    cfg = tmp_path / "blas.ini"
    text = TINY_CONFIG
    for old, new in [
        ("n_envs = 2", "n_envs = 16"), ("horizon = 16", "horizon = 64"),
        ("total_env_steps = 64", "total_env_steps = 2048"),
        ("minibatch_size = 32", "minibatch_size = 512"), ("hidden = 8", "hidden = 64,64"),
    ]:
        text = text.replace(old, new)
    cfg.write_text(text)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "apiary.cli", "train", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / f).read_bytes() for f in ("final.ckpt", "best.ckpt", "curve.csv")])
    assert outputs[0] == outputs[1]


def test_eval_writes_outputs(workspace, capsys):
    out = workspace["root"] / "eval"
    logs = workspace["root"] / "eval_logs"
    rc = main(
        ["eval", "--config", str(workspace["config"]), "--ckpt", str(workspace["ckpt"]),
         "--scenario", "iss6dof", "--episodes", "4", "--seed", "11",
         "--out", str(out), "--logs", str(logs)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("episodes,success_rate")
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[0] == "4"
    episodes = (out / "episodes.csv").read_text().splitlines()
    assert len(episodes) == 5
    assert (out / "config.ini").exists()
    log_files = sorted(logs.glob("episode_*.csv"))
    assert len(log_files) == 4
    assert len(read_log(log_files[0])) > 0


def test_eval_worker_count_equivalence(workspace):
    # more episodes than one chunk so the pool actually splits work
    args = ["eval", "--config", str(workspace["config"]), "--ckpt", str(workspace["ckpt"]),
            "--scenario", "iss6dof", "--episodes", "40", "--seed", "3"]
    out1 = workspace["root"] / "ev_w1"
    out8 = workspace["root"] / "ev_w8"
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out8), "--workers", "8"]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out8 / "summary.csv").read_bytes()
    assert (out1 / "episodes.csv").read_bytes() == (out8 / "episodes.csv").read_bytes()


def test_eval_logs_independent_of_workers(workspace):
    args = ["eval", "--config", str(workspace["config"]), "--ckpt", str(workspace["ckpt"]),
            "--scenario", "iss6dof", "--episodes", "40", "--seed", "3"]
    dirs = [workspace["root"] / f"logs_w{w}" for w in (1, 2)]
    for d, w in zip(dirs, ("1", "2")):
        assert main(args + ["--logs", str(d), "--workers", w]) == 0
        assert_no_child_left()
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == [f"episode_{i:04d}.csv" for i in range(40)]
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def _row_by_row_eval_logs(episodes: int, seed: int) -> list[list[list[float]]]:
    """Eval trajectories of the reference policy, stepped like the eval loop,
    as one numeric row per live env per tick, built from that env's state."""
    cfg = set_value(load_config(RECIPE), "env", "scenario", "iss6dof")
    env = cfg.env
    net, _ = load_policy(REFERENCE_CKPT)
    benv = BatchEnv(
        episodes, env, cfg.reward, auto_reset=False,
        episode_seeds=[[seed, k] for k in range(episodes)],
    )
    logs = [[] for _ in range(episodes)]
    f_max, tau_max = env.limits.f_max, env.limits.tau_max
    for t in range(env.episode_len):
        if benv.all_frozen():
            break
        obs = benv.obs.copy()
        a = policy_mean(net, obs)
        c = np.clip(a, -1.0, 1.0)
        for i in np.flatnonzero(~benv.frozen):
            row = np.concatenate(
                ([t * env.dt], benv.pos[i], benv.att[i], benv.linvel[i], benv.angvel[i],
                 a[i, :3] * f_max, a[i, 3:] * tau_max, c[i, :3] * f_max, c[i, 3:] * tau_max,
                 obs[i, POS_ERR], obs[i, ORI_ERR])
            )
            logs[i].append(row.tolist())
        benv.step(a)
    return logs


def test_eval_logs_match_row_by_row_oracle(tmp_path):
    logs = tmp_path / "logs"
    rc = main(
        ["eval", "--config", str(RECIPE), "--ckpt", str(REFERENCE_CKPT),
         "--scenario", "iss6dof", "--episodes", "3", "--seed", "2", "--logs", str(logs)]
    )
    assert rc == 0
    oracle = _row_by_row_eval_logs(3, 2)
    # episodes of different lengths, so rows past an episode's end are exercised
    assert len({len(log) for log in oracle}) > 1
    assert sorted(p.name for p in logs.iterdir()) == [f"episode_{i:04d}.csv" for i in range(3)]
    mode = ControlMode.RL_POLICY.value
    for i, rows in enumerate(oracle):
        want = LOG_HEADER + "".join(log_line(row, mode, i) for row in rows)
        assert (logs / f"episode_{i:04d}.csv").read_bytes() == want.encode(), i


@pytest.mark.parametrize("workers", ["1", "2"])
def test_eval_divergence_leaves_only_whole_episodes(tmp_path, capsys, monkeypatch, workers):
    # 3 chunks of 3 episodes; the second goes non-finite after one of its
    # episodes has finished and while another is still running
    monkeypatch.setattr(train_module, "EVAL_CHUNK", 3)
    args = ["eval", "--config", str(RECIPE), "--ckpt", str(REFERENCE_CKPT),
            "--scenario", "iss6dof", "--episodes", "9", "--seed", "2", "--workers", workers]
    clean = tmp_path / "clean"
    assert main(args + ["--logs", str(clean / "logs"), "--out", str(clean)]) == 0
    with open(clean / "episodes.csv", newline="") as f:
        steps = [int(row["steps"]) for row in csv.DictReader(f)]
    fail_tick = sorted(steps[3:6])[1]
    assert max(steps[3:6]) > fail_tick

    class DivergingEnv(BatchEnv):
        def __init__(self, *args, episode_seeds, **kwargs):
            super().__init__(*args, episode_seeds=episode_seeds, **kwargs)
            self.fails, self.tick = episode_seeds[0][1] == 3, 0

        def step(self, actions):
            if self.fails and self.tick == fail_tick:
                self.linvel[np.flatnonzero(~self.frozen)[0]] = np.inf
            self.tick += 1
            return super().step(actions)

    monkeypatch.setattr(train_module, "BatchEnv", DivergingEnv)
    # each log writer's pid, kept in a file since pool workers start them
    pids = tmp_path / "writer_pids"

    class Recorded(mission.Child):
        def __init__(self, run):
            super().__init__(run)
            with open(pids, "a") as f:
                f.write(f"{self.pid}\n")

    monkeypatch.setattr(mission, "Child", Recorded)
    logs = tmp_path / "logs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args + ["--logs", str(logs)])
    assert rc == 2
    assert_no_child_left()
    # nor does a writer that a pool worker started: leaving the pool stops
    # a worker still running a chunk, and the worker first aborts and reaps
    # that chunk's writer
    writers = [int(pid) for pid in pids.read_text().split()]
    assert len(writers) >= 2
    for pid in writers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert [str(w.message) for w in caught] == []
    # the row set non-finite is the first of the second chunk still running
    bad = next(i for i in range(3) if steps[3 + i] > fail_tick)
    assert capsys.readouterr().err == f"numerical failure: env {bad}: state went non-finite\n"
    # the first chunk and the episodes of the second that finished in time
    kept = [k for k in range(6) if k < 3 or steps[k] <= fail_tick]
    assert sorted(p.name for p in logs.iterdir()) == [f"episode_{k:04d}.csv" for k in kept]
    for k in kept:
        path = logs / f"episode_{k:04d}.csv"
        assert len(read_log(path)) == steps[k]
        assert path.read_bytes() == (clean / "logs" / path.name).read_bytes()


@pytest.mark.parametrize("rate", [np.inf, 1e308])
def test_eval_non_finite_angular_rate_exits_2(tmp_path, capsys, monkeypatch, rate):
    # a live row's angular rate goes non-finite partway through the chunk;
    # at 1e308 the rate is finite but its rotation vector's norm overflows
    class DivergingEnv(BatchEnv):
        tick = 0

        def step(self, actions):
            self.tick += 1
            if self.tick == 10:
                self.angvel[1] = [rate, 0.0, 0.0]
            return super().step(actions)

    monkeypatch.setattr(train_module, "BatchEnv", DivergingEnv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--config", str(RECIPE), "--ckpt", str(REFERENCE_CKPT),
                   "--scenario", "iss6dof", "--episodes", "3", "--seed", "2",
                   "--logs", str(tmp_path / "logs")])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "numerical failure: angular rate went non-finite during step\n"
    assert list((tmp_path / "logs").iterdir()) == []


def test_eval_env_mismatch_warns(workspace, capsys):
    # default config describes a different task than the tiny checkpoint
    rc = main(
        ["eval", "--ckpt", str(workspace["ckpt"]), "--scenario", "iss6dof",
         "--episodes", "1", "--seed", "1"]
    )
    assert rc == 0
    assert "different environment" in capsys.readouterr().err


def test_eval_rejects_bad_worker_count(workspace, capsys):
    rc = main(
        ["eval", "--config", str(workspace["config"]), "--ckpt", str(workspace["ckpt"]),
         "--scenario", "iss6dof", "--episodes", "2", "--workers", "0"]
    )
    assert rc == 1
    assert "worker count" in capsys.readouterr().err


def test_eval_missing_checkpoint_exits_1(workspace, capsys):
    rc = main(
        ["eval", "--ckpt", str(workspace["root"] / "nope.ckpt"),
         "--scenario", "iss6dof", "--episodes", "1"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_exits_1(workspace, capsys):
    bad = workspace["root"] / "corrupt.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = main(["eval", "--ckpt", str(bad), "--scenario", "iss6dof", "--episodes", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_truncated_checkpoint_names_path(tmp_path, capsys):
    bad = tmp_path / "truncated.ckpt"
    bad.write_bytes(REFERENCE_CKPT.read_bytes()[:100])
    rc = main(["eval", "--ckpt", str(bad), "--scenario", "iss6dof", "--episodes", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: truncated checkpoint: needed 96 bytes at offset 52, file has 100" in err


def _flawed_checkpoint(path, flaw):
    """Write a checkpoint the decoder must refuse: an actor with 4 outputs
    or 5 inputs, or the reference policy with a zero obs scale or one NaN
    weight."""
    rng = np.random.default_rng(7)
    if flaw == "four_actions":
        net = PolicyNet(mlp_init([12, 64, 64, 4], rng), np.full(4, -0.5),
                        mlp_init([12, 64, 64, 1], rng))
    elif flaw == "five_inputs":
        net = PolicyNet(mlp_init([5, 64, 64, 6], rng), np.full(6, -0.5),
                        mlp_init([5, 64, 64, 1], rng), np.ones(5))
    else:
        net, _ = load_policy(REFERENCE_CKPT)
        if flaw == "zero_obs_scale":
            net.obs_scales[0] = 0.0
        else:
            net.actor.weights[0][3, 7] = np.nan
    save_policy(path, net, load_config(RECIPE).env)


@pytest.mark.parametrize("flaw", ["four_actions", "five_inputs", "zero_obs_scale", "nan_weight"])
@pytest.mark.parametrize("command", ["eval", "compare", "replay"])
def test_flawed_checkpoint_exits_1_naming_the_file(tmp_path, capsys, command, flaw):
    ckpt = tmp_path / "flawed.ckpt"
    _flawed_checkpoint(ckpt, flaw)
    out = tmp_path / "out"
    args = {
        "eval": ["--config", str(RECIPE), "--scenario", "iss6dof", "--episodes", "2",
                 "--logs", str(out / "logs"), "--out", str(out)],
        "compare": ["--config", str(RECIPE), "--maneuver", "translate:x:0.5:2", "--out", str(out)],
        "replay": ["--config", str(RECIPE), "--sequence", str(ASSETS / "stock_sequence.txt"),
                   "--out", str(out)],
    }[command]
    assert main([command, "--ckpt", str(ckpt)] + args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {ckpt}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_compare_writes_metrics(workspace, capsys):
    out = workspace["root"] / "compare"
    rc = main(
        ["compare", "--ckpt", str(workspace["ckpt"]),
         "--maneuver", "translate:x:0.1:20", "--out", str(out)]
    )
    assert rc == 0
    assert_no_child_left()
    stdout = capsys.readouterr().out
    assert "cross-axis excursion" in stdout
    for name in ("rl_trajectory.csv", "baseline_trajectory.csv", "metrics.csv",
                 "error_vs_time.csv", "config.ini"):
        assert (out / name).exists(), name
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,rl,baseline,diff"
    assert len(metrics) == 11  # 7 scalars + 3 per-axis rows + header
    errs = (out / "error_vs_time.csv").read_text().splitlines()
    assert errs[0] == "t,rl_pos_err,rl_ori_err,baseline_pos_err,baseline_ori_err"
    assert len(errs) == int(round(20.0 / 0.016)) + 1


def test_compare_flies_body_frame_obs(tmp_path):
    # [env] body_frame_obs reaches the flight loop: the policy reads the
    # body-frame observation while the PD baseline is unaffected
    ini = tmp_path / "body.ini"
    ini.write_text("[env]\nbody_frame_obs = true\n")
    outs = {}
    for name, extra in (("world", []), ("body", ["--config", str(ini)])):
        outs[name] = tmp_path / name
        rc = main(
            ["compare", "--ckpt", str(REFERENCE_CKPT), "--maneuver", "rotate:z:90:3",
             "--out", str(outs[name])] + extra
        )
        assert rc == 0

    def trajectory(name, kind):
        return (outs[name] / f"{kind}_trajectory.csv").read_bytes()

    assert trajectory("world", "rl") != trajectory("body", "rl")
    assert trajectory("world", "baseline") == trajectory("body", "baseline")


def test_compare_bad_maneuver_exits_1(workspace, capsys):
    rc = main(
        ["compare", "--ckpt", str(workspace["ckpt"]),
         "--maneuver", "translate:q:0.1:20", "--out", str(workspace["root"] / "x")]
    )
    assert rc == 1
    assert "axis" in capsys.readouterr().err


def test_compare_readme_quick_start_default_timeout(tmp_path, capsys):
    # the README's command leaves out the timeout; it means the default 30 s
    outs = {}
    for spec in ("translate:x:0.5", "translate:x:0.5:30"):
        outs[spec] = tmp_path / spec.replace(":", "_")
        rc = main(
            ["compare", "--ckpt", str(REFERENCE_CKPT), "--maneuver", spec,
             "--out", str(outs[spec])]
        )
        assert rc == 0, capsys.readouterr().err
    for name in ("rl_trajectory.csv", "baseline_trajectory.csv", "metrics.csv",
                 "error_vs_time.csv"):
        a = (outs["translate:x:0.5"] / name).read_bytes()
        assert a == (outs["translate:x:0.5:30"] / name).read_bytes(), name
    capsys.readouterr()
    rc = main(
        ["compare", "--ckpt", str(REFERENCE_CKPT), "--maneuver", "translate:x:0.5:30:40",
         "--out", str(tmp_path / "too_many")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "<maneuver spec>:0: translate needs: axis magnitude [timeout]" in err
    assert "Traceback" not in err and not (tmp_path / "too_many").exists()


def test_compare_flies_what_replay_flies(tmp_path, capsys):
    # compare's policy flight is the replay of a one-line sequence: the
    # dock standoff is taken from the same entry pose, tick for tick
    seq = tmp_path / "seq.txt"
    seq.write_text("dock_approach 10\n")
    for argv in (
        ["compare", "--maneuver", "dock_approach:10", "--out", str(tmp_path / "compare")],
        ["replay", "--sequence", str(seq), "--out", str(tmp_path / "replay")],
    ):
        assert main(argv + ["--ckpt", str(REFERENCE_CKPT)]) == 0, capsys.readouterr().err
    compared = (tmp_path / "compare" / "rl_trajectory.csv").read_bytes()
    assert compared == (tmp_path / "replay" / "trajectory.csv").read_bytes()
    assert len(compared.splitlines()) == 1 + int(round(10.0 / 0.016))


def test_replay_sequence(workspace, capsys, tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("translate x 0.0 2\ndock 2\n")
    out = tmp_path / "replay"
    rc = main(
        ["replay", "--ckpt", str(workspace["ckpt"]), "--sequence", str(seq),
         "--out", str(out)]
    )
    assert rc == 0
    assert_no_child_left()
    stdout = capsys.readouterr().out
    assert "item 1: translate" in stdout
    outcomes = (out / "outcomes.csv").read_text().splitlines()
    assert outcomes[0].startswith("item,kind,outcome")
    assert len(outcomes) == 3
    assert len(read_log(out / "trajectory.csv")) == 2 * int(round(2.0 / 0.016))


def test_replay_with_faults(workspace, capsys, tmp_path):
    seq = tmp_path / "seq.txt"
    seq.write_text("translate x 0.0 2\ntranslate x 0.0 2\n")
    faults = tmp_path / "faults.txt"
    faults.write_text("pos_offset 0 5 0.5 0 0\n")
    out = tmp_path / "replay"
    rc = main(
        ["replay", "--ckpt", str(workspace["ckpt"]), "--sequence", str(seq),
         "--faults", str(faults), "--out", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "fallback_triggered" in stdout
    assert "skipped" in stdout


def test_replay_stock_sequence_on_granite_table(tmp_path, capsys):
    # the ground stage: every stock maneuver is planar, so all fly
    ini = tmp_path / "granite.ini"
    ini.write_text("[env]\nscenario = granite3dof\n")
    out = tmp_path / "out"
    rc = main(["replay", "--config", str(ini), "--ckpt", str(REFERENCE_CKPT),
               "--sequence", str(ASSETS / "stock_sequence.txt"), "--out", str(out)])
    assert rc == 0
    assert "8/8 maneuvers succeeded" in capsys.readouterr().out
    log = read_log(out / "trajectory.csv")
    for name in ("pz", "qx", "qy"):
        assert not np.any(column(log, name)), name


def test_replay_rejects_pinned_axis_before_flying(tmp_path, capsys):
    ini = tmp_path / "granite.ini"
    ini.write_text("[env]\nscenario = granite3dof\n")
    seq = tmp_path / "seq.txt"
    seq.write_text("translate y -0.2 10\nrotate x -30 10 resume\ndock 20\n")
    out = tmp_path / "out"
    rc = main(["replay", "--config", str(ini), "--ckpt", str(REFERENCE_CKPT),
               "--sequence", str(seq), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == MISMATCH + (
        "error: maneuver index 1 (item 2): rotate asks for rotation about x, "
        "which the DOF mask pins\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "after_stock_fault, extra, message",
    [
        (False, "pos_offset 99 500 0.5 0 0\n", "maneuver index 99, tick 500"),
        (True, "pos_offset 5 500 0 0 0\n", "maneuver index 5, tick 500"),
    ],
    ids=["past-sequence-end", "second-fault-for-one-maneuver"],
)
def test_replay_rejects_fault_that_never_fires(tmp_path, capsys, after_stock_fault, extra, message):
    faults = tmp_path / "faults.txt"
    stock = (ASSETS / "dock_fault.txt").read_text() if after_stock_fault else ""
    faults.write_text(stock + extra)
    out = tmp_path / "replay"
    rc = main(
        ["replay", "--sequence", str(ASSETS / "stock_sequence.txt"), "--ckpt",
         str(REFERENCE_CKPT), "--faults", str(faults), "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(MISMATCH + "error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_replay_missing_sequence_exits_1(workspace, capsys):
    rc = main(
        ["replay", "--ckpt", str(workspace["ckpt"]),
         "--sequence", str(workspace["root"] / "ghost.txt"),
         "--out", str(workspace["root"] / "r")]
    )
    assert rc == 1


def test_replay_divergence_exits_2(workspace, capsys, tmp_path):
    # a subnormal mass turns any nonzero wrench into an overflowing
    # acceleration on the first ticks
    cfg = tmp_path / "light.ini"
    cfg.write_text("[body]\nmass = 1e-320\n")
    seq = tmp_path / "seq.txt"
    seq.write_text("translate x 0.5 2\n")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(
            ["replay", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
             "--sequence", str(seq), "--out", str(out)]
        )
    assert rc == 2
    assert_no_child_left()
    assert "numerical failure" in capsys.readouterr().err
    # the flight had written rows before it diverged; the partial log is gone
    assert not (out / "trajectory.csv").exists()


def test_compare_divergence_exits_2(workspace, capsys, tmp_path):
    cfg = tmp_path / "light.ini"
    cfg.write_text("[body]\nmass = 1e-320\n")
    out = tmp_path / "out"
    rc = main(
        ["compare", "--config", str(cfg), "--ckpt", str(workspace["ckpt"]),
         "--maneuver", "translate:x:0.5:2", "--out", str(out)]
    )
    assert rc == 2
    assert_no_child_left()
    assert capsys.readouterr().err == (
        MISMATCH + "numerical failure: state went non-finite during step\n"
    )
    assert not (out / "rl_trajectory.csv").exists()
    assert not (out / "baseline_trajectory.csv").exists()


def _flight_or_eval_args(command, tmp_path, out):
    """A short replay, a short compare, or a 9-episode eval in chunks of 3
    at 1 or 2 workers (`eval-w1`, `eval-w2`), logging into `out`; all under
    the recipe the reference policy was trained in."""
    common = ["--config", str(RECIPE), "--ckpt", str(REFERENCE_CKPT)]
    if command == "replay":
        seq = tmp_path / "seq.txt"
        seq.write_text("translate x 0.1 5\ndock 5\n")
        return ["replay", *common, "--sequence", str(seq), "--out", str(out)]
    if command == "compare":
        return ["compare", *common, "--maneuver", "translate:x:0.1:5", "--out", str(out)]
    return ["eval", *common, "--scenario", "iss6dof", "--episodes", "9", "--seed", "2",
            "--workers", command[-1], "--logs", str(out)]


@pytest.mark.parametrize("command", ["replay", "compare", "eval-w1", "eval-w2"])
def test_log_writer_error_exits_1_leaving_no_partial_log(tmp_path, capsys, monkeypatch, command):
    # every log writer fails on the 100th row it formats; it forks after the
    # patch, so it inherits it. Its error reaches the command as one line
    monkeypatch.setattr(train_module, "EVAL_CHUNK", 3)
    log_line = mission.log_line
    count = itertools.count(1)

    def failing(row, mode, maneuver):
        if next(count) == 100:
            raise OSError("no space left for the test")
        return log_line(row, mode, maneuver)

    monkeypatch.setattr(mission, "log_line", failing)
    out = tmp_path / "out"
    rc = main(_flight_or_eval_args(command, tmp_path, out))
    assert rc == 1
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.err == "error: trajectory log writer: no space left for the test\n"
    # every episode of every chunk was still running at its writer's row 100
    assert list(out.iterdir()) == []


def test_interrupted_replay_leaves_no_log_and_no_child(tmp_path, monkeypatch):
    # Ctrl-C lands inside a flight tick, after two batches of rows went to
    # the writer; the writer ignores SIGINT and the flight aborts it
    step_f = mission.step_f
    ticks = itertools.count()

    def interrupted(*args):
        if next(ticks) == 2 * mission.LOG_BATCH + 10:
            raise KeyboardInterrupt
        return step_f(*args)

    monkeypatch.setattr(mission, "step_f", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(_flight_or_eval_args("replay", tmp_path, out))
    assert_no_child_left()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["replay", "compare"])
def test_interrupt_while_finishing_leaves_no_log_and_no_child(tmp_path, monkeypatch, command):
    # Ctrl-C lands while the flight waits for its writer to finish. The
    # writer has the finish and closes a whole log, but the command wrote
    # no outcomes or metrics for it, so the log is deleted all the same
    waitpid = os.waitpid
    calls = itertools.count()

    def interrupted(pid, options):
        if next(calls) == 0:
            raise KeyboardInterrupt
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(_flight_or_eval_args(command, tmp_path, out))
    assert next(calls) > 1  # the abort waited for the writer
    assert_no_child_left()
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("spec", ["sequence", "goto_pose:0:0:0:0:0:0:0:5"])
def test_zero_quaternion_exits_1_naming_its_line(tmp_path, capsys, spec):
    # a goto_pose quaternion of zero norm has no attitude to fly to; it is
    # rejected where the line is parsed, before anything flies
    out = tmp_path / "out"
    if spec == "sequence":
        seq = tmp_path / "seq.txt"
        seq.write_text("translate x 0.1 1\ngoto_pose 0 0 0 0 0 0 0 5\n")
        args = ["replay", "--sequence", str(seq)]
        where = f"{seq}:2"
    else:
        args = ["compare", "--maneuver", spec]
        where = "<maneuver spec>:0"
    rc = main(args + ["--config", str(RECIPE), "--ckpt", str(REFERENCE_CKPT), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {where}: goto_pose quaternion qw qx qy qz has zero norm\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "compare", "replay"])
def test_dt_out_of_range_exits_1_naming_the_file(tmp_path, capsys, command):
    # one dt rule for every command: the config itself rejects dt > 0.5
    cfg = tmp_path / "fast.ini"
    cfg.write_text("[env]\ndt = 0.6\n")
    out = tmp_path / "out"
    ckpt = str(REFERENCE_CKPT)
    args = {
        "train": ["--out", str(out)],
        "eval": ["--ckpt", ckpt, "--scenario", "iss6dof", "--episodes", "1",
                 "--logs", str(out / "logs"), "--out", str(out)],
        "compare": ["--ckpt", ckpt, "--maneuver", "translate:x:0.5", "--out", str(out)],
        "replay": ["--ckpt", ckpt, "--sequence", str(ASSETS / "stock_sequence.txt"),
                   "--out", str(out)],
    }[command]
    assert main([command, "--config", str(cfg)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: dt must be in (0, 0.5], got 0.6")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "replay"])
def test_maneuver_of_zero_ticks_exits_1(tmp_path, capsys, command):
    # 0.001 s is under half of the 0.016 s tick
    seq = tmp_path / "seq.txt"
    seq.write_text("translate x 0.5 0.001\ndock 2\n")
    out = tmp_path / "out"
    args = {
        "compare": ["--maneuver", "translate:x:0.5:0.001"],
        "replay": ["--sequence", str(seq)],
    }[command]
    assert main([command, "--ckpt", str(REFERENCE_CKPT), "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        MISMATCH + "error: maneuver index 0: timeout 0.001 s rounds to 0 ticks at dt 0.016 s"
    )
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "replay"])
def test_maneuver_past_tick_bound_exits_1(tmp_path, capsys, command):
    # 1e12 s would be 6.25e13 ticks; the bound rejects it before anything flies
    seq = tmp_path / "seq.txt"
    seq.write_text("translate x 0.5 2\ntranslate x 0.5 1e12\n")
    out = tmp_path / "out"
    args, index = {
        "compare": (["--maneuver", "translate:x:0.5:1e12"], 0),
        "replay": (["--sequence", str(seq)], 1),
    }[command]
    start = time.perf_counter()
    rc = main([command, "--ckpt", str(REFERENCE_CKPT), "--out", str(out)] + args)
    elapsed = time.perf_counter() - start
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        MISMATCH + f"error: maneuver index {index}: timeout 1000000000000.0 s is "
        "62500000000000 ticks at dt 0.016 s, more than the 250000 a maneuver may run"
    )
    assert "Traceback" not in err
    assert not out.exists()
    assert elapsed < 2.0


@pytest.mark.parametrize("fault", ["pos_offset 0 5 0.5 0 0", "pos_offset 1 0 0.5 0 0"])
def test_replay_rejects_zero_tick_maneuver_before_flying(tmp_path, capsys, fault):
    # a fault on item 0 trips the fallback, which would skip item 1 unchecked;
    # a fault on item 1 would be reported against a tick range 0..-1
    seq, faults = tmp_path / "seq.txt", tmp_path / "faults.txt"
    seq.write_text("translate x 0.0 2\ntranslate x 0.0 0.001\n")
    faults.write_text(fault + "\n")
    out = tmp_path / "out"
    args = ["replay", "--ckpt", str(REFERENCE_CKPT), "--sequence", str(seq),
            "--faults", str(faults), "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        MISMATCH + "error: maneuver index 1: timeout 0.001 s rounds to 0 ticks at dt 0.016 s"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    ["translate:x:0.5:inf", "translate:x:0.5:nan", "translate:x:inf:5",
     "goto_pose:nan:0:0:1:0:0:0:5", "sequence"],
)
def test_non_finite_maneuver_numbers_exit_1(tmp_path, capsys, spec):
    out = tmp_path / "out"
    if spec == "sequence":
        seq = tmp_path / "seq.txt"
        seq.write_text("translate x 0.5 30\ntranslate x 0.5 inf\n")
        args = ["replay", "--sequence", str(seq)]
        where = f"{seq}:2: "
    else:
        args = ["compare", "--maneuver", spec]
        where = "<maneuver spec>:0: "
    assert main(args + ["--ckpt", str(REFERENCE_CKPT), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {where}bad number in maneuver: magnitude, timeout and pose must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_bad_episode_count_makes_no_directory(tmp_path, capsys):
    logs, out = tmp_path / "logs", tmp_path / "out"
    rc = main(
        ["eval", "--ckpt", str(REFERENCE_CKPT), "--scenario", "iss6dof", "--episodes", "0",
         "--logs", str(logs), "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "--episodes must be >= 1" in err and "Traceback" not in err
    assert not logs.exists() and not out.exists()


@pytest.mark.parametrize("command", ["compare", "replay"])
def test_flight_warns_on_env_mismatch(tmp_path, capsys, command):
    # compare and replay check the checkpoint's env hash as eval does
    seq = tmp_path / "seq.txt"
    seq.write_text("rotate z 90 3\n")
    args = {
        "compare": ["--maneuver", "rotate:z:90:3"],
        "replay": ["--sequence", str(seq)],
    }[command]
    body = tmp_path / "body.ini"
    body.write_text("[env]\nbody_frame_obs = true\n")
    for config, warns in ((body, True), (RECIPE, False)):
        out = tmp_path / config.stem
        rc = main([command, "--config", str(config), "--ckpt", str(REFERENCE_CKPT),
                   "--out", str(out)] + args)
        assert rc == 0
        assert ("different environment" in capsys.readouterr().err) is warns


def test_compare_flies_the_config_vehicle(tmp_path):
    # the flight reads [actuation] and [env] from the INI: the control
    # period and the actuator limit the env was configured with
    ini = tmp_path / "slow.ini"
    ini.write_text("[actuation]\nf_max = 0.2\n\n[env]\ndt = 0.02\n")
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(ini), "--ckpt", str(REFERENCE_CKPT),
               "--maneuver", "translate:x:0.5:5", "--out", str(out)])
    assert rc == 0
    log = read_log(out / "baseline_trajectory.csv")
    t = column(log, "t")
    assert len(t) == 250
    np.testing.assert_array_equal(t, np.arange(250) * 0.02)
    applied = np.abs(columns(log, ["Fcx", "Fcy", "Fcz"]))
    assert applied.max() == 0.2 and np.all(applied <= 0.2)
