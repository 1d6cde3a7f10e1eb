"""The three benchmark workloads: what each runs, how many steps it
simulates, and which checks its outputs must pass.

A workload is built once per process (its set-up: config and checkpoint
loading, input generation from the seed); each round then runs one CLI
command through `apiary.cli.main` into a fresh output directory.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

import checks
from apiary.config import load_config
from apiary.learn.checkpoint import env_config_hash, load_policy
from apiary.learn.nets import policy_mean

RECIPE = "assets/reference_training_config.ini"
REFERENCE_CKPT = "assets/reference_policy.ckpt"
TRAIN_ITERATIONS = 12
EVAL_EPISODES = 100
# gate 06's floor; reported, not enforced (see README)
SUCCESS_FLOOR = 0.90


def _read_ini(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path)
    return cp


def _env_limits(cp: configparser.ConfigParser) -> dict:
    env, body, act = cp["env"], cp["body"], cp["actuation"]
    out = {k: float(env[k]) for k in (
        "dt", "mass_min", "mass_max", "success_pos_tol", "success_ori_tol",
        "success_vel_tol", "success_angvel_tol",
    )}
    out.update(episode_len=int(env["episode_len"]), hold_steps=int(env["hold_steps"]))
    out.update(mass=float(body["mass"]), f_max=float(act["f_max"]), tau_max=float(act["tau_max"]))
    return out


def _check_reference_checkpoint(root: Path) -> None:
    _, meta = load_policy(root / REFERENCE_CKPT)
    if meta["env_hash"] != env_config_hash(load_config(root / RECIPE).env):
        raise SystemExit(f"{REFERENCE_CKPT} was not trained under {RECIPE}")


def _program_mean(path, obs: np.ndarray) -> np.ndarray:
    net, _ = load_policy(path)
    return policy_mean(net, obs)


class Train:
    """`apiary train`: the reference recipe cut to `iterations` PPO
    iterations, verbose off, seeded from the benchmark seed."""

    name = "train"
    repeat_files = ("final.ckpt", "curve.csv")

    def __init__(self, root: Path, inputs: Path, seed: int, iterations: int = TRAIN_ITERATIONS):
        cp = _read_ini(root / RECIPE)
        ppo = cp["ppo"]
        n_envs, horizon = int(ppo["n_envs"]), int(ppo["horizon"])
        ppo["total_env_steps"] = str(iterations * n_envs * horizon)
        cp["logging"]["verbose"] = "false"
        cp["seed"]["seed"] = str(seed)
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "train.ini"
        with open(self.config, "w") as f:
            cp.write(f)
        self.iterations = iterations
        self.env_steps = iterations * n_envs * horizon
        self.points = checks.eval_points(iterations, int(ppo["eval_every"]), n_envs * horizon)
        cfg = load_config(self.config)
        self.env_hash = env_config_hash(cfg.env)
        self.env_cfg, self.reward = cfg.env, cfg.reward
        rng = np.random.default_rng([seed, 7])
        self.obs = rng.uniform(-1.0, 1.0, (32, 12)) * np.repeat([0.5, 0.5, 0.3, 0.3], 3)

    def argv(self, out: Path) -> list[str]:
        return ["train", "--config", str(self.config), "--out", str(out)]

    def sim_steps(self, out: Path) -> int:
        return self.env_steps

    def check(self, out: Path, stdout: str) -> dict:
        checks.check_train_counts(stdout, self.iterations, self.env_steps)
        checks.check_curve(out / "curve.csv", self.points)
        checks.check_checkpoint(out / "final.ckpt", self.env_hash, _program_mean, self.obs)
        return {}


class Eval:
    """`apiary eval` of the reference policy under its recipe: `episodes`
    episodes seeded from the benchmark seed, one worker, with per-episode
    trajectory logs."""

    name = "eval"
    repeat_files = ("summary.csv", "episodes.csv")

    def __init__(self, root: Path, inputs: Path, seed: int, episodes: int = EVAL_EPISODES):
        self.root, self.seed, self.episodes = root, seed, episodes
        self.env = _env_limits(_read_ini(root / RECIPE))
        _check_reference_checkpoint(root)

    def argv(self, out: Path) -> list[str]:
        return [
            "eval", "--config", str(self.root / RECIPE), "--ckpt", str(self.root / REFERENCE_CKPT),
            "--scenario", "iss6dof", "--episodes", str(self.episodes), "--seed", str(self.seed),
            "--workers", "1", "--logs", str(out / "logs"), "--out", str(out),
        ]

    def sim_steps(self, out: Path) -> int:
        return sum(int(e["steps"]) for e in checks.read_rows(out / "episodes.csv"))

    def check(self, out: Path, stdout: str) -> dict:
        episodes = checks.read_rows(out / "episodes.csv")
        checks.require(len(episodes) == self.episodes, f"{len(episodes)} episodes, expected {self.episodes}")
        (summary,) = checks.read_rows(out / "summary.csv")
        checks.check_summary(summary, episodes)
        checks.check_episodes(episodes, self.env)
        for i, e in enumerate(episodes):
            checks.check_episode_log(out / "logs" / f"episode_{i:04d}.csv", int(e["steps"]), self.env)
        rate = float(summary["success_rate"])
        return {"success_rate": rate, "success_floor_met": rate >= SUCCESS_FLOOR}


class Flight:
    """`apiary replay` of the stock sequence with the dock fault and the
    reference policy, default config. Fixed input: the seed does not apply."""

    name = "flight"
    repeat_files = ("outcomes.csv", "trajectory.csv")
    SEQUENCE = "assets/stock_sequence.txt"
    FAULTS = "assets/dock_fault.txt"

    def __init__(self, root: Path, inputs: Path, seed: int):
        self.root = root
        self.sequence = checks.parse_sequence(root / self.SEQUENCE)
        faults = checks.parse_faults(root / self.FAULTS)
        if len(faults) != 1:
            raise SystemExit(f"{self.FAULTS}: expected one fault, found {len(faults)}")
        self.fault = faults[0]
        cfg = load_config()
        self.dt, self.trip_consecutive = cfg.env.dt, cfg.safety.trip_consecutive
        self.ticks = sum(round(item["timeout"] / self.dt) for item in self.sequence)
        load_policy(root / REFERENCE_CKPT)

    def argv(self, out: Path) -> list[str]:
        r = self.root
        return [
            "replay", "--sequence", str(r / self.SEQUENCE), "--faults", str(r / self.FAULTS),
            "--ckpt", str(r / REFERENCE_CKPT), "--out", str(out),
        ]

    def sim_steps(self, out: Path) -> int:
        return self.ticks

    def check(self, out: Path, stdout: str) -> dict:
        checks.check_outcomes(checks.read_rows(out / "outcomes.csv"), self.sequence, self.fault, self.dt)
        return checks.check_flight_log(
            out / "trajectory.csv", self.sequence, self.fault, self.trip_consecutive, self.dt
        )


WORKLOADS = {w.name: w for w in (Train, Eval, Flight)}
