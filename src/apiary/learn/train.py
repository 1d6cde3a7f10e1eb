"""Training loop and deterministic policy evaluation.

Training alternates fixed-length batched rollouts with clipped-surrogate
updates until the env-step budget is spent, evaluating the deterministic
policy on a fixed seed bank every eval_every iterations. The best-scoring
parameters are kept alongside the final ones, and a learning-curve row is
recorded at every eval point. If an update or rollout ever goes
non-finite the loop stops, writes the last finite parameters to disk and
re-raises, so a crashed run still leaves a usable checkpoint. Each update
runs the critic's half in a worker process (see `ppo`), and the whole run
holds OpenBLAS at one thread, so the two processes keep one core each.

Evaluation runs episodes in fixed-size chunks of EVAL_CHUNK regardless of
worker count; `workers` only spreads whole chunks across processes, so
summaries are byte-identical for any worker count. The process that runs
a chunk also logs its trajectories, one row per live episode per tick, in
`mission`'s log format: it hands the rows to the chunk's log writer
process, which formats and writes them. Only episode records come back to
the parent. Episode k is seeded (seed, k), but its result also depends on
the size of the chunk that holds it (EVAL_CHUNK, or the remainder for the
last chunk): the policy runs on all of a chunk's rows at once, and BLAS
may round a row differently for another number of rows. So `episodes=1`
and `episodes=2` can give episode 0 returns that differ in the last
digits.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import os
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .. import math3d as m3
from ..child import Child, held, send
from ..env import (
    ORI_ERR,
    POS_ERR,
    BatchEnv,
    EnvConfig,
    RewardWeights,
    batch_rollout,
)
from ..mission import ControlMode, LogWriter
from . import nets
from .checkpoint import save_policy
from .nets import PolicyNet, RolloutPolicy
from .ppo import PpoConfig, one_blas_thread, ppo_update

EVAL_CHUNK = 32

CURVE_FIELDS = [
    "env_steps",
    "mean_return",
    "success_rate",
    "policy_loss",
    "value_loss",
    "entropy",
    "approx_kl",
    "clip_fraction",
]


@dataclass
class EvalResult:
    episodes: list[dict]
    summary: dict


@dataclass
class TrainResult:
    net: PolicyNet
    best_net: PolicyNet
    best_success_rate: float
    curve: list[dict] = field(default_factory=list)
    env_steps: int = 0
    iterations: int = 0


def _log_path(logs_dir, k: int) -> str:
    return os.path.join(logs_dir, f"episode_{k:04d}.csv")


def _eval_chunk(
    net: PolicyNet,
    config: EnvConfig,
    weights: RewardWeights,
    seeds: list,
    logs_dir,
) -> list[dict]:
    """Run one chunk of episodes to completion with the deterministic policy.

    With a `logs_dir`, the chunk opens episode k's `episode_kkkk.csv` there
    and starts a `mission.LogWriter` for the chunk's files. Each tick it
    hands over the live rows' float64 values, which reach the writer
    unrounded in its pickled batches, and it closes an episode's file when
    the episode finishes. If the chunk raises, it aborts the writer, which
    deletes the unfinished files, so every log file left behind holds a
    whole episode. Returns each episode's finished record from
    `BatchEnv.step`, less `env` and plus `settle_time`, in the chunk's
    order; an eval worker sends them to the parent as one message.
    """
    n = len(seeds)
    benv = BatchEnv(n, config, weights, auto_reset=False, episode_seeds=seeds)
    records: list[dict | None] = [None] * n
    scale = np.concatenate(
        [np.full(3, config.limits.f_max), np.full(3, config.limits.tau_max)]
    )
    log = None
    try:
        if logs_dir is not None:
            # row i is episode k's, logged to file k as maneuver k
            episode = np.array([k for _, k in seeds])
            with held():
                log = LogWriter({k: _log_path(logs_dir, k) for _, k in seeds})
        obs = benv.obs.copy()
        for t in range(config.episode_len):
            if benv.all_frozen():
                break
            actions = nets.policy_mean(net, obs)
            if log is not None:
                live = ~benv.frozen
                # the log's errors are world-frame, as in flight; without
                # body_frame_obs they are the observation's own slices
                if config.body_frame_obs:
                    errors = [benv.goal_pos - benv.pos, m3.quat_error(benv.goal_att, benv.att)]
                else:
                    errors = [obs[:, POS_ERR], obs[:, ORI_ERR]]
                table = np.concatenate(
                    # the state's 13 columns are the log's pos, att, linvel, angvel
                    [np.full((n, 1), t * config.dt), benv.state, actions * scale,
                     np.clip(actions, -1.0, 1.0) * scale, *errors],
                    axis=1,
                )
                log.rows(table[live], episode[live], ControlMode.RL_POLICY.value, episode[live])
            obs, _, _, finished = benv.step(actions)
            for rec in finished:
                i = rec.pop("env")
                if log is not None:
                    log.close(seeds[i][1])
                rec["settle_time"] = (
                    (rec["steps"] - config.hold_steps + 1) * config.dt
                    if rec["success"] else float("nan")
                )
                records[i] = rec
        if log is not None:
            log.finish()
    except BaseException:
        if log is not None:
            log.abort()
        raise
    return [r for r in records if r is not None]


def _eval_worker(in_fd: int, out_fd: int, payloads: list) -> int:
    """Send each chunk's `(records, None)` to `out_fd`, or the first failed
    chunk's `(None, exception)` and stop. SIGTERM raises SystemExit all
    along, so a running chunk aborts its log writer; only that stop cuts a
    message short."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for payload in payloads:
        try:
            send(out_fd, (_eval_chunk(*payload), None))
        except Exception as e:  # the parent re-raises it
            send(out_fd, (None, e))
            break
    return 0


def evaluate_policy(
    net: PolicyNet,
    config: EnvConfig,
    weights: RewardWeights,
    episodes: int,
    seed: int,
    workers: int = 1,
    logs_dir=None,
) -> EvalResult:
    """Deterministic evaluation over `episodes` seeded episodes.

    Episode k uses RNG stream (seed, k). Work is split into EVAL_CHUNK-size
    chunks whose composition never depends on `workers`, and chunk results
    are merged back in order, so the output is identical for any worker
    count. It is not always identical for another `episodes`: the last
    chunk's size changes with it, and a policy row may round differently
    in a batch of another size. With a `logs_dir` (an existing directory),
    the process that runs a chunk hands each tick's rows to the chunk's log
    writer process, which writes each episode to `episode_kkkk.csv` there;
    no trajectory is held in memory or sent back to the parent. If a chunk
    fails, the files left are the whole episodes that finished before the
    failure, the same for any worker count.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    seeds = [[seed, k] for k in range(episodes)]
    chunks = [seeds[i : i + EVAL_CHUNK] for i in range(0, episodes, EVAL_CHUNK)]
    payloads = [(net, config, weights, chunk, logs_dir) for chunk in chunks]
    records: list[dict] = []
    if workers > 1 and len(chunks) > 1:
        # worker c % n sends chunk c after its earlier ones: reading in order can't deadlock
        n = min(workers, len(chunks))
        procs: list[Child] = []
        try:
            for w in range(n):
                with held():
                    procs.append(Child(functools.partial(_eval_worker, payloads=payloads[w::n])))
            outs = [open(p.out, "rb", closefd=False) for p in procs]
            for c in range(len(chunks)):
                recs, error = procs[c % n].receive(outs[c % n], "eval worker")
                if error is not None:
                    raise error
                records.extend(recs)
        finally:
            # on a failure or an interrupt, stop the workers still running
            for p in procs:
                if len(records) < episodes and p.pid is not None:
                    os.kill(p.pid, signal.SIGTERM)
            for p in procs:
                p.reap()
                os.close(p.out)
            # the failed chunk deleted its own unfinished files; one process
            # never starts the chunks after it, so delete what workers wrote
            if logs_dir is not None:
                for k in range(len(records) + EVAL_CHUNK, episodes):
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(_log_path(logs_dir, k))
    else:
        for payload in payloads:
            records.extend(_eval_chunk(*payload))
    succ = np.array([r["success"] for r in records], dtype=np.float64)
    settle = np.array([r["settle_time"] for r in records])
    settled = settle[np.isfinite(settle)]
    summary = {
        "episodes": len(records),
        "success_rate": float(succ.mean()),
        "mean_final_pos_err": float(np.mean([r["final_pos_err"] for r in records])),
        "mean_final_ori_err": float(np.mean([r["final_ori_err"] for r in records])),
        "mean_settle_time": float(settled.mean()) if settled.size else float("nan"),
        "mean_return": float(np.mean([r["episode_return"] for r in records])),
        "mean_steps": float(np.mean([r["steps"] for r in records])),
    }
    return EvalResult(records, summary)


def write_curve_csv(path, curve: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CURVE_FIELDS)
        writer.writeheader()
        for row in curve:
            writer.writerow({k: repr(row[k]) for k in CURVE_FIELDS})


def train(
    config: EnvConfig,
    weights: RewardWeights,
    ppo_cfg: PpoConfig,
    seed: int,
    out_dir,
    log_fn,
) -> TrainResult:
    """Train a policy from scratch; deterministic for a given seed.

    Writes best.ckpt, final.ckpt and curve.csv into out_dir, and passes a
    progress line to log_fn (unless None) at every eval point. On a
    non-finite rollout or update, saves the last finite parameters (and
    the curve so far) before re-raising.
    """
    init_rng = np.random.default_rng([seed, 1])
    shuffle_rng = np.random.default_rng([seed, 2])
    net = nets.policy_init(init_rng, ppo_cfg)
    adam_state = nets.adam_init(nets.param_list(net))
    benv = BatchEnv(ppo_cfg.n_envs, config, weights, seed=seed)
    policy = RolloutPolicy(net)

    steps_per_iter = ppo_cfg.n_envs * ppo_cfg.horizon
    if ppo_cfg.total_env_steps < steps_per_iter:
        raise ValueError(
            f"insufficient steps: total_env_steps={ppo_cfg.total_env_steps} is below "
            f"one rollout batch of n_envs*horizon={steps_per_iter}"
        )
    # the step budget is a cap: run as many full rollout batches as fit
    iterations = ppo_cfg.total_env_steps // steps_per_iter
    result = TrainResult(net=net, best_net=copy.deepcopy(net), best_success_rate=-1.0)
    returns_since_eval: list[float] = []
    stats_since_eval: list[dict] = []
    last_good = copy.deepcopy(net)

    def _emit_eval(env_steps: int) -> None:
        ev = evaluate_policy(
            net, config, weights, ppo_cfg.eval_episodes, ppo_cfg.eval_seed
        )
        sr = ev.summary["success_rate"]
        mean_ret = (
            float(np.mean(returns_since_eval)) if returns_since_eval else float("nan")
        )
        # the update stats' columns, after the first three; every eval
        # point follows an update, so there are stats to average
        avg = {k: float(np.mean([s[k] for s in stats_since_eval])) for k in CURVE_FIELDS[3:]}
        row = {"env_steps": env_steps, "mean_return": mean_ret, "success_rate": sr, **avg}
        result.curve.append(row)
        returns_since_eval.clear()
        stats_since_eval.clear()
        if sr >= result.best_success_rate:
            result.best_success_rate = sr
            result.best_net = copy.deepcopy(net)
        if log_fn is not None:
            log_fn(
                f"steps={env_steps} return={mean_ret:.2f} success={sr:.3f} "
                f"value_loss={avg['value_loss']:.4f}"
            )

    try:
        # each update's two processes want OpenBLAS at one thread; pinning
        # it once for the whole run keeps it from restarting threads
        with one_blas_thread():
            for it in range(iterations):
                buf = batch_rollout(policy, benv, ppo_cfg.horizon)
                stats = ppo_update(net, buf, ppo_cfg, adam_state, shuffle_rng)
                last_good = copy.deepcopy(net)
                result.env_steps += steps_per_iter
                result.iterations += 1
                returns_since_eval.extend(buf.episode_returns)
                stats_since_eval.append(stats)
                if (it + 1) % ppo_cfg.eval_every == 0 or it == iterations - 1:
                    _emit_eval(result.env_steps)
    except (RuntimeError, FloatingPointError):
        os.makedirs(out_dir, exist_ok=True)
        save_policy(os.path.join(out_dir, "final.ckpt"), last_good, config)
        best = result.best_net if result.best_success_rate >= 0.0 else last_good
        save_policy(os.path.join(out_dir, "best.ckpt"), best, config)
        write_curve_csv(os.path.join(out_dir, "curve.csv"), result.curve)
        raise

    os.makedirs(out_dir, exist_ok=True)
    save_policy(os.path.join(out_dir, "final.ckpt"), net, config)
    save_policy(os.path.join(out_dir, "best.ckpt"), result.best_net, config)
    write_curve_csv(os.path.join(out_dir, "curve.csv"), result.curve)
    return result
