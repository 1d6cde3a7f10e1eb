"""Command-line surface: train, eval, compare, replay.

Every command loads the same sectioned config (defaults when --config is
omitted), applies CLI overrides, and writes a resolved-config snapshot
next to its outputs so a run can be reproduced exactly from its artifact
directory. Exit codes: 0 success, 1 usage or configuration error, 2
runtime numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import shlex
import sys

from . import math3d as m3
from .config import SCENARIOS, load_config, set_value, write_snapshot
from .dynamics import SimulationDivergedError
from .learn.checkpoint import env_config_hash, load_policy
from .learn.ppo import UpdateDivergedError
from .learn.train import evaluate_policy, train
from .mission import (
    LOG_COLUMNS,
    ControlMode,
    ManeuverMetrics,
    MissionConfig,
    parse_faults_file,
    parse_maneuver_spec,
    parse_sequence_file,
    run_compare,
    run_sequence,
)

SUMMARY_FIELDS = [
    "episodes",
    "success_rate",
    "mean_final_pos_err",
    "mean_final_ori_err",
    "mean_settle_time",
    "mean_return",
    "mean_steps",
]

EPISODE_FIELDS = [
    "episode",
    "success",
    "reason",
    "steps",
    "episode_return",
    "final_pos_err",
    "final_ori_err",
    "final_lin_vel",
    "final_ang_vel",
    "settle_time",
]

OUTCOME_FIELDS = [
    "item",
    "kind",
    "outcome",
    "ticks",
    "settle_time",
    "final_pos_err",
    "final_ori_err",
    "end_mode",
    "note",
]


class CliError(Exception):
    """Usage or configuration problem (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _snapshot(out_dir, cfg, argv: list[str]) -> None:
    cmd = "apiary " + " ".join(shlex.quote(t) for t in argv)
    write_snapshot(
        os.path.join(out_dir, "config.ini"),
        cfg,
        ["resolved configuration snapshot", f"command: {cmd}"],
    )


def _load_checkpoint(path, env_cfg):
    """Load a policy; warn on stderr when it was trained under an
    environment other than `env_cfg`, and go on."""
    net, meta = load_policy(path)
    if meta["env_hash"] != env_config_hash(env_cfg):
        print(
            "warning: checkpoint was trained under a different environment "
            "configuration; running anyway",
            file=sys.stderr,
        )
    return net


def cmd_train(args, argv: list[str]) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = set_value(cfg, "seed", "seed", args.seed)
    os.makedirs(args.out, exist_ok=True)
    _snapshot(args.out, cfg, argv)
    log_fn = print if cfg.verbose else None
    result = train(
        cfg.env, cfg.reward, cfg.ppo, seed=cfg.seed, out_dir=args.out, log_fn=log_fn
    )
    print(
        f"trained {result.env_steps} env steps in {result.iterations} iterations; "
        f"best eval success rate {result.best_success_rate:.3f}"
    )
    print(f"wrote {os.path.join(args.out, 'best.ckpt')}, final.ckpt, curve.csv")
    return 0


def _write_csv(path, header, rows) -> None:
    """Every table a command writes: the header row, then `rows`."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def cmd_eval(args, argv: list[str]) -> int:
    cfg = load_config(args.config)
    cfg = set_value(cfg, "env", "scenario", args.scenario)
    if args.episodes < 1:
        raise CliError("--episodes must be >= 1")
    if args.workers < 1:
        raise CliError("worker count must be >= 1")
    net = _load_checkpoint(args.ckpt, cfg.env)
    seed = args.seed if args.seed is not None else cfg.seed
    if args.logs is not None:
        os.makedirs(args.logs, exist_ok=True)
    result = evaluate_policy(
        net, cfg.env, cfg.reward, args.episodes, seed, args.workers, args.logs
    )
    summary = [result.summary[k] for k in SUMMARY_FIELDS]
    print(",".join(SUMMARY_FIELDS))
    print(",".join(map(str, summary)))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _snapshot(args.out, cfg, argv)
        _write_csv(os.path.join(args.out, "summary.csv"), SUMMARY_FIELDS, [summary])
        # an episode's record holds every column but its index
        rows = ([i, *(rec[k] for k in EPISODE_FIELDS[1:])] for i, rec in enumerate(result.episodes))
        _write_csv(os.path.join(args.out, "episodes.csv"), EPISODE_FIELDS, rows)
    return 0


def _write_metrics_csv(path, rl: ManeuverMetrics, base: ManeuverMetrics) -> None:
    """One row per metric and per axis of the final position error:
    name, policy value, baseline value, policy - baseline."""
    rows = [(name, getattr(rl, name), getattr(base, name)) for name in ManeuverMetrics.SCALARS]
    rows += [
        (f"final_pos_err_{label}", rl.final_pos_err_axes[axis], base.final_pos_err_axes[axis])
        for axis, label in enumerate("xyz")
    ]
    diffs = ((name, v_rl, v_base, v_rl - v_base) for name, v_rl, v_base in rows)
    _write_csv(path, ["metric", "rl", "baseline", "diff"], diffs)


def _write_error_vs_time(path, log_rl, log_pd) -> None:
    """Both logs' position and attitude error norms per tick, from their
    (n, 32) numeric columns."""
    ep, er = LOG_COLUMNS.index("epx"), LOG_COLUMNS.index("erx")
    norms = [m3.vec_norm(log[:, k : k + 3]) for log in (log_rl, log_pd) for k in (ep, er)]
    header = ["t", "rl_pos_err", "rl_ori_err", "baseline_pos_err", "baseline_ori_err"]
    _write_csv(path, header, zip(*(a.tolist() for a in (log_rl[:, 0], *norms))))


def cmd_compare(args, argv: list[str]) -> int:
    cfg = load_config(args.config)
    net = _load_checkpoint(args.ckpt, cfg.env)
    maneuver = parse_maneuver_spec(args.maneuver)
    mc = MissionConfig(cfg.env, cfg.safety, cfg.gains)
    log_rl, log_pd, rl, base = run_compare(maneuver, mc, net, args.out)
    _snapshot(args.out, cfg, argv)
    _write_metrics_csv(os.path.join(args.out, "metrics.csv"), rl, base)
    _write_error_vs_time(os.path.join(args.out, "error_vs_time.csv"), log_rl, log_pd)
    if base.final_pos_err < rl.final_pos_err:
        print("note: baseline ends the maneuver with less position error than the policy")
    else:
        print("note: policy ends the maneuver with less position error than baseline")
    print(
        "cross-axis excursion: "
        f"rl={rl.max_cross_axis_excursion:.6f} m, "
        f"baseline={base.max_cross_axis_excursion:.6f} m"
    )
    print(f"wrote metrics and trajectories to {args.out}")
    return 0


def cmd_replay(args, argv: list[str]) -> int:
    cfg = load_config(args.config)
    net = _load_checkpoint(args.ckpt, cfg.env)
    sequence = parse_sequence_file(args.sequence)
    faults = parse_faults_file(args.faults) if args.faults else []
    mc = MissionConfig(cfg.env, cfg.safety, cfg.gains)
    outcomes = run_sequence(
        sequence, ControlMode.RL_POLICY, mc, net, faults, os.path.join(args.out, "trajectory.csv")
    )
    _snapshot(args.out, cfg, argv)
    # an outcome holds every column but its item number, index + 1
    rows = ([out.index + 1, *(getattr(out, k) for k in OUTCOME_FIELDS[1:])] for out in outcomes)
    _write_csv(os.path.join(args.out, "outcomes.csv"), OUTCOME_FIELDS, rows)
    n_ok = sum(1 for o in outcomes if o.outcome == "success")
    for out in outcomes:
        suffix = f" ({out.note})" if out.note else ""
        print(f"item {out.index + 1}: {out.kind:14s} {out.outcome}{suffix}")
    print(f"{n_ok}/{len(outcomes)} maneuvers succeeded")
    print(f"wrote outcomes and combined trajectory to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="apiary", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="train a policy and write checkpoints")
    p.add_argument("--config", default=None, help="config file (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override [seed] seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on seeded episodes")
    p.add_argument("--config", default=None)
    p.add_argument("--ckpt", required=True, help="policy checkpoint path")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--logs", default=None, help="directory for per-episode trajectories")
    p.add_argument("--out", default=None, help="directory for summary/episodes CSVs")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run one maneuver under policy and PD baseline")
    p.add_argument("--config", default=None)
    p.add_argument("--ckpt", required=True)
    p.add_argument(
        "--maneuver",
        required=True,
        help="kind:args[:timeout], e.g. translate:x:0.5 or rotate:z:-20:20 (timeout 30 s if left out)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replay", help="replay a maneuver sequence with safety fallback")
    p.add_argument("--config", default=None)
    p.add_argument("--sequence", required=True, help="sequence file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--faults", default=None, help="fault-injection file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise CliError("apiary: a command is required (train, eval, compare, replay)")
        return args.func(args, argv)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (SimulationDivergedError, UpdateDivergedError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
