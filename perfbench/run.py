"""apiary benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload {train,eval,flight} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`. Inputs are generated from --seed. Rounds of the workload's CLI
command run through `apiary.cli.main` for up to S seconds (at least two
rounds), and every round's outputs are checked; repeats must match the
first round byte for byte.

--trace 0 prints the end-to-end metrics: setup_s (median wall time of
five fresh processes that import the program and do the workload's
set-up), sim_steps_per_s (median over rounds of simulated steps over
wall time) and peak_rss_mb. --trace 1 runs untraced rounds for S seconds
and then one round with every public apiary function wrapped in a span
(spans.py), and prints the per-layer metrics. Metric names and units come
from BENCHMARK.json. The last line of standard output is the result
object; a record of the machine is printed before it, and both are
written to .bench_runs/BENCH_<workload>_s<seed>_trace<T>.json.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402  (perfbench/, first on sys.path)

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
MIN_ROUNDS = 2  # so every run compares a repeat with the first round
SWEEP_SIZES = (1, 64, 256, 1024)
SWEEP_SECONDS = 0.4


def import_program():
    """Import apiary from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "apiary" / "cli.py").is_file():
        sys.exit(f"benchmark: no program source at {src}/apiary; run from a source checkout")
    sys.path.insert(0, str(src))
    import apiary.cli

    if Path(apiary.cli.__file__).resolve().parent != (src / "apiary").resolve():
        sys.exit(f"benchmark: imported apiary from {apiary.cli.__file__}, not {src}")
    return apiary.cli


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, asked of the library itself."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_probe_seconds(workload: str, seed: int, work: Path) -> list[float]:
    """Wall time of fresh processes that start, import and set up, then exit."""
    walls = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work / f"probe{k}")]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up probe failed:\n{proc.stderr}")
    return walls


def run_round(cli, wl, out: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(wl.argv(out))
        error = None if rc == 0 else f"exit code {rc}: {stderr.getvalue().strip()}"
    except Exception as e:  # a crash is a failed operation, not a benchmark crash
        error = f"{type(e).__name__}: {e}"
    return {"out": out, "wall": perf_counter() - t0, "stdout": stdout.getvalue(), "error": error}


def check_rounds(wl, rounds: list[dict]) -> tuple[int, bool, list[dict]]:
    """(failed, correct, per-round notes). A round fails if its command
    failed or any check of its outputs fails; correct is false if a check
    failed on a command that ran."""
    failed, correct, notes = 0, True, []
    for k, r in enumerate(rounds):
        note = {"round": k, "wall_s": r["wall"]}
        if r["error"] is not None:
            failed += 1
            note["error"] = r["error"]
        else:
            try:
                note.update(wl.check(r["out"], r["stdout"]))
                if k > 0 and rounds[0]["error"] is None:
                    for name in wl.repeat_files:
                        checks.check_same_bytes(rounds[0]["out"] / name, r["out"] / name)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as e:
                failed += 1
                correct = False
                note["check_failed"] = f"{type(e).__name__}: {e}"
        notes.append(note)
    return failed, correct, notes


def timed_rounds(cli, wl, work: Path, seconds: float) -> list[dict]:
    """MIN_ROUNDS rounds, then more while the next one, as long as the
    last, still ends within `seconds`."""
    rounds = []
    t0 = perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        perf_counter() - t0 + rounds[-1]["wall"] <= seconds
    ):
        rounds.append(run_round(cli, wl, work / f"round{len(rounds)}"))
    return rounds


def batch_step_sweep(wl, seed: int) -> dict[str, float]:
    """BatchEnv.step alone (untraced) at several env counts: env steps per second."""
    from apiary.env import BatchEnv

    out = {}
    for n in SWEEP_SIZES:
        benv = BatchEnv(n, wl.env_cfg, wl.reward, seed=seed)
        actions = np.random.default_rng([seed, 11, n]).uniform(-0.1, 0.1, (n, 6))
        for _ in range(3):
            benv.step(actions)
        steps, t0 = 0, perf_counter()
        while steps < 10 or perf_counter() - t0 < SWEEP_SECONDS:
            benv.step(actions)
            steps += 1
        out[f"env.BatchEnv.step.steps_per_s_n{n}"] = n * steps / (perf_counter() - t0)
    return out


def percentile_us(durations, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if len(durations) else 0.0


def layer_metrics(tracer, names: list[str]) -> dict[str, float]:
    """Per-layer values of one traced round, by BENCHMARK.json name.

    <module>.<function>.<stat> with stat calls, busy_s, self_s, median_us or
    p90_us reads the span statistics directly; a function the workload
    never called reads 0. The derived figures are computed below.
    """
    stats = tracer.stats()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "starts": [],
             "parent_ids": np.zeros(0)}
    out = {}
    for name in names:
        span, stat = name.rsplit(".", 1)
        s = stats.get(span, empty)
        if stat in ("calls", "busy_s", "self_s"):
            out[name] = s[stat]
        elif stat == "median_us":
            out[name] = percentile_us(s["durations"], 50)
        elif stat == "p90_us":
            out[name] = percentile_us(s["durations"], 90)
    # a control tick is one log row written inside mission.run_maneuver
    append = stats.get("mission.TrajectoryLog.append", empty)
    in_tick = append["parent_ids"] == tracer.ids.get("mission.run_maneuver", -2)
    tick_starts = np.asarray(append["starts"])[in_tick]
    n_ticks = int(tick_starts.size)
    intervals = np.diff(tick_starts)
    out["mission.tick_interval.p50_us"] = percentile_us(intervals, 50)
    out["mission.tick_interval.p99_us"] = percentile_us(intervals, 99)
    quat_error_calls = stats.get("math3d.quat_error", empty)["calls"]
    out["math3d.quat_error.calls_per_tick"] = quat_error_calls / n_ticks if n_ticks else 0.0
    out["env.BatchEnv.step.live_fraction"] = (
        tracer.rows_live / tracer.rows_stepped if tracer.rows_stepped else 0.0
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "flight"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = import_program()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](ROOT, Path(args.setup_only), args.seed)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = ROOT / ".bench_runs"
    work = runs / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](ROOT, work / "inputs", args.seed)
    own_setup = perf_counter() - T_START

    if args.trace == 0:
        probes = setup_probe_seconds(args.workload, args.seed, work)
        rounds = timed_rounds(cli, wl, work, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, correct, notes = check_rounds(wl, rounds)
        rates = [wl.sim_steps(r["out"]) / r["wall"] for r in rounds if r["error"] is None]
        values = {
            "setup_s": statistics.median(probes),
            "sim_steps_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = bench["end_to_end"]
        extra = {"setup_probes_s": probes}
    else:
        untraced = timed_rounds(cli, wl, work, args.seconds)
        tracer = Tracer()
        with tracer:
            traced = run_round(cli, wl, work / "traced")
        tracer.write(runs / f"spans_{args.workload}_s{args.seed}.npz")
        rounds = untraced + [traced]
        failed, correct, notes = check_rounds(wl, rounds)
        wanted = bench["per_layer"]
        values = layer_metrics(tracer, [m["name"] for m in wanted])
        values["trace.overhead_fraction"] = (
            traced["wall"] / statistics.median(r["wall"] for r in untraced) - 1.0
        )
        sweep = batch_step_sweep(wl, args.seed) if args.workload == "train" else {}
        for n in SWEEP_SIZES:
            key = f"env.BatchEnv.step.steps_per_s_n{n}"
            values[key] = sweep.get(key, 0.0)
        extra = {"spans": len(tracer.start)}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": len(rounds), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(args.seed),
        "own_setup_s": own_setup,
        "rounds": notes,
        **extra,
        "result": result,
    }
    (runs / f"BENCH_{args.workload}_s{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    for note in notes:
        if "error" in note or "check_failed" in note:
            print(f"round {note['round']}: {note.get('error') or note.get('check_failed')}")
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
