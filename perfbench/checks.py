"""Output checks for the three benchmark workloads.

Each check reads what a CLI command wrote and raises `CheckFailed` naming
the first thing that is wrong. The expected values come from the inputs
the benchmark generated (config, sequence and fault files) or from
properties the method must have, computed here apart from the program:
a checkpoint parser and tanh-MLP forward pass of our own, the
semi-implicit position update, the mass implied by consecutive rows, and
the monitor's trip tick.
"""

from __future__ import annotations

import csv
import math
import re
import struct

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_log(path) -> tuple[dict[str, np.ndarray], list[str], np.ndarray]:
    """A trajectory CSV as (numeric columns by name, mode column, maneuver column)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    require(header[-2:] == ["mode", "maneuver"], f"{path}: unexpected header {header}")
    num = np.array([[float(v) for v in r[:-2]] for r in rows]).reshape(len(rows), -1)
    cols = {name: num[:, k] for k, name in enumerate(header[:-2])}
    return cols, [r[-2] for r in rows], np.array([int(r[-1]) for r in rows], dtype=np.int64)


def vec(cols: dict[str, np.ndarray], *names: str) -> np.ndarray:
    return np.stack([cols[n] for n in names], axis=1)


# ------------------------------------------------------------------ train


def eval_points(iterations: int, eval_every: int, steps_per_iter: int) -> list[int]:
    """Env-step counts at which training evaluates (and writes a curve row)."""
    return [
        (it + 1) * steps_per_iter
        for it in range(iterations)
        if (it + 1) % eval_every == 0 or it == iterations - 1
    ]


def check_train_counts(stdout: str, iterations: int, env_steps: int) -> None:
    m = re.search(r"trained (\d+) env steps in (\d+) iterations", stdout)
    require(m is not None, f"train printed no step count: {stdout!r}")
    got = (int(m.group(1)), int(m.group(2)))
    require(got == (env_steps, iterations), f"trained {got}, expected {(env_steps, iterations)}")


def check_curve(path, points: list[int]) -> None:
    rows = read_rows(path)
    got = [int(r["env_steps"]) for r in rows]
    require(got == points, f"curve rows at {got}, expected {points}")
    for r in rows:
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction"):
            require(math.isfinite(float(r[key])), f"curve {key} not finite at {r['env_steps']}")
        require(0.0 <= float(r["clip_fraction"]) <= 1.0, f"clip fraction {r['clip_fraction']} outside [0, 1]")
        require(0.0 <= float(r["success_rate"]) <= 1.0, f"success rate {r['success_rate']} outside [0, 1]")


def parse_checkpoint(data: bytes) -> dict:
    """Decode the documented checkpoint layout (see learn/checkpoint.py):
    the input scales, the env hash and the actor's (W, b) layers."""
    pos = 0

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        require(pos + size <= len(data), f"checkpoint truncated at byte {pos}")
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    def floats(n: int) -> np.ndarray:
        return np.array(take(f"<{n}d"))

    require(take("<4s")[0] == b"APRY", "checkpoint magic is not APRY")
    take("<I")  # version
    actor = list(take(f"<{take('<I')[0]}I"))
    critic = list(take(f"<{take('<I')[0]}I"))
    scales = floats(take("<I")[0])
    take("<2d")  # log-std clamp bounds
    env_hash = take("<32s")[0]
    layers = [(floats(a * b).reshape(a, b), floats(b)) for a, b in zip(actor, actor[1:])]
    floats(actor[-1])  # log_std
    for a, b in zip(critic, critic[1:]):
        floats(a * b + b)
    require(pos == len(data), f"checkpoint has {len(data) - pos} bytes after the parameters")
    return {"scales": scales, "env_hash": env_hash, "actor_layers": layers}


def actor_mean(layers: list[tuple[np.ndarray, np.ndarray]], scales: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """tanh-MLP forward pass: hidden layers tanh, output layer linear."""
    h = obs / scales
    for k, (w, b) in enumerate(layers):
        z = h @ w + b
        h = np.tanh(z) if k < len(layers) - 1 else z
    return h


def check_checkpoint(path, env_hash: bytes, program_mean, obs: np.ndarray) -> None:
    """final.ckpt decodes, carries `env_hash`, and its actor's mean on `obs`
    equals `program_mean(path, obs)` (the program's own load and forward)."""
    with open(path, "rb") as f:
        ckpt = parse_checkpoint(f.read())
    require(ckpt["env_hash"] == env_hash, "checkpoint env hash differs from the generated config's")
    ours = actor_mean(ckpt["actor_layers"], ckpt["scales"], obs)
    theirs = program_mean(path, obs)
    require(
        np.allclose(theirs, ours, rtol=1e-9, atol=1e-12),
        f"policy mean differs from the reference forward pass by {np.max(np.abs(theirs - ours)):.3e}",
    )


def check_same_bytes(path_a, path_b) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        require(fa.read() == fb.read(), f"{path_b} differs from {path_a} under the same seed")


# ------------------------------------------------------------------ eval

SUMMARY_MEANS = {
    "mean_final_pos_err": "final_pos_err",
    "mean_final_ori_err": "final_ori_err",
    "mean_return": "episode_return",
    "mean_steps": "steps",
}


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_summary(summary: dict[str, str], episodes: list[dict[str, str]]) -> None:
    """summary.csv equals the means recomputed from episodes.csv."""
    n = len(episodes)
    settled = [float(e["settle_time"]) for e in episodes if math.isfinite(float(e["settle_time"]))]
    expect = {
        "episodes": float(n),
        "success_rate": math.fsum(int(e["success"]) for e in episodes) / n,
        "mean_settle_time": math.fsum(settled) / len(settled) if settled else math.nan,
    }
    for key, col in SUMMARY_MEANS.items():
        expect[key] = math.fsum(float(e[col]) for e in episodes) / n
    for key, want in expect.items():
        got = float(summary[key])
        require(_same(got, want), f"summary {key} = {got!r}, episodes.csv gives {want!r}")


def check_episodes(episodes: list[dict[str, str]], env: dict) -> None:
    """Termination bookkeeping against the config: success episodes end
    inside every tolerance after at least hold_steps steps, timeouts at
    exactly episode_len, and none runs longer."""
    for e in episodes:
        steps = int(e["steps"])
        where = f"episode {e['episode']}"
        require(1 <= steps <= env["episode_len"], f"{where}: {steps} steps, limit {env['episode_len']}")
        require(e["reason"] in ("success", "oob", "timeout"), f"{where}: reason {e['reason']!r}")
        require(int(e["success"]) == (e["reason"] == "success"), f"{where}: success flag disagrees with reason")
        if e["reason"] == "timeout":
            require(steps == env["episode_len"], f"{where}: timeout after {steps} steps")
        if e["reason"] == "success":
            require(steps >= env["hold_steps"], f"{where}: success after {steps} < hold_steps steps")
            for col, tol in (
                ("final_pos_err", "success_pos_tol"),
                ("final_ori_err", "success_ori_tol"),
                ("final_lin_vel", "success_vel_tol"),
                ("final_ang_vel", "success_angvel_tol"),
            ):
                require(float(e[col]) <= env[tol], f"{where}: success with {col} {e[col]} > {env[tol]}")


def check_episode_log(path, steps: int, env: dict) -> None:
    """One eval trajectory against the physics and the actuator model.

    - `steps` rows at t = k*dt;
    - pos + pos_err constant (the goal is fixed within an episode);
    - semi-implicit update: pos[k+1] = pos[k] + dt * v[k+1];
    - the mass implied by consecutive rows, dt*|F_applied| / |v[k+1] - v[k]|
      (a rotation keeps |F|), is one value inside the randomisation range;
    - applied wrench = commanded wrench clipped to the actuator limits.
    """
    cols, _, _ = read_log(path)
    dt = env["dt"]
    t = cols["t"]
    require(t.size == steps, f"{path}: {t.size} rows, episodes.csv says {steps} steps")
    require(np.array_equal(t, np.arange(steps) * dt), f"{path}: t is not k*dt")
    pos = vec(cols, "px", "py", "pz")
    vel = vec(cols, "vx", "vy", "vz")
    goal = pos + vec(cols, "epx", "epy", "epz")
    require(np.allclose(goal, goal[0], rtol=0.0, atol=1e-12), f"{path}: pos + pos_err is not constant")
    require(
        np.allclose(pos[1:], pos[:-1] + dt * vel[1:], rtol=0.0, atol=1e-12),
        f"{path}: pos[k+1] != pos[k] + dt*v[k+1]",
    )
    force = vec(cols, "Fcx", "Fcy", "Fcz")
    fnorm = np.linalg.norm(force[:-1], axis=1)
    dv = np.linalg.norm(np.diff(vel, axis=0), axis=1)
    use = fnorm > 0.01 * env["f_max"]
    if steps > 1:
        require(bool(use.any()), f"{path}: no row with enough force to infer the mass")
        mass = dt * fnorm[use] / dv[use]
        require(np.allclose(mass, mass[0], rtol=1e-8, atol=0.0), f"{path}: implied mass varies ({mass.min():.9g}..{mass.max():.9g})")
        lo, hi = env["mass_min"] * env["mass"], env["mass_max"] * env["mass"]
        require(lo * (1 - 1e-9) <= mass[0] <= hi * (1 + 1e-9), f"{path}: implied mass {mass[0]:.6g} outside [{lo}, {hi}]")
    for cmd, app, lim in (("F", "Fc", env["f_max"]), ("T", "Tc", env["tau_max"])):
        c = vec(cols, *(cmd + a for a in "xyz"))
        a = vec(cols, *(app + a for a in "xyz"))
        require(np.array_equal(a, np.clip(c, -lim, lim)), f"{path}: applied {cmd} is not the clipped command")


# ------------------------------------------------------------------ flight


def parse_sequence(path) -> list[dict]:
    """kind, timeout and (for translate) the offset vector of each line."""
    items = []
    with open(path) as f:
        for raw in f:
            tokens = raw.split("#", 1)[0].split()
            while tokens and tokens[-1] in ("resume", "los"):
                tokens.pop()
            if not tokens:
                continue
            item = {"kind": tokens[0], "timeout": float(tokens[-1])}
            if tokens[0] == "translate":
                offset = np.zeros(3)
                offset["xyz".index(tokens[1])] = float(tokens[2])
                item["offset"] = offset
            items.append(item)
    return items


def parse_faults(path) -> list[dict]:
    faults = []
    with open(path) as f:
        for raw in f:
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                faults.append(
                    {"index": int(tokens[1]), "start_tick": int(tokens[2]),
                     "offset": np.array([float(v) for v in tokens[3:6]])}
                )
    return faults


def check_outcomes(rows: list[dict[str, str]], sequence: list[dict], fault: dict, dt: float) -> None:
    """Every item succeeds except the faulted one, which ends in the fallback;
    the next item carries the resume flag, so the rest still run."""
    expect = [
        ("fallback_triggered" if i == fault["index"] else "success") for i in range(len(sequence))
    ]
    got = [r["outcome"] for r in rows]
    require(got == expect, f"outcomes {got}, expected {expect}")
    for i, (r, item) in enumerate(zip(rows, sequence)):
        require(int(r["item"]) == i + 1 and r["kind"] == item["kind"], f"outcome row {i + 1} is {r['item']} {r['kind']}")
        require(int(r["ticks"]) == round(item["timeout"] / dt), f"item {i + 1}: {r['ticks']} ticks")


def check_flight_log(path, sequence: list[dict], fault: dict, trip_consecutive: int, dt: float) -> dict:
    """Trajectory of the faulted stock replay; returns the figures it found.

    - one row per tick: sum(timeout/dt) rows, t strictly increasing;
    - the faulted item switches to hold_fallback at maneuver tick
      start_tick + trip_consecutive - 1 and stays there;
    - speed falls below 0.01 m/s within 625 ticks of the trip;
    - every translate goal is the entry pose plus the sequence offset.
    """
    cols, modes, man = read_log(path)
    ticks = [round(item["timeout"] / dt) for item in sequence]
    require(man.size == sum(ticks), f"{path}: {man.size} rows, expected {sum(ticks)}")
    require(bool(np.all(np.diff(cols["t"]) > 0)), f"{path}: t does not strictly increase")
    require(np.array_equal(man, np.repeat(np.arange(len(sequence)), ticks)), f"{path}: maneuver column out of order")
    first = np.concatenate([[0], np.cumsum(ticks)])
    rows = np.arange(first[fault["index"]], first[fault["index"] + 1])
    held = np.array([modes[r] == "hold_fallback" for r in rows])
    trip = fault["start_tick"] + trip_consecutive - 1
    require(bool(held.any()), "faulted item never switched to hold_fallback")
    got = int(np.argmax(held))
    require(got == trip, f"fallback at maneuver tick {got}, expected {trip}")
    require(bool(held[trip:].all()) and all(modes[r] == "rl_policy" for r in rows[:trip]), "mode column is not rl_policy then hold_fallback")
    speed = np.linalg.norm(vec(cols, "vx", "vy", "vz")[rows[trip:]], axis=1)
    slow = np.flatnonzero(speed < 0.01)
    require(slow.size > 0 and slow[0] <= 625, "speed does not fall below 0.01 m/s within 625 ticks of the trip")
    pos = vec(cols, "px", "py", "pz")
    goal = pos + vec(cols, "epx", "epy", "epz")
    ori = vec(cols, "erx", "ery", "erz")
    for i, item in enumerate(sequence):
        if item["kind"] != "translate":
            continue
        sel = slice(first[i], first[i + 1])
        require(np.allclose(goal[sel], goal[first[i]], rtol=0.0, atol=1e-12), f"item {i + 1}: goal moves")
        require(
            np.allclose(goal[first[i]] - pos[first[i]], item["offset"], rtol=0.0, atol=1e-12),
            f"item {i + 1}: goal - entry = {goal[first[i]] - pos[first[i]]}, sequence offset {item['offset']}",
        )
        require(float(np.linalg.norm(ori[first[i]])) <= 1e-12, f"item {i + 1}: goal attitude is not the entry attitude")
    return {"trip_tick": got, "ticks_to_rest": int(slow[0]), "fallback_ticks": int(held.sum())}
