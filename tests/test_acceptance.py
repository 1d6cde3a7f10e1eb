"""Top-level acceptance gates, one per shipped claim.

Each test prints a single [gate NN] PASS/FAIL line with its pinned
tolerances; run with `pytest tests/test_acceptance.py -q -s` to watch them
land. Gates 06 and 07 each train a full policy and dominate the runtime
(a few minutes each on one core), the rest are seconds.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from apiary import math3d as m3
from apiary.cli import main as cli_main
from apiary.config import load_config
from apiary.dynamics import GRANITE_3DOF, BodyParams, step_f
from apiary.env import EnvConfig, RewardWeights
from apiary.learn import PpoConfig, evaluate_policy, train
from apiary.learn.checkpoint import load_policy
from apiary.learn.nets import param_list, policy_init
from apiary.learn.ppo import _minibatch_grads, gae
from apiary.mission import (
    ControlMode,
    Maneuver,
    MissionConfig,
    parse_faults_file,
    parse_sequence_file,
    read_log,
    run_sequence,
)
from flight import column, columns, labels
from float_state import body_args, momentum, state

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def _gate(num, name, ok, detail):
    line = f"[gate {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------- gate 01


ZERO = [0.0, 0.0, 0.0]


def _translation_rel_err(dt, n_steps):
    params = BodyParams()
    force = np.array([0.3, -0.2, 0.1])
    s, body = state(), body_args(params)
    for _ in range(n_steps):
        s = step_f(*s, force.tolist(), ZERO, *body, dt)
    pos, _, lv, _ = map(np.array, s)
    t_total = dt * n_steps
    p_exact = 0.5 * (force / params.mass) * t_total**2
    v_exact = (force / params.mass) * t_total
    pos_err = np.linalg.norm(pos - p_exact) / np.linalg.norm(p_exact)
    vel_err = np.linalg.norm(lv - v_exact) / np.linalg.norm(v_exact)
    return pos_err, vel_err


def _rotation_rel_err(dt, n_steps):
    # constant torque about the z principal axis from rest: the angular
    # momentum stays axis-aligned so the closed form is one-dimensional
    params = BodyParams()
    tau_z = 0.05
    s, body = state(), body_args(params)
    for _ in range(n_steps):
        s = step_f(*s, ZERO, [0.0, 0.0, tau_z], *body, dt)
    _, att, _, av = s
    t_total = dt * n_steps
    i_z = params.inertia_diag[2]
    ang_exact = 0.5 * (tau_z / i_z) * t_total**2
    omega_exact = (tau_z / i_z) * t_total
    assert att[1] == 0.0 and att[2] == 0.0  # stays about z
    ang_sim = 2.0 * np.arctan2(abs(att[3]), att[0])
    ang_err = abs(ang_sim - ang_exact) / ang_exact
    om_err = abs(av[2] - omega_exact) / omega_exact
    return ang_err, om_err


def test_propagation_matches_closed_form():
    t0 = time.monotonic()
    pos_e1, vel_e1 = _translation_rel_err(1e-4, 10_000)
    pos_e2, _ = _translation_rel_err(2e-4, 5_000)
    ang_e1, om_e1 = _rotation_rel_err(1e-4, 10_000)
    ang_e2, _ = _rotation_rel_err(2e-4, 5_000)
    elapsed = time.monotonic() - t0

    # first-order integrator: the position/angle error over T=1 s is dt/T
    # exactly, so the 1e-4 bound is met at its boundary; 1e-12 of slack
    # covers float accumulation in the measurement itself. Halving dt from
    # 2e-4 to the pinned 1e-4 must halve the error.
    bound = 1e-4 + 1e-12
    ratios = (pos_e2 / pos_e1, ang_e2 / ang_e1)
    ok = (
        pos_e1 <= bound
        and ang_e1 <= bound
        and vel_e1 <= bound
        and om_e1 <= bound
        and all(1.9 <= r <= 2.1 for r in ratios)
        and elapsed < 5.0
    )
    _gate(
        1,
        "dynamics vs closed form",
        ok,
        f"pos rel {pos_e1:.6e} ang rel {ang_e1:.6e} <= 1e-4 at dt=1e-4, "
        f"halving ratios {ratios[0]:.3f}/{ratios[1]:.3f} in [1.9,2.1], "
        f"{elapsed:.1f}s < 5s",
    )


# ---------------------------------------------------------------- gate 02


def test_zero_wrench_conserves_momentum():
    params = BodyParams()
    s = state(
        att=m3.quat_normalize(np.array([0.9, 0.3, -0.2, 0.25])),
        lv=[0.02, -0.01, 0.03],
        av=[0.3, -0.2, 0.4],
    )
    lin0, ang0 = momentum(s, params)
    ang0_norm = np.linalg.norm(ang0)
    lin_exact = True
    worst = 0.0
    body = body_args(params)
    for _ in range(10_000):
        s = step_f(*s, ZERO, ZERO, *body, 0.016)
        lin, ang = momentum(s, params)
        lin_exact = lin_exact and np.array_equal(lin, lin0)
        worst = max(worst, np.linalg.norm(ang - ang0) / ang0_norm)
    ok = lin_exact and worst <= 1e-6
    _gate(
        2,
        "zero-wrench conservation",
        ok,
        f"linear momentum bitwise equal over 10000 steps: {lin_exact}, "
        f"worst angular momentum rel drift {worst:.3e} <= 1e-6",
    )


# ---------------------------------------------------------------- gate 03


def test_backprop_matches_finite_differences():
    # ratios held away from the clip/min switches so central differences
    # see a smooth loss
    t0 = time.monotonic()
    rng = np.random.default_rng(14)
    net = policy_init(rng, PpoConfig())
    cfg = PpoConfig(entropy_coef=0.01)
    from apiary.learn.nets import clamped_log_std, gaussian_log_prob, policy_mean

    b = 16
    obs = rng.standard_normal((b, 12))
    actions = rng.standard_normal((b, 6)) * 0.3
    logp_now = gaussian_log_prob(policy_mean(net, obs), clamped_log_std(net), actions)
    ratios = rng.choice([0.7, 0.9, 1.1, 1.3], size=b)
    old_logp = logp_now - np.log(ratios)
    adv = rng.choice([-1.0, 1.0], size=b) * rng.uniform(0.5, 2.0, size=b)
    returns = rng.standard_normal(b)
    batch = (obs, actions, old_logp, adv, returns)

    grads, _ = _minibatch_grads(net, *batch, cfg, {})
    h = 1e-5
    worst = 0.0
    n_params = 0
    for arr, grad in zip(param_list(net), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = _minibatch_grads(net, *batch, cfg, {})[1]["loss"]
            flat[j] = orig - h
            dn = _minibatch_grads(net, *batch, cfg, {})[1]["loss"]
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            scale = max(abs(fd), abs(gflat[j]), 1e-6)
            worst = max(worst, abs(fd - gflat[j]) / scale)
            n_params += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _gate(
        3,
        "backprop vs finite differences",
        ok,
        f"{n_params} params, worst rel err {worst:.3e} < 1e-4, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------- gate 04


def test_gae_matches_discounted_sums():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        h = int(rng.integers(1, 201))
        rewards = rng.standard_normal((1, h))
        values = rng.standard_normal((1, h))
        dones = (rng.random((1, h)) < 0.07).astype(np.float64)
        boot = rng.standard_normal(1)
        gamma = float(rng.uniform(0.9, 0.999))
        lam = float(rng.uniform(0.8, 1.0))

        adv, rets = gae(rewards, values, dones, boot, gamma, lam)

        nexts = np.concatenate([values[0, 1:], boot])
        deltas = rewards[0] + gamma * nexts * (1.0 - dones[0]) - values[0]
        ref = np.zeros(h)
        for t in range(h):
            acc, w = 0.0, 1.0
            for l in range(t, h):
                acc += w * deltas[l]
                w *= gamma * lam * (1.0 - dones[0, l])
                if w == 0.0:
                    break
            ref[t] = acc
        worst = max(worst, float(np.max(np.abs(adv[0] - ref))))
        worst = max(worst, float(np.max(np.abs(rets[0] - (ref + values[0])))))
    ok = worst <= 1e-10
    _gate(
        4,
        "advantage estimator vs direct sums",
        ok,
        f"1000 instances, horizon <= 200, worst abs err {worst:.3e} <= 1e-10",
    )


# ---------------------------------------------------------------- gate 05


def test_pd_completes_undock_translation(tmp_path):
    cfg = load_config()
    mc = MissionConfig(cfg.env, cfg.safety, cfg.gains)
    man = Maneuver("translate", 0, 0.5, 30.0)
    (outcome,) = run_sequence([man], ControlMode.BASELINE, mc, None, [], tmp_path / "traj.csv")
    log = read_log(tmp_path / "traj.csv")
    cross = float(np.max(np.hypot(column(log, "py"), column(log, "pz"))))
    ori_deg = np.rad2deg(outcome.final_ori_err)
    ok = (
        outcome.ticks == 1875
        and outcome.final_pos_err < 0.01
        and ori_deg < 0.5
        and cross < 1e-6
    )
    _gate(
        5,
        "pd baseline undock",
        ok,
        f"final pos err {outcome.final_pos_err:.4f} < 0.01 m, ori {ori_deg:.3f} "
        f"< 0.5 deg, cross-axis {cross:.1e} < 1e-6 m, in 30 s",
    )


# ---------------------------------------------------------------- gates 06/07
# one full training run each; module scope so gate 07 reuses gate 06's policy


@pytest.fixture(scope="module")
def default_training(tmp_path_factory):
    cfg = load_config()
    out_dir = tmp_path_factory.mktemp("default_training")
    t0 = time.monotonic()
    res = train(cfg.env, cfg.reward, cfg.ppo, seed=cfg.seed, out_dir=out_dir, log_fn=None)
    wall = time.monotonic() - t0
    return cfg, res, wall


@pytest.fixture(scope="module")
def norand_training(tmp_path_factory):
    cfg = load_config()
    env = EnvConfig(mass_range=(1.0, 1.0))
    out_dir = tmp_path_factory.mktemp("norand_training")
    res = train(env, cfg.reward, cfg.ppo, seed=1, out_dir=out_dir, log_fn=None)
    return res


def test_default_training_reaches_success_gate(default_training):
    cfg, res, wall = default_training
    ev = evaluate_policy(res.net, cfg.env, cfg.reward, 100, 12345)
    sr = ev.summary["success_rate"]
    ok = sr >= 0.90 and res.env_steps <= 3_000_000 and wall <= 1800.0
    _gate(
        6,
        "default training run",
        ok,
        f"success {sr:.2f} >= 0.90 on 100 held-out episodes (seed 12345), "
        f"{res.env_steps} <= 3000000 env steps, wall {wall:.0f}s <= 1800s",
    )


def test_mass_randomization_improves_robustness(default_training, norand_training):
    cfg, res, _ = default_training
    weights = cfg.reward

    def sweep(net):
        return tuple(
            evaluate_policy(
                net, EnvConfig(mass_range=(mf, mf)), weights, 100, 777
            ).summary["success_rate"]
            for mf in (0.75, 1.25)
        )

    rand = sweep(res.net)
    nor = sweep(norand_training.net)
    drop = max(rand[0] - nor[0], rand[1] - nor[1])
    ok = min(rand) >= 0.80 and drop >= 0.10
    _gate(
        7,
        "mass randomization robustness",
        ok,
        f"randomized {rand[0]:.2f}/{rand[1]:.2f} >= 0.80 at 0.75x/1.25x mass, "
        f"fixed-mass-trained {nor[0]:.2f}/{nor[1]:.2f}, worst-case drop "
        f"{drop:.2f} >= 0.10 (100 episodes each, seed 777)",
    )


# ---------------------------------------------------------------- gate 08


def test_stock_sequence_replay_and_fault_recovery(tmp_path):
    cfg = load_config()
    mc = MissionConfig(cfg.env, cfg.safety, cfg.gains)
    net, _ = load_policy(ASSETS / "reference_policy.ckpt")
    seq = parse_sequence_file(ASSETS / "stock_sequence.txt")

    clean = run_sequence(seq, ControlMode.RL_POLICY, mc, net, [], tmp_path / "clean.csv")
    clean_ok = all(o.outcome == "success" for o in clean)

    faults = parse_faults_file(ASSETS / "dock_fault.txt")
    path = tmp_path / "faulted.csv"
    faulted = run_sequence(seq, ControlMode.RL_POLICY, mc, net, faults, path)
    outs = [o.outcome for o in faulted]
    pattern_ok = outs == ["success"] * 5 + ["fallback_triggered", "success", "success"]

    # speed must fall under 0.01 m/s within 10 s (625 ticks) of the trip
    modes, maneuvers = map(np.array, labels(path))
    sel = maneuvers == 5
    modes = modes[sel]
    speed = np.linalg.norm(columns(read_log(path), ["vx", "vy", "vz"])[sel], axis=1)
    fb = np.nonzero(modes == ControlMode.HOLD_FALLBACK.value)[0]
    if len(fb):
        window = speed[int(fb[0]) : int(fb[0]) + 626]
        settle_ticks = int(np.argmax(window < 0.01))
        settled = bool(window[settle_ticks] < 0.01)
    else:
        settle_ticks, settled = -1, False

    ok = clean_ok and pattern_ok and settled
    _gate(
        8,
        "flight sequence replay",
        ok,
        f"clean 8/8: {clean_ok}; faulted pattern 5xS,fallback,2xS: {pattern_ok}; "
        f"post-fallback speed < 0.01 m/s after {settle_ticks} ticks <= 625",
    )


# ---------------------------------------------------------------- gate 09

SMOKE_INI = """
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
eval_seed = 77

[logging]
verbose = false

[seed]
seed = 4
"""


def _same(a, b, names):
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


def test_outputs_bit_reproducible(tmp_path):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SMOKE_INI)
    ref = str(ASSETS / "reference_policy.ckpt")

    for d in ("ta", "tb", "ea", "eb", "e8", "ra", "rb"):
        (tmp_path / d).mkdir()
    for d in ("ta", "tb"):
        assert cli_main(["train", "--config", str(ini), "--out", str(tmp_path / d)]) == 0
    train_ok = _same(tmp_path / "ta", tmp_path / "tb", ["best.ckpt", "final.ckpt", "curve.csv"])

    ev = ["eval", "--ckpt", ref, "--scenario", "iss6dof", "--episodes", "40", "--seed", "5"]
    for d, extra in (("ea", []), ("eb", []), ("e8", ["--workers", "8"])):
        assert cli_main(ev + ["--out", str(tmp_path / d)] + extra) == 0
    eval_rerun_ok = _same(tmp_path / "ea", tmp_path / "eb", ["summary.csv", "episodes.csv"])
    eval_workers_ok = _same(tmp_path / "ea", tmp_path / "e8", ["summary.csv", "episodes.csv"])

    seqf = tmp_path / "short_seq.txt"
    seqf.write_text("translate x 0.05 4\nrotate z 5 4\n")
    for d in ("ra", "rb"):
        assert (
            cli_main(
                ["replay", "--sequence", str(seqf), "--ckpt", ref, "--out", str(tmp_path / d)]
            )
            == 0
        )
    replay_ok = _same(tmp_path / "ra", tmp_path / "rb", ["outcomes.csv", "trajectory.csv"])

    ok = train_ok and eval_rerun_ok and eval_workers_ok and replay_ok
    _gate(
        9,
        "bit reproducibility",
        ok,
        f"train rerun {train_ok}, eval rerun {eval_rerun_ok}, eval workers 1 vs 8 "
        f"{eval_workers_ok}, replay rerun {replay_ok}",
    )


# ---------------------------------------------------------------- gate 10


def test_granite_mode_zeroes_constrained_axes():
    rng = np.random.default_rng(31)
    pos, att, lv, av = state()
    body = body_args(BodyParams(), GRANITE_3DOF)
    clean = True
    for _ in range(10_000):
        force, torque = rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.1, 0.1, 3)
        pos, att, lv, av = step_f(pos, att, lv, av, force.tolist(), torque.tolist(), *body, 0.016)
        clean = clean and (
            pos[2] == 0.0
            and lv[2] == 0.0
            and av[0] == 0.0
            and av[1] == 0.0
            and att[1] == 0.0
            and att[2] == 0.0
        )
    _gate(
        10,
        "granite mode constraints",
        clean,
        "z translation and x/y rotation columns bitwise zero over 10000 random wrenches",
    )
