"""Optimizer, network, GAE and checkpoint tests.

The two heavyweight oracles live here: a central finite-difference check
over every parameter of the full-size policy, and a brute-force
discounted-sum reference for the advantage estimator.
"""

import dataclasses
import hashlib
import importlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from apiary.actuation import ActuationLimits
from apiary.config import load_config
from apiary.dynamics import GRANITE_3DOF, BodyParams, DofMask

from apiary.env import BatchEnv, EnvConfig, RewardWeights, batch_rollout
from apiary.learn import PpoConfig, evaluate_policy, train
from apiary.learn.checkpoint import (
    CheckpointError,
    env_config_hash,
    load_policy,
    save_policy,
)
from apiary.learn.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    AdamState,
    MlpParams,
    PolicyNet,
    RolloutPolicy,
    adam_init,
    adam_step,
    clamped_log_std,
    clip_scale,
    gaussian_entropy,
    gaussian_log_prob,
    mlp_forward,
    mlp_init,
    param_list,
    policy_init,
    policy_mean,
    value,
)
from apiary.learn.ppo import (
    UpdateDivergedError,
    _actor_grads,
    _critic_grads,
    _minibatch_stats,
    gae,
    normalize_advantages,
    ppo_update,
)
from apiary.learn.train import EVAL_CHUNK
from apiary.mission import read_log
from children import assert_no_child_left
from flight import column, labels

# the package's `train` name is the function; this is its module
train_module = importlib.import_module("apiary.learn.train")
ppo_module = importlib.import_module("apiary.learn.ppo")

ASSETS = Path(__file__).resolve().parents[1] / "assets"


def quick_env():
    return EnvConfig(
        goal_pos_range=np.array([0.03, 0.03, 0.03]),
        goal_ang_range=np.full(3, 0.02),
        episode_len=40,
        hold_steps=5,
    )


# ---------------------------------------------------------------- networks


def test_mlp_forward_batch_matches_rows():
    # BLAS may pick different kernels for (B,n) and (1,n) matmuls, so the
    # agreement is to round-off rather than bitwise
    rng = np.random.default_rng(0)
    params = mlp_init([5, 8, 3], rng)
    x = rng.standard_normal((7, 5))
    batch, _ = mlp_forward(params, x)
    for i in range(7):
        row, _ = mlp_forward(params, x[i])
        np.testing.assert_allclose(batch[i], row, rtol=0, atol=1e-14)


def test_mlp_init_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mlp_init([4], rng)
    p = mlp_init([4, 6, 2], rng)
    assert p.sizes == [4, 6, 2]


def test_policy_init_shapes_and_scales():
    rng = np.random.default_rng(1)
    net = policy_init(rng, PpoConfig())
    assert net.actor.sizes == [12, 64, 64, 6]
    assert net.critic.sizes == [12, 64, 64, 1]
    assert net.log_std.shape == (6,)
    np.testing.assert_array_equal(net.obs_scales, [1.0] * 3 + [np.pi] * 3 + [0.5] * 6)


def test_gaussian_log_prob_closed_form():
    # independent per-channel density product, computed the long way
    import math

    rng = np.random.default_rng(3)
    mean = rng.standard_normal(4)
    log_std = rng.standard_normal(4) * 0.3
    a = rng.standard_normal(4)
    manual = 0.0
    for j in range(4):
        s = math.exp(log_std[j])
        manual += math.log(
            math.exp(-0.5 * ((a[j] - mean[j]) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        )
    assert gaussian_log_prob(mean, log_std, a) == pytest.approx(manual, rel=1e-12)


def test_gaussian_log_prob_batched():
    rng = np.random.default_rng(4)
    mean = rng.standard_normal((5, 6))
    log_std = rng.standard_normal(6) * 0.2
    a = rng.standard_normal((5, 6))
    out = gaussian_log_prob(mean, log_std, a)
    assert out.shape == (5,)
    for i in range(5):
        assert out[i] == pytest.approx(gaussian_log_prob(mean[i], log_std, a[i]), rel=1e-14)


def test_gaussian_entropy_closed_form():
    log_std = np.array([-0.5, 0.1, -1.2])
    expected = sum(log_std) + 1.5 * (1.0 + np.log(2 * np.pi))
    assert gaussian_entropy(log_std) == pytest.approx(expected, rel=1e-14)


def test_clamped_log_std():
    rng = np.random.default_rng(5)
    net = policy_init(rng, PpoConfig())
    net.log_std[:] = [-10.0, -5.0, 0.0, 1.0, 3.0, -0.5]
    np.testing.assert_array_equal(
        clamped_log_std(net), [LOG_STD_MIN, -5.0, 0.0, 1.0, LOG_STD_MAX, -0.5]
    )


def test_adam_matches_reference():
    # hand-stepped scalar reference with explicit bias correction
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    x = np.array([1.5])
    grads = [0.3, -0.2, 0.7, 0.1, -0.4]
    m = v = 0.0
    ref = 1.5
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    state = adam_init([x])
    for g in grads:
        adam_step([x], [np.array([g])], state, lr)
    assert state.t == 5
    assert x[0] == pytest.approx(ref, abs=1e-15)


def test_clip_grads():
    # the sums of squares of [3, 0] and [[4]]: global norm 5
    sums = [9.0, 16.0]
    norm, scale = clip_scale(sums, 0.5)
    assert norm == pytest.approx(5.0)
    assert scale * norm == pytest.approx(0.5, rel=1e-12)
    assert clip_scale(sums, 10.0) == (5.0, 1.0)
    assert clip_scale(sums, 0.0) == (5.0, 1.0)  # disabled


def test_policy_sample_deterministic_per_seed():
    net = policy_init(np.random.default_rng(8), PpoConfig())
    obs = np.random.default_rng(9).standard_normal((1, 12))
    pol = RolloutPolicy(net)
    a1, lp1 = pol.sample(obs, [np.random.default_rng(42)])
    a2, lp2 = pol.sample(obs, [np.random.default_rng(42)])
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(lp1, lp2)
    assert lp1[0] == pytest.approx(
        float(gaussian_log_prob(policy_mean(net, obs[0]), clamped_log_std(net), a1[0]))
    )


def test_rollout_policy_per_env_streams():
    # env i's action depends only on stream i, not on how many envs run
    net = policy_init(np.random.default_rng(10), PpoConfig())
    obs = np.random.default_rng(11).standard_normal((5, 12))
    pol = RolloutPolicy(net)
    rngs3 = [np.random.default_rng([99, i]) for i in range(3)]
    rngs5 = [np.random.default_rng([99, i]) for i in range(5)]
    a3, lp3 = pol.sample(obs[:3], rngs3)
    a5, lp5 = pol.sample(obs, rngs5)
    np.testing.assert_array_equal(a3, a5[:3])
    np.testing.assert_array_equal(lp3, lp5[:3])
    np.testing.assert_array_equal(pol.value(obs), value(net, obs))


# ---------------------------------------------------------------- GAE


def brute_force_gae(rewards, values, dones, bootstrap, gamma, lam):
    """Direct discounted double sum from the estimator's definition."""
    n, h = rewards.shape
    adv = np.zeros((n, h))
    for i in range(n):
        nexts = np.concatenate([values[i, 1:], [bootstrap[i]]])
        deltas = rewards[i] + gamma * nexts * (1.0 - dones[i]) - values[i]
        for t in range(h):
            acc, w = 0.0, 1.0
            for l in range(t, h):
                acc += w * deltas[l]
                w *= gamma * lam * (1.0 - dones[i, l])
                if w == 0.0:
                    break
            adv[i, t] = acc
    return adv


def test_gae_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        h = int(rng.integers(1, 201))
        rewards = rng.standard_normal((n, h))
        values = rng.standard_normal((n, h))
        dones = (rng.random((n, h)) < 0.07).astype(np.float64)
        bootstrap = rng.standard_normal(n)
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, ret = gae(rewards, values, dones, bootstrap, gamma, lam)
        expect = brute_force_gae(rewards, values, dones, bootstrap, gamma, lam)
        np.testing.assert_allclose(adv, expect, atol=1e-10)
        np.testing.assert_allclose(ret, expect + values, atol=1e-10)


def test_gae_no_credit_across_done():
    # a terminal at t means rewards after t never influence adv[<=t]
    rewards = np.array([[1.0, 0.0, 5.0, 5.0]])
    values = np.zeros((1, 4))
    dones = np.array([[0.0, 1.0, 0.0, 0.0]])
    adv, _ = gae(rewards, values, dones, np.array([9.0]), 0.99, 0.95)
    adv2, _ = gae(
        np.array([[1.0, 0.0, -5.0, -5.0]]), values, dones, np.array([9.0]), 0.99, 0.95
    )
    np.testing.assert_array_equal(adv[0, :2], adv2[0, :2])


def test_normalize_advantages():
    rng = np.random.default_rng(13)
    adv = rng.standard_normal(257) * 3.0 + 5.0
    out = normalize_advantages(adv)
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.std() == pytest.approx(1.0, rel=1e-6)
    np.testing.assert_allclose(normalize_advantages(np.full(8, 2.5)), np.zeros(8))


# ------------------------------------------------- gradient check


def fd_batch(net, rng, b=16):
    """A minibatch with ratios held clear of the clip boundaries.

    The loss is piecewise w.r.t. the clip and min switches; the check
    needs every sample on one side of each switch so central differences
    see a smooth function.
    """
    obs = rng.standard_normal((b, 12))
    actions = rng.standard_normal((b, 6)) * 0.3
    mean = policy_mean(net, obs)
    logp_now = gaussian_log_prob(mean, clamped_log_std(net), actions)
    ratios = rng.choice([0.7, 0.9, 1.1, 1.3], size=b)
    old_logp = logp_now - np.log(ratios)
    adv = rng.choice([-1.0, 1.0], size=b) * rng.uniform(0.5, 2.0, size=b)
    returns = rng.standard_normal(b)
    return obs, actions, old_logp, adv, returns


def minibatch_grads(net, batch, cfg):
    """One minibatch's gradient, in param_list order, and its stats, as
    `ppo_update` combines them from its actor and critic halves."""
    obs, actions, old_logp, adv, returns = batch
    actor_grads, actor_stats = _actor_grads(net, obs, actions, old_logp, adv, cfg, {})
    value_loss, critic_grads = _critic_grads(net, obs, returns, cfg, {})
    return actor_grads + critic_grads, _minibatch_stats(actor_stats, value_loss, cfg)


def minibatch_loss(net, batch, cfg):
    """The loss reported alongside the two halves' gradients."""
    return minibatch_grads(net, batch, cfg)[1]["loss"]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    net = policy_init(rng, PpoConfig())
    cfg = PpoConfig(entropy_coef=0.01)
    batch = fd_batch(net, rng)
    grads, _ = minibatch_grads(net, batch, cfg)
    params = param_list(net)
    h = 1e-5
    worst = 0.0
    for arr, grad in zip(params, grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = minibatch_loss(net, batch, cfg)
            flat[j] = orig - h
            dn = minibatch_loss(net, batch, cfg)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            scale = max(abs(fd), abs(gflat[j]), 1e-6)
            worst = max(worst, abs(fd - gflat[j]) / scale)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_clamped_log_std_has_zero_gradient():
    rng = np.random.default_rng(15)
    net = policy_init(rng, PpoConfig())
    net.log_std[:] = [-6.0, 2.0, -0.5, -0.5, -0.5, -0.5]  # two channels clamped
    cfg = PpoConfig()
    batch = fd_batch(net, rng)
    grads, _ = minibatch_grads(net, batch, cfg)
    log_std_grad = grads[len(net.actor.weights) * 2]
    assert log_std_grad[0] == 0.0 and log_std_grad[1] == 0.0
    # and the loss really is flat there
    net.log_std[0] = -6.5
    moved = minibatch_loss(net, batch, cfg)
    net.log_std[0] = -6.0
    assert moved == minibatch_loss(net, batch, cfg)


def test_huge_clip_equals_vanilla_pg():
    # with the clip disabled the surrogate is plain -mean(ratio * adv)
    rng = np.random.default_rng(16)
    net = policy_init(rng, PpoConfig())
    cfg = PpoConfig(clip_eps=1e9, value_coef=0.5)
    obs, actions, old_logp, adv, returns = fd_batch(net, rng)
    _, stats = minibatch_grads(net, (obs, actions, old_logp, adv, returns), cfg)
    mean = policy_mean(net, obs)
    ratio = np.exp(gaussian_log_prob(mean, clamped_log_std(net), actions) - old_logp)
    assert stats["policy_loss"] == pytest.approx(float(-np.mean(ratio * adv)), rel=1e-12)
    v_err = value(net, obs) - returns
    assert stats["value_loss"] == pytest.approx(float(np.mean(v_err**2)), rel=1e-12)


# ------------------------------------------------- ppo_update


def make_buffer(net, n_envs=4, horizon=32, seed=21):
    benv = BatchEnv(n_envs, quick_env(), RewardWeights(), seed)
    return batch_rollout(RolloutPolicy(net), benv, horizon)


def test_ppo_update_deterministic_and_in_place():
    cfg = PpoConfig(n_envs=4, horizon=32, minibatch_size=64, epochs=2)
    nets_pair = []
    for _ in range(2):
        net = policy_init(np.random.default_rng(20), PpoConfig())
        buf = make_buffer(net)
        before = [a.copy() for a in param_list(net)]
        stats = ppo_update(net, buf, cfg, adam_init(param_list(net)), np.random.default_rng(7))
        assert any(
            not np.array_equal(a, b) for a, b in zip(param_list(net), before)
        ), "update must change parameters"
        for key in ("loss", "policy_loss", "value_loss", "entropy", "approx_kl",
                    "clip_fraction", "grad_norm"):
            assert np.isfinite(stats[key])
        nets_pair.append(net)
    for a, b in zip(param_list(nets_pair[0]), param_list(nets_pair[1])):
        np.testing.assert_array_equal(a, b)


# The minibatch path as it was written before ppo_update reused buffers:
# fresh arrays everywhere, both forward passes before either backward pass.
# ppo_update must match it byte for byte; a stale or aliased workspace
# array shows up here even when two runs of the new code agree.


def _oracle_forward(params, x):
    cache = [x]
    h = x
    n_layers = len(params.weights)
    for k in range(n_layers):
        z = h @ params.weights[k] + params.biases[k]
        h = np.tanh(z) if k < n_layers - 1 else z
        cache.append(h)
    return h, cache


def _oracle_backward(params, cache, dy):
    n_layers = len(params.weights)
    dws, dbs = [None] * n_layers, [None] * n_layers
    grad = dy
    for k in range(n_layers - 1, -1, -1):
        if k < n_layers - 1:
            grad = grad * (1.0 - cache[k + 1] ** 2)
        dws[k] = cache[k].T @ grad
        dbs[k] = grad.sum(axis=0)
        if k > 0:
            grad = grad @ params.weights[k].T
    return dws, dbs


def _oracle_grads(net, obs, actions, old_log_probs, adv, returns, cfg):
    b = obs.shape[0]
    xn = obs / net.obs_scales
    mean, actor_cache = _oracle_forward(net.actor, xn)
    v_raw, critic_cache = _oracle_forward(net.critic, xn)
    v = v_raw[:, 0]
    log_std = clamped_log_std(net)
    std = np.exp(log_std)
    new_log_probs = gaussian_log_prob(mean, log_std, actions)
    ratio = np.exp(new_log_probs - old_log_probs)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    pg_loss = float(np.mean(-np.minimum(surr1, surr2)))
    v_err = v - returns
    value_loss = float(np.mean(v_err**2))
    entropy = gaussian_entropy(log_std)
    loss = pg_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    active = (surr1 <= surr2).astype(np.float64)
    dlogp = -(ratio * adv * active) / b
    z = (actions - mean) / std
    dmean = dlogp[:, None] * z / std
    dlog_std = np.sum(dlogp[:, None] * (z * z - 1.0), axis=0) - cfg.entropy_coef
    dlog_std = np.where(
        (net.log_std < LOG_STD_MIN) | (net.log_std > LOG_STD_MAX), 0.0, dlog_std
    )
    dv = (2.0 * cfg.value_coef / b) * v_err
    actor_dw, actor_db = _oracle_backward(net.actor, actor_cache, dmean)
    critic_dw, critic_db = _oracle_backward(net.critic, critic_cache, dv[:, None])
    grads = []
    for dw, db in zip(actor_dw, actor_db):
        grads.extend([dw, db])
    grads.append(dlog_std)
    for dw, db in zip(critic_dw, critic_db):
        grads.extend([dw, db])
    stats = {
        "loss": loss,
        "policy_loss": pg_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(old_log_probs - new_log_probs)),
        "clip_fraction": float(np.mean((np.abs(ratio - 1.0) > cfg.clip_eps).astype(np.float64))),
    }
    return grads, stats


def clip_grads(grads, max_norm):
    norm = 0.0
    for g in grads:
        norm += float(np.sum(g * g))
    norm = float(np.sqrt(norm))
    if max_norm <= 0.0 or norm <= max_norm:
        return grads, norm
    return [g * (max_norm / norm) for g in grads], norm


def _oracle_adam(arrays, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    state.t += 1
    t = state.t
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        a -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _oracle_ppo_update(net, buffer, cfg, adam_state, rng):
    adv2d, ret2d = gae(buffer.rewards, buffer.values, buffer.dones, buffer.bootstrap_values,
                       cfg.gamma, cfg.lam)
    obs, actions, old_logp, adv, returns = (
        buffer.flat(a) for a in (buffer.obs, buffer.actions, buffer.log_probs, adv2d, ret2d)
    )
    n = obs.shape[0]
    mb = min(cfg.minibatch_size, n)
    agg, count = {}, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, mb):
            idx = order[start : start + mb]
            grads, stats = _oracle_grads(
                net, obs[idx], actions[idx], old_logp[idx], normalize_advantages(adv[idx]),
                returns[idx], cfg,
            )
            grads, stats["grad_norm"] = clip_grads(grads, cfg.max_grad_norm)
            _oracle_adam(param_list(net), grads, adam_state, cfg.lr)
            for k, val in stats.items():
                agg[k] = agg.get(k, 0.0) + val
            count += 1
    return {k: v / count for k, v in agg.items()}


def test_ppo_update_matches_unbuffered_oracle_bitwise():
    # 128 samples in minibatches of 48: shapes 48, 48, 32 in each of two
    # epochs, so the workspace is reused across calls and across shapes
    cfg = PpoConfig(n_envs=4, horizon=32, minibatch_size=48, epochs=2, entropy_coef=0.01)
    runs = []
    for update in (ppo_update, _oracle_ppo_update):
        net = policy_init(np.random.default_rng(23), PpoConfig())
        adam = adam_init(param_list(net))
        stats = update(net, make_buffer(net), cfg, adam, np.random.default_rng(8))
        runs.append((net, adam, stats))
    (net, adam, stats), (ref_net, ref_adam, ref_stats) = runs
    assert adam.t == ref_adam.t == 6
    for got, want in zip(
        param_list(net) + adam.m + adam.v, param_list(ref_net) + ref_adam.m + ref_adam.v
    ):
        assert got.tobytes() == want.tobytes()
    assert stats.keys() == ref_stats.keys()
    for k in stats:
        assert struct.pack("<d", stats[k]) == struct.pack("<d", ref_stats[k]), k


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ppo_update_diverged_raises():
    cfg = PpoConfig(n_envs=2, horizon=16, minibatch_size=32)
    net = policy_init(np.random.default_rng(22), PpoConfig())
    buf = make_buffer(net, n_envs=2, horizon=16)
    buf.rewards[0, 3] = np.inf
    with pytest.raises(UpdateDivergedError, match="epoch 0, minibatch 0"):
        ppo_update(net, buf, cfg, adam_init(param_list(net)), np.random.default_rng(0))


def _assert_same_update(got, want):
    (net, adam, stats), (ref_net, ref_adam, ref_stats) = got, want
    assert adam.t == ref_adam.t
    for a, b in zip(
        param_list(net) + adam.m + adam.v, param_list(ref_net) + ref_adam.m + ref_adam.v
    ):
        assert a.tobytes() == b.tobytes()
    assert list(stats) == list(ref_stats)
    for k in stats:
        assert struct.pack("<d", stats[k]) == struct.pack("<d", ref_stats[k]), k


def test_consecutive_ppo_updates_match_oracle_bitwise():
    # the update worker carries the critic and its Adam moments across its
    # lockstep with the parent and back, three updates running: 128 samples
    # in minibatches of 48 (the last one 32), a norm bound that clips every
    # step, and a log_std channel held below its clamp
    cfg = PpoConfig(
        n_envs=4, horizon=32, minibatch_size=48, epochs=2, entropy_coef=0.01, max_grad_norm=0.05
    )
    start = policy_init(np.random.default_rng(24), PpoConfig())
    start.log_std[2] = LOG_STD_MIN - 0.5
    buffers = [make_buffer(start, seed=30 + k) for k in range(3)]
    runs = []
    for update in (ppo_update, _oracle_ppo_update):
        net = policy_init(np.random.default_rng(24), PpoConfig())
        net.log_std[2] = LOG_STD_MIN - 0.5
        adam = adam_init(param_list(net))
        rng = np.random.default_rng(9)
        runs.append([])
        for buf in buffers:
            stats = update(net, buf, cfg, adam, rng)
            runs[-1].append((net, adam, stats))
        assert_no_child_left()
    for got, want in zip(*runs):
        _assert_same_update(got, want)
        assert got[2]["grad_norm"] > cfg.max_grad_norm
    assert runs[0][-1][1].t == 18
    assert runs[0][-1][0].log_std[2] == LOG_STD_MIN - 0.5


def _oracle_divergence(net, buffer, cfg, adam, rng, poisoned_gae):
    """The message of the first non-finite loss or gradient, checked in
    the order the one-process update checked them."""
    adv2d, ret2d = poisoned_gae(buffer.rewards, buffer.values, buffer.dones,
                                buffer.bootstrap_values, cfg.gamma, cfg.lam)
    obs, actions, old_logp, adv, returns = (
        buffer.flat(a) for a in (buffer.obs, buffer.actions, buffer.log_probs, adv2d, ret2d)
    )
    n = obs.shape[0]
    mb = min(cfg.minibatch_size, n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, mb):
            idx = order[start : start + mb]
            grads, stats = _oracle_grads(
                net, obs[idx], actions[idx], old_logp[idx], normalize_advantages(adv[idx]),
                returns[idx], cfg,
            )
            if not np.isfinite(stats["loss"]):
                return f"non-finite loss at epoch {epoch}, minibatch {start // mb}"
            if not all(np.isfinite(g).all() for g in grads):
                return f"non-finite gradient at epoch {epoch}, minibatch {start // mb}"
            grads, _ = clip_grads(grads, cfg.max_grad_norm)
            _oracle_adam(param_list(net), grads, adam, cfg.lr)
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_critic_side_divergence_raises_the_oracle_message(monkeypatch):
    # one return goes non-finite: only the worker's critic half sees it,
    # in whichever minibatch the permutation puts that sample
    cfg = PpoConfig(n_envs=4, horizon=32, minibatch_size=16, epochs=2)

    def poisoned_gae(*args):
        adv, ret = gae(*args)
        ret = ret.copy()
        ret[2, 19] = np.inf
        return adv, ret

    net = policy_init(np.random.default_rng(25), PpoConfig())
    buf = make_buffer(net)
    ref = policy_init(np.random.default_rng(25), PpoConfig())
    want = _oracle_divergence(
        ref, buf, cfg, adam_init(param_list(ref)), np.random.default_rng(3), poisoned_gae
    )
    assert want is not None and want != "non-finite loss at epoch 0, minibatch 0"
    monkeypatch.setattr(ppo_module, "gae", poisoned_gae)
    with pytest.raises(UpdateDivergedError) as raised:
        ppo_update(net, buf, cfg, adam_init(param_list(net)), np.random.default_rng(3))
    assert str(raised.value) == want
    assert_no_child_left()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("end", ["returned", "diverged", "interrupted"])
def test_ppo_update_leaves_no_child(monkeypatch, end):
    cfg = PpoConfig(n_envs=2, horizon=16, minibatch_size=8)
    net = policy_init(np.random.default_rng(26), PpoConfig())
    buf = make_buffer(net, n_envs=2, horizon=16)
    if end == "diverged":
        buf.rewards[1, 7] = np.nan
    elif end == "interrupted":
        # the parent, not the worker, is interrupted in its third minibatch
        actor_grads, calls = ppo_module._actor_grads, []

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return actor_grads(*args)

        monkeypatch.setattr(ppo_module, "_actor_grads", interrupted)
    raised = {"returned": None, "diverged": UpdateDivergedError,
              "interrupted": KeyboardInterrupt}[end]
    if raised is None:
        ppo_update(net, buf, cfg, adam_init(param_list(net)), np.random.default_rng(0))
    else:
        with pytest.raises(raised):
            ppo_update(net, buf, cfg, adam_init(param_list(net)), np.random.default_rng(0))
    assert_no_child_left()


def test_ppo_update_pins_blas_to_one_thread_and_restores(monkeypatch):
    counts = ppo_module._openblas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    get, put = counts[0]
    before = get()
    seen = []
    actor_grads = ppo_module._actor_grads

    def recording(*args):
        seen.append(get())
        return actor_grads(*args)

    monkeypatch.setattr(ppo_module, "_actor_grads", recording)
    cfg = PpoConfig(n_envs=2, horizon=16, minibatch_size=16)
    net = policy_init(np.random.default_rng(27), PpoConfig())
    put(2)
    try:
        ppo_update(net, make_buffer(net, n_envs=2, horizon=16), cfg,
                   adam_init(param_list(net)), np.random.default_rng(0))
        assert get() == 2
    finally:
        put(before)
    assert seen and set(seen) == {1}


def test_train_sets_blas_threads_once_each_way(tmp_path, monkeypatch):
    # setting the count between updates would restart the OpenBLAS threads
    # that each worker's fork stopped, and a new thread busy-waits beside
    # the next rollout; train pins once for the run and restores once
    threads, calls = [2], []

    def put(n):
        calls.append(n)
        threads[0] = n

    monkeypatch.setattr(ppo_module, "_openblas_thread_counts", lambda: ((lambda: threads[0], put),))
    res = train(quick_env(), RewardWeights(), smoke_ppo(), seed=5, out_dir=tmp_path, log_fn=None)
    assert res.iterations == 2
    assert calls == [1, 2]


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ValueError):
        PpoConfig(lam=1.5)
    with pytest.raises(ValueError):
        PpoConfig(clip_eps=0.0)
    with pytest.raises(ValueError):
        PpoConfig(lr=-1.0)
    with pytest.raises(ValueError):
        PpoConfig(epochs=0)
    for hidden in ((0,), (64, -3)):
        with pytest.raises(ValueError, match="hidden layer widths must be >= 1"):
            PpoConfig(hidden=hidden)


# ------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    net = policy_init(np.random.default_rng(30), PpoConfig(log_std_init=-0.3))
    cfg = quick_env()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_policy(p1, net, cfg)
    loaded, meta = load_policy(p1)
    save_policy(p2, loaded, cfg)
    assert p1.read_bytes() == p2.read_bytes()
    assert meta["version"] == 1
    assert meta["actor_sizes"] == [12, 64, 64, 6]
    assert meta["env_hash"] == env_config_hash(cfg)
    obs = np.random.default_rng(31).standard_normal((5, 12))
    np.testing.assert_array_equal(policy_mean(loaded, obs), policy_mean(net, obs))
    np.testing.assert_array_equal(value(loaded, obs), value(net, obs))
    np.testing.assert_array_equal(loaded.obs_scales, net.obs_scales)


def test_checkpoint_rejects_garbage(tmp_path):
    net = policy_init(np.random.default_rng(32), PpoConfig())
    path = tmp_path / "c.ckpt"
    save_policy(path, net, quick_env())
    good = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_policy(bad)

    bad.write_bytes(good[:4] + struct.pack("<I", 99) + good[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_policy(bad)

    for cut in (3, 7, 40, len(good) // 2, len(good) - 1):
        bad.write_bytes(good[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_policy(bad)

    bad.write_bytes(good + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_policy(bad)


def bad_policy(defect):
    """A PolicyNet with one defect that a checkpoint must not carry."""
    rng = np.random.default_rng(34)

    def mlp(*sizes):
        return mlp_init(list(sizes), rng)

    if defect == "actor_outputs":
        return PolicyNet(mlp(12, 8, 4), np.zeros(4), mlp(12, 8, 1))
    if defect == "obs_inputs":
        return PolicyNet(mlp(5, 8, 6), np.zeros(6), mlp(5, 8, 1), np.ones(5))
    if defect == "critic_outputs":
        return PolicyNet(mlp(12, 8, 6), np.zeros(6), mlp(12, 8, 2))
    if defect == "zero_width":
        empty = MlpParams([np.zeros((12, 0)), np.zeros((0, 6))], [np.zeros(0), np.zeros(6)])
        return PolicyNet(empty, np.zeros(6), mlp(12, 8, 1))
    net = policy_init(rng, PpoConfig(hidden=(8,)))
    if defect.startswith("obs_scale_"):
        net.obs_scales[3] = {"obs_scale_zero": 0.0, "obs_scale_negative": -1.0,
                             "obs_scale_inf": np.inf, "obs_scale_nan": np.nan}[defect]
    elif defect == "nan_weight":
        net.critic.weights[1][2, 0] = np.nan
    elif defect == "inf_log_std":
        net.log_std[5] = -np.inf
    return net


BAD_POLICIES = {
    "actor_outputs": "actor maps 12 inputs to 4 outputs; a policy maps 12 observations to 6",
    "obs_inputs": "actor maps 5 inputs to 6 outputs",
    "critic_outputs": "critic maps 12 inputs to 2 outputs",
    "zero_width": "layer widths must be >= 1",
    "obs_scale_zero": "obs scales must be positive and finite",
    "obs_scale_negative": "obs scales must be positive and finite",
    "obs_scale_inf": "obs scales must be positive and finite",
    "obs_scale_nan": "obs scales must be positive and finite",
    "nan_weight": "non-finite value in parameter array 7",
    "inf_log_std": "non-finite value in parameter array 4",
}


@pytest.mark.parametrize("defect", BAD_POLICIES)
def test_checkpoint_rejects_what_no_policy_can_be(tmp_path, defect):
    path = tmp_path / "bad.ckpt"
    save_policy(path, bad_policy(defect), quick_env())
    with pytest.raises(CheckpointError) as err:
        load_policy(path)
    assert str(err.value).startswith(f"{path}: ")
    assert BAD_POLICIES[defect] in str(err.value)


def test_checkpoint_rejects_other_clamp_bounds(tmp_path):
    net = policy_init(np.random.default_rng(33), PpoConfig())
    path = tmp_path / "d.ckpt"
    save_policy(path, net, quick_env())
    data = bytearray(path.read_bytes())
    # walk the header to the log_std_min field
    off = 8
    n_actor = struct.unpack_from("<I", data, off)[0]
    off += 4 + 4 * n_actor
    n_critic = struct.unpack_from("<I", data, off)[0]
    off += 4 + 4 * n_critic
    obs_dim = struct.unpack_from("<I", data, off)[0]
    off += 4 + 8 * obs_dim
    assert struct.unpack_from("<d", data, off)[0] == LOG_STD_MIN
    struct.pack_into("<d", data, off, LOG_STD_MIN - 1.0)
    path.write_bytes(bytes(data))
    # the test's own tmp path holds the word "clamp", so match more of the message
    with pytest.raises(CheckpointError, match="different log-std clamp bounds"):
        load_policy(path)


def hand_listed_env_hash(config):
    """`env_config_hash` as it was written before it walked the fields: each
    of the 21 fields listed by hand, each in its own spelling."""
    parts = [
        "goal_pos_range=" + ",".join(f"{v:.17g}" for v in config.goal_pos_range),
        "goal_ang_range=" + ",".join(f"{v:.17g}" for v in config.goal_ang_range),
        f"mass_range={config.mass_range[0]:.17g},{config.mass_range[1]:.17g}",
        f"episode_len={config.episode_len}",
        f"success_pos_tol={config.success_pos_tol:.17g}",
        f"success_ori_tol={config.success_ori_tol:.17g}",
        f"success_vel_tol={config.success_vel_tol:.17g}",
        f"success_angvel_tol={config.success_angvel_tol:.17g}",
        f"hold_steps={config.hold_steps}",
        f"oob_radius={config.oob_radius:.17g}",
        f"dt={config.dt:.17g}",
        "tmask=" + ",".join(str(int(v)) for v in config.mask.free_translation),
        "rmask=" + ",".join(str(int(v)) for v in config.mask.free_rotation),
        f"mass={config.body.mass:.17g}",
        "inertia=" + ",".join(f"{v:.17g}" for v in config.body.inertia_diag),
        "com=" + ",".join(f"{v:.17g}" for v in config.body.com_offset),
        f"f_max={config.limits.f_max:.17g}",
        f"tau_max={config.limits.tau_max:.17g}",
        f"force_rate={config.limits.force_rate:.17g}",
        f"torque_rate={config.limits.torque_rate:.17g}",
        f"body_frame_obs={int(config.body_frame_obs)}",
    ]
    return hashlib.sha256("\n".join(parts).encode("ascii")).digest()


positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
anyfloat = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# ints up to 17 digits are spelled the same by str and by .17g
small_int = st.integers(1, 10**17 - 1)


@st.composite
def env_configs(draw):
    lo = draw(st.one_of(positive, small_int))
    # moments in [1, 1.9] always satisfy the triangle inequality
    inertia = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=3, max_size=3)))
    return EnvConfig(
        goal_pos_range=np.array(draw(st.lists(anyfloat, min_size=3, max_size=3))),
        goal_ang_range=np.array(draw(st.lists(anyfloat, min_size=3, max_size=3))),
        mass_range=(lo, draw(st.sampled_from([lo, lo * 2, lo + 1]))),
        episode_len=draw(st.one_of(st.integers(1, 10**6), st.just(10**18))),
        success_pos_tol=draw(positive),
        success_ori_tol=draw(positive),
        success_vel_tol=draw(positive),
        success_angvel_tol=draw(positive),
        hold_steps=draw(st.integers(1, 1000)),
        oob_radius=draw(positive),
        dt=draw(st.floats(1e-6, 0.5)),
        mask=DofMask(*(tuple(draw(st.lists(st.booleans(), min_size=3, max_size=3)))
                       for _ in range(2))),
        body=BodyParams(draw(positive), inertia * draw(st.floats(1e-3, 1e3)),
                        np.array(draw(st.lists(anyfloat, min_size=3, max_size=3)))),
        limits=ActuationLimits(draw(positive), draw(positive),
                               draw(st.one_of(st.just(0.0), positive)),
                               draw(st.one_of(st.just(0.0), positive))),
        body_frame_obs=draw(st.booleans()),
    )


@seed(20241019)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(env_configs())
def test_env_hash_matches_hand_listed_oracle(cfg):
    assert env_config_hash(cfg) == hand_listed_env_hash(cfg)


def test_env_hash_matches_oracle_on_known_configs():
    recipe = load_config(ASSETS / "reference_training_config.ini")
    granite = EnvConfig(
        mask=GRANITE_3DOF, body=BodyParams(12, np.array([0.2, 0.15, 0.3]), np.array([0.01, 0, 0])),
        limits=ActuationLimits(force_rate=0.5, torque_rate=0.25), body_frame_obs=True,
        episode_len=10**18, mass_range=(1, 2),
    )
    for cfg in (EnvConfig(), load_config().env, recipe.env, granite):
        assert env_config_hash(cfg) == hand_listed_env_hash(cfg)


def _bump(v):
    if isinstance(v, (bool, np.bool_)):
        return not v
    return v + 1 if isinstance(v, int) else v + 0.01


def leaf_perturbations(obj, prefix=""):
    """(name, copy of obj with that one scalar leaf changed) for every leaf
    of a dataclass, recursing into nested dataclasses and sequences."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v):
            for name, sub in leaf_perturbations(v, f"{prefix}{f.name}."):
                yield name, dataclasses.replace(obj, **{f.name: sub})
        elif isinstance(v, (tuple, np.ndarray)):
            for k in range(len(v)):
                seq = list(v)
                seq[k] = _bump(seq[k])
                new = tuple(seq) if isinstance(v, tuple) else np.array(seq)
                yield f"{prefix}{f.name}[{k}]", dataclasses.replace(obj, **{f.name: new})
        else:
            yield prefix + f.name, dataclasses.replace(obj, **{f.name: _bump(v)})


def test_env_hash_changes_with_every_leaf_field():
    base = EnvConfig()
    changed = dict(leaf_perturbations(base))
    # 15 EnvConfig fields, three of them dataclasses, 34 scalars in all
    assert len(changed) == 34
    for name, cfg in changed.items():
        assert env_config_hash(cfg) != env_config_hash(base), name


def test_env_hash_tracks_task_changes():
    cfg = quick_env()
    assert env_config_hash(cfg) == env_config_hash(quick_env())
    changed = dataclasses.replace(cfg, mass_range=(0.9, 1.1))
    assert env_config_hash(changed) != env_config_hash(cfg)
    changed = dataclasses.replace(cfg, oob_radius=cfg.oob_radius + 0.1)
    assert env_config_hash(changed) != env_config_hash(cfg)


# ------------------------------------------------- evaluation


def test_evaluate_policy_worker_count_invariance():
    net = policy_init(np.random.default_rng(40), PpoConfig())
    cfg = quick_env()
    w = RewardWeights()
    episodes = EVAL_CHUNK * 2 + 5  # forces multiple uneven chunks
    r1 = evaluate_policy(net, cfg, w, episodes, seed=555, workers=1)
    r4 = evaluate_policy(net, cfg, w, episodes, seed=555, workers=4)
    assert r1.summary == r4.summary
    assert r1.episodes == r4.episodes


def test_evaluate_policy_episode_count_invariance():
    # episode k is seeded (seed, k), and a whole EVAL_CHUNK chunk runs the
    # policy on the same rows whatever the episode count, so the first 32
    # (EVAL_CHUNK) episodes of a 40-episode run are a 32-episode run.
    # Episodes in a partial last chunk are not claimed: the policy's rows
    # may round differently in a batch of another size (learn.train)
    net = policy_init(np.random.default_rng(41), PpoConfig())
    cfg = quick_env()
    w = RewardWeights()
    r_small = evaluate_policy(net, cfg, w, EVAL_CHUNK, seed=556)
    r_big = evaluate_policy(net, cfg, w, EVAL_CHUNK + 8, seed=556)
    assert len(r_big.episodes) == EVAL_CHUNK + 8
    assert r_big.episodes[:EVAL_CHUNK] == r_small.episodes


def test_evaluate_policy_validation_and_logs(tmp_path):
    net = policy_init(np.random.default_rng(42), PpoConfig())
    cfg = quick_env()
    with pytest.raises(ValueError):
        evaluate_policy(net, cfg, RewardWeights(), 0, seed=1)
    r = evaluate_policy(net, cfg, RewardWeights(), 3, seed=1, logs_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"episode_{k:04d}.csv" for k in range(3)]
    for k, rec in enumerate(r.episodes):
        path = tmp_path / f"episode_{k:04d}.csv"
        log = read_log(path)
        assert len(log) == rec["steps"]
        assert column(log, "t")[0] == 0.0
        assert labels(path) == (["rl_policy"] * len(log), [k] * len(log))


def _eval_peak_bytes(net, episode_len: int, logs_dir) -> int:
    """tracemalloc peak of a logged eval whose 16 episodes all time out."""
    # no episode can hold the goal for 801 ticks or leave a 1 km sphere
    cfg = EnvConfig(episode_len=episode_len, hold_steps=801, oob_radius=1000.0)
    tracemalloc.start()
    try:
        r = evaluate_policy(net, cfg, RewardWeights(), 16, seed=3, logs_dir=logs_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e["reason"] for e in r.episodes] == ["timeout"] * 16
    assert [e["steps"] for e in r.episodes] == [episode_len] * 16
    return peak


def test_evaluate_policy_log_memory_independent_of_episode_len(tmp_path):
    # rows go to the chunk's log writer process in batches of LOG_BATCH,
    # so the chunk holds at most one batch, and four times the episode
    # length holds no more memory; a (16, episode_len, 32) float64 buffer
    # would add 2.5 MB between the two
    net = policy_init(np.random.default_rng(42), PpoConfig())
    (tmp_path / "short").mkdir()
    (tmp_path / "long").mkdir()
    short = _eval_peak_bytes(net, 200, tmp_path / "short")
    long = _eval_peak_bytes(net, 800, tmp_path / "long")
    assert abs(long - short) < 1_000_000, (short, long)
    assert len(read_log(tmp_path / "long" / "episode_0015.csv")) == 800


def test_evaluate_policy_logs_span_chunks_and_workers(tmp_path, monkeypatch):
    # 6 chunks of 2 on 2 workers, so a worker runs several chunks in turn
    monkeypatch.setattr(train_module, "EVAL_CHUNK", 2)
    net = policy_init(np.random.default_rng(43), PpoConfig())
    dirs = {w: tmp_path / f"w{w}" for w in (1, 2)}
    results = {}
    for w, d in dirs.items():
        d.mkdir()
        results[w] = evaluate_policy(
            net, quick_env(), RewardWeights(), 11, seed=5, workers=w, logs_dir=d
        )
    assert results[1].episodes == results[2].episodes
    names = [f"episode_{k:04d}.csv" for k in range(11)]
    for d in dirs.values():
        assert sorted(p.name for p in d.iterdir()) == names
    for name in names:
        assert (dirs[1] / name).read_bytes() == (dirs[2] / name).read_bytes(), name


# ------------------------------------------------- training loop


def smoke_ppo(**kw):
    base = dict(
        n_envs=2,
        horizon=32,
        minibatch_size=32,
        epochs=2,
        total_env_steps=128,
        eval_every=1,
        eval_episodes=2,
        eval_seed=77,
        hidden=(16,),
    )
    base.update(kw)
    return PpoConfig(**base)


def test_train_smoke_writes_artifacts(tmp_path):
    res = train(quick_env(), RewardWeights(), smoke_ppo(), seed=5, out_dir=tmp_path, log_fn=None)
    assert res.env_steps == 128 and res.iterations == 2
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "final.ckpt").exists()
    assert len(res.curve) == 2
    assert [row["env_steps"] for row in res.curve] == [64, 128]
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "env_steps,mean_return,success_rate,policy_loss,value_loss,entropy,approx_kl,clip_fraction"
    assert len(curve) == 3
    net, _ = load_policy(tmp_path / "final.ckpt")
    for a, b in zip(param_list(net), param_list(res.net)):
        np.testing.assert_array_equal(a, b)


def test_train_deterministic(tmp_path):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r2").mkdir()
    train(quick_env(), RewardWeights(), smoke_ppo(), seed=9, out_dir=tmp_path / "r1",
          log_fn=None)
    train(quick_env(), RewardWeights(), smoke_ppo(), seed=9, out_dir=tmp_path / "r2",
          log_fn=None)
    assert (tmp_path / "r1/final.ckpt").read_bytes() == (tmp_path / "r2/final.ckpt").read_bytes()
    assert (tmp_path / "r1/best.ckpt").read_bytes() == (tmp_path / "r2/best.ckpt").read_bytes()
    assert (tmp_path / "r1/curve.csv").read_text() == (tmp_path / "r2/curve.csv").read_text()


def test_train_insufficient_steps(tmp_path):
    with pytest.raises(ValueError, match="insufficient steps"):
        train(quick_env(), RewardWeights(), smoke_ppo(total_env_steps=32), seed=0,
              out_dir=tmp_path, log_fn=None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_crash_still_saves(tmp_path):
    # an absurd learning rate overflows the value loss on the second
    # minibatch; the loop must save the last finite net before re-raising
    with pytest.raises(UpdateDivergedError):
        train(
            quick_env(),
            RewardWeights(),
            smoke_ppo(lr=1e200),
            seed=3,
            out_dir=tmp_path,
            log_fn=None,
        )
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "curve.csv").exists()
    net, _ = load_policy(tmp_path / "final.ckpt")
    for arr in param_list(net):
        assert np.all(np.isfinite(arr))
