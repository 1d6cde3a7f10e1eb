"""Clipped-surrogate policy optimization on collected rollouts.

One update consumes a RolloutBuffer: generalized advantage estimates are
computed per env stream (bootstrapping with the post-rollout value,
masked at episode boundaries), data is flattened env-major, and several
epochs of shuffled minibatch steps follow. Each minibatch normalizes its
own advantages, evaluates the clipped surrogate plus a squared-error
value loss and an entropy bonus, backpropagates by hand through both
MLPs, clips the global gradient norm and applies one Adam step.

All gradient math lives in `_minibatch_grads`; a finite-difference check
in the tests pins its gradients against the loss it reports.

`ppo_update` owns one workspace (see `nets`) for the whole update. Every
minibatch runs the actor's forward and backward pass and then the
critic's in the same hidden-layer arrays, which the next pass
overwrites; sharing them keeps the update's memory at one net's worth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..env import RolloutBuffer
from . import nets
from .nets import PolicyNet


class UpdateDivergedError(RuntimeError):
    """A loss or gradient went non-finite during an update."""


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip_eps: float = 0.2
    lr: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 1024
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    max_grad_norm: float = 0.5
    n_envs: int = 64
    horizon: int = 256
    total_env_steps: int = 3_000_000
    hidden: tuple[int, ...] = (64, 64)
    log_std_init: float = -0.5
    eval_every: int = 10
    eval_episodes: int = 20
    eval_seed: int = 9000

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= 1.0 and 0.0 <= self.lam <= 1.0):
            raise ValueError("gamma in (0,1], lam in [0,1]")
        if self.clip_eps <= 0.0 or self.lr <= 0.0:
            raise ValueError("clip_eps and lr must be positive")
        if min(self.epochs, self.minibatch_size, self.n_envs, self.horizon) < 1:
            raise ValueError("epochs, minibatch_size, n_envs, horizon must be >= 1")
        if min(self.eval_every, self.eval_episodes) < 1:
            raise ValueError("eval_every and eval_episodes must be >= 1")
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden}")


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_values: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over (n_envs, horizon) arrays.

    dones[i, t] = 1 marks a terminal transition; the value beyond it is
    masked so credit never leaks across episode boundaries. Returns
    (advantages, value_targets), both (n_envs, horizon).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    n, h = rewards.shape
    adv = np.zeros((n, h))
    last = np.zeros(n)
    next_values = np.asarray(bootstrap_values, dtype=np.float64).copy()
    for t in range(h - 1, -1, -1):
        nonterminal = 1.0 - dones[:, t]
        delta = rewards[:, t] + gamma * next_values * nonterminal - values[:, t]
        last = delta + gamma * lam * nonterminal * last
        adv[:, t] = last
        next_values = values[:, t]
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std advantages (population std, 1e-8 floor)."""
    mu = adv.mean()
    sd = adv.std()
    return (adv - mu) / (sd + 1e-8)


def _minibatch_grads(
    net: PolicyNet,
    obs: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    adv: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
    ws: dict,
) -> tuple[list[np.ndarray], dict]:
    """Loss gradients for one minibatch, ordered like nets.param_list.

    The loss is  mean(-min(ratio*A, clip(ratio)*A))
               + value_coef*mean((v - returns)^2)
               - entropy_coef*H(pi).

    The actor's forward and backward pass finish before the critic's
    start, so both nets run in the same hidden arrays of the workspace.
    """
    b = obs.shape[0]
    xn = nets.normalize_obs(net, obs)
    mean, actor_cache = nets.mlp_forward(net.actor, xn, ws)
    log_std = nets.clamped_log_std(net)
    std = np.exp(log_std)

    new_log_probs = nets.gaussian_log_prob(mean, log_std, actions)
    ratio = np.exp(new_log_probs - old_log_probs)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    pg_loss = float(np.mean(-np.minimum(surr1, surr2)))

    # d(loss)/d(log pi): only samples where the unclipped branch is active
    # carry gradient; elsewhere the clipped constant wins the min.
    active = (surr1 <= surr2).astype(np.float64)
    dlogp = -(ratio * adv * active) / b

    # d(logp)/d(mean) = (a - mean)/std^2 per channel
    z = (actions - mean) / std
    dmean = dlogp[:, None] * z / std
    # d(logp)/d(log_std_j) = z_j^2 - 1 (state independent); entropy adds
    # dH/dlog_std = 1 per channel. Clamped channels get zero gradient.
    dlog_std = np.sum(dlogp[:, None] * (z * z - 1.0), axis=0) - cfg.entropy_coef
    dlog_std = np.where(
        (net.log_std < nets.LOG_STD_MIN) | (net.log_std > nets.LOG_STD_MAX),
        0.0,
        dlog_std,
    )
    actor_dw, actor_db = nets.mlp_backward(net.actor, actor_cache, dmean, ws)

    v_raw, critic_cache = nets.mlp_forward(net.critic, xn, ws)
    v_err = v_raw[:, 0] - returns
    value_loss = float(np.mean(v_err**2))
    dv = (2.0 * cfg.value_coef / b) * v_err
    critic_dw, critic_db = nets.mlp_backward(net.critic, critic_cache, dv[:, None], ws)

    entropy = nets.gaussian_entropy(log_std)
    loss = pg_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

    grads: list[np.ndarray] = []
    for dw, db in zip(actor_dw, actor_db):
        grads.extend([dw, db])
    grads.append(dlog_std)
    for dw, db in zip(critic_dw, critic_db):
        grads.extend([dw, db])

    approx_kl = float(np.mean(old_log_probs - new_log_probs))
    clip_frac = float(np.mean((np.abs(ratio - 1.0) > cfg.clip_eps).astype(np.float64)))
    stats = {
        "loss": loss,
        "policy_loss": pg_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": approx_kl,
        "clip_fraction": clip_frac,
    }
    return grads, stats


def ppo_update(
    net: PolicyNet,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    adam_state: nets.AdamState,
    rng: np.random.Generator,
) -> dict:
    """Run epochs x minibatches of clipped-surrogate steps on the buffer.

    Mutates net and adam_state in place; returns averaged stats. Raises
    UpdateDivergedError naming the (epoch, minibatch) where a loss or
    gradient first went non-finite.
    """
    adv2d, ret2d = gae(
        buffer.rewards, buffer.values, buffer.dones, buffer.bootstrap_values,
        cfg.gamma, cfg.lam,
    )
    obs = buffer.flat(buffer.obs)
    actions = buffer.flat(buffer.actions)
    old_logp = buffer.flat(buffer.log_probs)
    adv = buffer.flat(adv2d)
    returns = buffer.flat(ret2d)
    n = obs.shape[0]
    mb = min(cfg.minibatch_size, n)
    params = nets.param_list(net)
    ws: dict = {}

    agg: dict[str, float] = {}
    count = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, mb):
            idx = order[start : start + mb]
            mb_adv = normalize_advantages(adv[idx])
            grads, stats = _minibatch_grads(
                net, obs[idx], actions[idx], old_logp[idx], mb_adv, returns[idx], cfg, ws
            )
            if not np.isfinite(stats["loss"]):
                raise UpdateDivergedError(
                    f"non-finite loss at epoch {epoch}, minibatch {start // mb}"
                )
            for g in grads:
                if not np.isfinite(g).all():
                    raise UpdateDivergedError(
                        f"non-finite gradient at epoch {epoch}, minibatch {start // mb}"
                    )
            grads, grad_norm = nets.clip_grads(grads, cfg.max_grad_norm)
            nets.adam_step(params, grads, adam_state, cfg.lr)
            stats["grad_norm"] = grad_norm
            for k, val in stats.items():
                agg[k] = agg.get(k, 0.0) + val
            count += 1
    return {k: v / count for k, v in agg.items()}
