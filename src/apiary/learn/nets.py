"""Small dense networks with handwritten backprop, float64 throughout.

The policy is a diagonal-Gaussian over 6 wrench channels: an MLP maps the
normalized 12-d observation to the action mean, and a state-independent
log-std vector (clamped to [LOG_STD_MIN, LOG_STD_MAX]) sets exploration
noise. A separate MLP of the same width is the value function. Hidden
activations are tanh, output heads linear.

Parameters travel as a flat list of arrays in a fixed declaration order
(actor W/b pairs, log_std, critic W/b pairs); the optimizer, the gradient
check and the checkpoint format all rely on that order.

`mlp_forward` takes an optional workspace, and `mlp_backward` a required
one: a dict of scratch arrays keyed by (name, shape), filled on first
use. Its owner is whoever creates it: `ppo.ppo_update` makes one per
update and passes it to every minibatch. With a workspace,
`mlp_forward`'s output and cache live in it and are overwritten by the
next call that uses the same workspace, so a caller must finish with one
pass before starting the next. Without one (rollouts, evaluation) every
forward pass allocates fresh arrays. The arithmetic is the same either
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..env import ACT_DIM, OBS_DIM

if TYPE_CHECKING:
    from .ppo import PpoConfig

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0

# Adam's moment decay rates and the denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# obs components are divided by these before the actor/critic see them:
# position error in m, rotation error in rad (full scale pi), velocities
# against a 0.5 m/s | rad/s envelope.
DEFAULT_OBS_SCALES = np.array([1.0] * 3 + [np.pi] * 3 + [0.5] * 6)


@dataclass
class MlpParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def mlp_init(sizes: list[int], rng: np.random.Generator, out_scale: float = 1.0) -> MlpParams:
    """He-style init scaled for tanh; final layer shrunk by out_scale."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for k in range(len(sizes) - 1):
        fan_in = sizes[k]
        w = rng.standard_normal((sizes[k], sizes[k + 1])) * np.sqrt(1.0 / fan_in)
        if k == len(sizes) - 2:
            w = w * out_scale
        weights.append(w)
        biases.append(np.zeros(sizes[k + 1]))
    return MlpParams(weights, biases)


def _scratch(ws: dict, name, shape: tuple[int, ...]) -> np.ndarray:
    """The workspace array for (name, shape), made on first use.

    Fresh (B, 64) temporaries are large enough that the allocator hands
    them back to the OS, so every new one page-faults. Callers pass
    out=None instead when there is no workspace, so that numpy allocates
    and a single-row call pays for no lookup.
    """
    key = (name, shape)
    if key not in ws:
        ws[key] = np.empty(shape)
    return ws[key]


def mlp_forward(
    params: MlpParams, x: np.ndarray, ws: dict | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (output, cache). x is (B, in) or (in,); cache feeds mlp_backward.

    With a workspace, the output and every cached activation live in it and
    are overwritten by the next call that uses the same workspace.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    cache = [x]
    h = x
    n_layers = len(params.weights)
    for k in range(n_layers):
        w = params.weights[k]
        out = None if ws is None else _scratch(ws, ("h", k), (h.shape[0], w.shape[1]))
        h = np.matmul(h, w, out=out)
        h += params.biases[k]
        if k < n_layers - 1:
            np.tanh(h, out=h)
        cache.append(h)
    return (h[0] if squeeze else h), cache


def mlp_backward(
    params: MlpParams, cache: list[np.ndarray], dy: np.ndarray, ws: dict
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of sum(dy * output) w.r.t. weights and biases.

    dy is (B, out); returns (dweights, dbiases) matching params' shapes.
    The backpropagated signal alternates between two of the workspace's
    arrays; the returned gradients are always fresh.
    """
    n_layers = len(params.weights)
    dws = [None] * n_layers
    dbs = [None] * n_layers
    grad = np.asarray(dy, dtype=np.float64)
    for k in range(n_layers - 1, -1, -1):
        h_in = cache[k]
        # d(tanh) applied at hidden layers only; output layer is linear:
        # grad * (1 - h**2), one operation at a time
        if k < n_layers - 1:
            h = cache[k + 1]
            d = np.multiply(h, h, out=_scratch(ws, "dtanh", h.shape))
            np.subtract(1.0, d, out=d)
            grad = np.multiply(grad, d, out=d)
        dws[k] = h_in.T @ grad
        dbs[k] = grad.sum(axis=0)
        if k > 0:
            w = params.weights[k]
            grad = np.matmul(grad, w.T, out=_scratch(ws, "grad", (grad.shape[0], w.shape[0])))
    return dws, dbs


@dataclass
class PolicyNet:
    actor: MlpParams
    log_std: np.ndarray
    critic: MlpParams
    obs_scales: np.ndarray = field(default_factory=lambda: DEFAULT_OBS_SCALES.copy())

    def __post_init__(self) -> None:
        self.log_std = np.asarray(self.log_std, dtype=np.float64)
        self.obs_scales = np.asarray(self.obs_scales, dtype=np.float64)


def policy_init(rng: np.random.Generator, ppo_cfg: PpoConfig) -> PolicyNet:
    """A fresh net of `ppo_cfg.hidden` widths and log-std `ppo_cfg.log_std_init`."""
    hidden = ppo_cfg.hidden
    actor = mlp_init([OBS_DIM, *hidden, ACT_DIM], rng, out_scale=0.01)
    critic = mlp_init([OBS_DIM, *hidden, 1], rng)
    return PolicyNet(actor, np.full(ACT_DIM, float(ppo_cfg.log_std_init)), critic)


def clamped_log_std(net: PolicyNet) -> np.ndarray:
    return np.clip(net.log_std, LOG_STD_MIN, LOG_STD_MAX)


def normalize_obs(net: PolicyNet, obs: np.ndarray) -> np.ndarray:
    return np.asarray(obs, dtype=np.float64) / net.obs_scales


def policy_mean(net: PolicyNet, obs: np.ndarray) -> np.ndarray:
    """Deterministic action (Gaussian mean); (B,6) for (B,12) input, (6,) for (12,)."""
    mean, _ = mlp_forward(net.actor, normalize_obs(net, obs))
    return mean


def value(net: PolicyNet, obs: np.ndarray) -> np.ndarray:
    v, _ = mlp_forward(net.critic, normalize_obs(net, obs))
    return v[..., 0]


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density; sums over the trailing action axis."""
    z = (actions - mean) / np.exp(log_std)
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_std) - 0.5 * mean.shape[-1] * np.log(2.0 * np.pi)


def gaussian_entropy(log_std: np.ndarray) -> float:
    return float(np.sum(log_std) + 0.5 * log_std.shape[0] * (1.0 + np.log(2.0 * np.pi)))


class RolloutPolicy:
    """Adapter giving BatchEnv rollouts per-env exploration noise.

    sample() draws noise for env i from rngs[i], so a rollout's action
    sequence for an env depends only on that env's stream, not on n_envs.
    """

    def __init__(self, net: PolicyNet):
        self.net = net

    def sample(self, obs: np.ndarray, rngs: list) -> tuple[np.ndarray, np.ndarray]:
        mean = policy_mean(self.net, obs)
        log_std = clamped_log_std(self.net)
        noise = np.empty(mean.shape)
        for i in range(mean.shape[0]):
            rngs[i].standard_normal(out=noise[i])
        actions = mean + np.exp(log_std) * noise
        return actions, gaussian_log_prob(mean, log_std, actions)

    def value(self, obs: np.ndarray) -> np.ndarray:
        return value(self.net, obs)


def param_list(net: PolicyNet) -> list[np.ndarray]:
    """Flat parameter order shared by Adam, the gradient check and checkpoints."""
    out: list[np.ndarray] = []
    for w, b in zip(net.actor.weights, net.actor.biases):
        out.extend([w, b])
    out.append(net.log_std)
    for w, b in zip(net.critic.weights, net.critic.biases):
        out.extend([w, b])
    return out


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(arrays: list[np.ndarray]) -> AdamState:
    return AdamState([np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays], 0)


def adam_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update, applied to the arrays in place."""
    state.t += 1
    t = state.t
    # a -= lr * (m / c1) / (sqrt(v / c2) + eps), updating in place where
    # the operation order allows
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        den = np.sqrt(v / c2)
        den += ADAM_EPS
        step = m / c1
        step *= lr
        step /= den
        a -= step


def global_grad_norm(grads: list[np.ndarray]) -> float:
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_grads(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Scale the whole gradient so its global L2 norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if max_norm <= 0.0 or norm <= max_norm:
        return grads, norm
    scale = max_norm / norm
    return [g * scale for g in grads], norm
