"""Clipped-surrogate policy optimization on collected rollouts, on two cores.

One update consumes a RolloutBuffer: generalized advantage estimates are
computed per env stream (bootstrapping with the post-rollout value,
masked at episode boundaries), data is flattened env-major, and several
epochs of shuffled minibatch steps follow. Each minibatch normalizes its
own advantages, evaluates the clipped surrogate plus a squared-error
value loss and an entropy bonus, backpropagates by hand through both
MLPs, clips the global gradient norm and applies one Adam step.

The actor (with log_std) and the critic are separate MLPs. Within a
minibatch they share only the observation rows, and across the two nets
only the global gradient norm. So `ppo_update` runs them in two
processes, in lockstep. After GAE and the flattening it forks one update
worker (`child.Child`), which inherits the buffer and a copy of the
shuffle generator, so it draws the same permutations. For each
minibatch:

- the worker runs the critic's forward and backward pass
  (`_critic_grads`) and sends the parent the value loss and, for each
  critic array, whether it is finite and its sum of squares;
- the parent runs the actor's and log_std's (`_actor_grads`), makes the
  divergence checks in their one-process order (the loss, then each
  gradient in `param_list` order) and raises, or sends its own sums back;
- both add the sums in `param_list` order, so both get the same global
  norm and clip factor, and each applies Adam to its own arrays.

At the end the worker sends the critic's weights and biases and their
Adam moments back as raw float64 bytes, and the parent copies them into
place. Each number is computed by the same operations as in one process,
so an update gives the same bytes. While the worker lives, OpenBLAS runs
one thread (`one_blas_thread`; `train` holds it for the whole run): two
processes at two BLAS threads each would fight over two cores. Where the
system allows it, the worker keeps off its parent's core
(`_off_parent_cpu`). If the parent raises or is interrupted, it closes
the worker's input pipe, which the worker takes as "stop", and reaps it.

Each process owns one workspace (see `nets`) for the whole update, which
every minibatch's pass through its net reuses. Finite-difference checks
in the tests pin the two gradient halves against the loss
`_minibatch_stats` reports.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..child import Child
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


def _actor_grads(
    net: PolicyNet,
    obs: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    adv: np.ndarray,
    cfg: PpoConfig,
    ws: dict,
) -> tuple[list[np.ndarray], dict]:
    """The actor's and log_std's loss gradients for one minibatch, ordered
    like the head of nets.param_list, and the policy's stats.

    The loss is  mean(-min(ratio*A, clip(ratio)*A))
               + value_coef*mean((v - returns)^2)
               - entropy_coef*H(pi);
    only its first and last terms depend on the actor and log_std.
    """
    b = obs.shape[0]
    xn = nets.normalize_obs(net, obs)
    mean, cache = nets.mlp_forward(net.actor, xn, ws)
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
    dws, dbs = nets.mlp_backward(net.actor, cache, dmean, ws)
    grads = [g for pair in zip(dws, dbs) for g in pair]
    grads.append(dlog_std)

    stats = {
        "policy_loss": pg_loss,
        "entropy": nets.gaussian_entropy(log_std),
        "approx_kl": float(np.mean(old_log_probs - new_log_probs)),
        "clip_fraction": float(np.mean((np.abs(ratio - 1.0) > cfg.clip_eps).astype(np.float64))),
    }
    return grads, stats


def _critic_grads(
    net: PolicyNet, obs: np.ndarray, returns: np.ndarray, cfg: PpoConfig, ws: dict
) -> tuple[float, list[np.ndarray]]:
    """The value loss mean((v - returns)^2) of one minibatch, and the
    gradients of value_coef times it, ordered like the tail of
    nets.param_list (the critic's arrays)."""
    b = obs.shape[0]
    v_raw, cache = nets.mlp_forward(net.critic, nets.normalize_obs(net, obs), ws)
    v_err = v_raw[:, 0] - returns
    value_loss = float(np.mean(v_err**2))
    dv = (2.0 * cfg.value_coef / b) * v_err
    dws, dbs = nets.mlp_backward(net.critic, cache, dv[:, None], ws)
    return value_loss, [g for pair in zip(dws, dbs) for g in pair]


def _minibatch_stats(actor_stats: dict, value_loss: float, cfg: PpoConfig) -> dict:
    """One minibatch's stats, with the total loss whose gradient the two
    halves are."""
    pg_loss, entropy = actor_stats["policy_loss"], actor_stats["entropy"]
    return {
        "loss": pg_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy,
        "policy_loss": pg_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": actor_stats["approx_kl"],
        "clip_fraction": actor_stats["clip_fraction"],
    }


def _minibatches(n: int, mb: int, epochs: int, rng: np.random.Generator):
    """(epoch, minibatch number, sample indices) of every minibatch step;
    each epoch draws one permutation from rng."""
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, mb):
            yield epoch, start // mb, order[start : start + mb]


def _sum_of_squares(g: np.ndarray) -> float:
    return float(np.sum(g * g))


def _clipped_adam_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    scale: float,
    state: nets.AdamState,
    lr: float,
) -> None:
    """Scale the (fresh) gradients by the clip factor, then one Adam step."""
    if scale != 1.0:
        for g in grads:
            g *= scale
    nets.adam_step(arrays, grads, state, lr)


def _messages(net: PolicyNet) -> tuple[struct.Struct, struct.Struct]:
    """The two messages of one lockstep minibatch step. The worker's: the
    value loss, then for each critic array whether it is finite, then its
    sum of squares (0.0 where it is not finite). The parent's reply: the
    sums of squares of the actor's arrays and log_std."""
    k = 2 * len(net.critic.weights)
    return struct.Struct(f"=d{k}?{k}d"), struct.Struct(f"={2 * len(net.actor.weights) + 1}d")


def _off_parent_cpu(parent: int) -> None:
    """Keep the calling worker off the core its parent runs on, where the
    system tells both (Linux). A pipe write asks the scheduler to run the
    woken reader on the writer's core, as for a writer about to sleep, but
    the parent computes on after its reply, so the two would share one
    core: each 56-byte reply measured about 1.5 ms, the worker's whole
    step. The parent stays free to move."""
    try:
        with open(f"/proc/{parent}/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError, ValueError, IndexError):
        pass  # the system does not tell: the scheduler places the worker


def _critic_worker(
    down_fd: int,
    up_fd: int,
    net: PolicyNet,
    obs: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
    arrays: list[np.ndarray],
    state: nets.AdamState,
    rng: np.random.Generator,
) -> int:
    """The update worker: the critic's half of every minibatch step, in
    lockstep with the parent, then the critic's `arrays` and Adam moments
    to the parent. The end of `down_fd` (the parent raised or was
    interrupted) stops it early; either way it exits 0."""
    _off_parent_cpu(os.getppid())
    n = obs.shape[0]
    message, reply_message = _messages(net)
    ws: dict = {}
    try:
        with open(down_fd, "rb") as down, open(up_fd, "wb") as up:
            for _, _, idx in _minibatches(n, min(cfg.minibatch_size, n), cfg.epochs, rng):
                value_loss, grads = _critic_grads(net, obs[idx], returns[idx], cfg, ws)
                finite = [bool(np.isfinite(g).all()) for g in grads]
                sums = [_sum_of_squares(g) if ok else 0.0 for g, ok in zip(grads, finite)]
                up.write(message.pack(value_loss, *finite, *sums))
                up.flush()
                reply = down.read(reply_message.size)
                if len(reply) < reply_message.size:
                    return 0  # the parent stopped the update
                _, scale = nets.clip_scale([*reply_message.unpack(reply), *sums], cfg.max_grad_norm)
                _clipped_adam_step(arrays, grads, scale, state, cfg.lr)
            up.write(b"".join(a.tobytes() for a in arrays + state.m + state.v))
    except BrokenPipeError:
        pass  # the parent stopped reading: it stopped the update
    return 0


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
    gradient first went non-finite. The critic's half runs in an update
    worker (see the module docstring), which is reaped before this returns
    or raises.
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
    # the actor's arrays and log_std lead param_list; the critic's follow
    head = 2 * len(net.actor.weights) + 1
    critics = len(params) - head
    actor_adam = nets.AdamState(adam_state.m[:head], adam_state.v[:head], adam_state.t)
    critic_state = params[head:] + adam_state.m[head:] + adam_state.v[head:]
    message, reply_message = _messages(net)
    ws: dict = {}

    agg: dict[str, float] = {}
    count = 0
    with one_blas_thread():
        worker = Child(functools.partial(
            _critic_worker, net=net, obs=obs, returns=returns, cfg=cfg, arrays=params[head:],
            state=nets.AdamState(adam_state.m[head:], adam_state.v[head:], adam_state.t),
            rng=rng,
        ))
        try:
            with open(worker.out, "rb") as up:
                for epoch, minibatch, idx in _minibatches(n, mb, cfg.epochs, rng):
                    grads, actor_stats = _actor_grads(
                        net, obs[idx], actions[idx], old_logp[idx],
                        normalize_advantages(adv[idx]), cfg, ws,
                    )
                    value_loss, *checks = message.unpack(_receive(up, message.size, worker))
                    critic_finite, critic_sums = checks[:critics], checks[critics:]
                    stats = _minibatch_stats(actor_stats, value_loss, cfg)
                    if not np.isfinite(stats["loss"]):
                        raise UpdateDivergedError(
                            f"non-finite loss at epoch {epoch}, minibatch {minibatch}"
                        )
                    if not all([np.isfinite(g).all() for g in grads] + critic_finite):
                        raise UpdateDivergedError(
                            f"non-finite gradient at epoch {epoch}, minibatch {minibatch}"
                        )
                    sums = [_sum_of_squares(g) for g in grads]
                    # a worker that stopped shows at the next read
                    with contextlib.suppress(BrokenPipeError):
                        os.write(worker.pipe, reply_message.pack(*sums))
                    grad_norm, scale = nets.clip_scale(sums + critic_sums, cfg.max_grad_norm)
                    _clipped_adam_step(params[:head], grads, scale, actor_adam, cfg.lr)
                    stats["grad_norm"] = grad_norm
                    for key, val in stats.items():
                        agg[key] = agg.get(key, 0.0) + val
                    count += 1
                final = _receive(up, sum(a.nbytes for a in critic_state), worker)
        finally:
            worker.reap()
    offset = 0
    for a in critic_state:
        a[...] = np.frombuffer(final, count=a.size, offset=offset).reshape(a.shape)
        offset += a.nbytes
    adam_state.t = actor_adam.t
    return {k: v / count for k, v in agg.items()}


def _receive(up, size: int, worker: Child) -> bytes:
    """The worker's next `size` bytes; raises RuntimeError if it stopped."""
    data = up.read(size)
    if len(data) < size:
        raise RuntimeError(f"PPO update worker stopped ({worker.reap() or 'exit status 0'})")
    return data


@functools.cache
def _openblas_thread_counts() -> tuple[tuple, ...]:
    """(get, set) of the thread count of every OpenBLAS this process has
    loaded, found in its memory map; empty where there is none to read.
    Looked up on first use, so importing the program loads no library."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({
                parts[5].strip() for parts in (line.split(maxsplit=5) for line in f)
                if len(parts) == 6 and "openblas" in parts[5].lower()
            })
    except OSError:
        return ()
    counts = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                counts.append((get, put))
                break
    return tuple(counts)


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS at one thread inside the block, and back to its count after.

    Only a count that is not one is set. Setting the count restarts
    OpenBLAS's threads once a fork (an update worker, a log writer) has
    stopped them, and a new thread busy-waits for work for a while: on a
    two-core host the next 128-step rollout then took about 110 ms instead
    of 55. So `train` holds one block around the whole run, and the block
    of each update inside it calls nothing.
    """
    counts = [(put, get()) for get, put in _openblas_thread_counts()]
    changed = [(put, threads) for put, threads in counts if threads != 1]
    for put, _ in changed:
        put(1)
    try:
        yield
    finally:
        for put, threads in changed:
            put(threads)
