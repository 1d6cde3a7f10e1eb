"""Episodic move-to-pose task with domain randomization.

An episode starts at the origin at rest. `BatchEnv.reset_env`, the one
place an episode is drawn, samples a goal pose (uniform per-axis position
offset and per-axis rotation-vector angle) and a body mass factor. The
observation is the 12-vector

    [pos_err(3), ori_err(3), lin_vel(3), ang_vel(3)]

with pos_err = goal - current in the world frame, ori_err the world-frame
rotation vector from current to goal attitude, lin_vel world, ang_vel
body. Reward pays for reducing pose error (potential difference form),
charges for speed every step, pays a one-time bonus when the success
condition latches (in tolerance for hold_steps consecutive steps) and a
penalty on leaving the play volume:

    r = w_pos*(|e_p'| - |e_p|) + w_ori*(|e_o'| - |e_o|)
        - w_linvel*|v| - w_angvel*|w| + bonus*[success latched] - penalty*[oob]

Both bracket terms coincide with episode termination, so each pays at
most once. Termination: the success condition held for hold_steps
consecutive steps, out-of-bounds, or episode_len reached.

`BatchEnv` advances n independent environments with broadcastable array
math, so row i of a batch is bit-identical to a batch of one stepped alone
with row i's RNG stream, which is derived from (master seed, env index).
Without auto-reset (evaluation), a finished row parks under zero wrench
while the rest of the batch runs on.
The flight loop in `mission` computes the errors of `observe_arrays` and
the norms of `obs_norms` per tick in Python floats, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import math3d as m3
from .actuation import ActuationLimits
from .dynamics import (
    FULL_6DOF,
    BodyParams,
    DofMask,
    SimulationDivergedError,
    step_arrays,
)

OBS_DIM = 12
ACT_DIM = 6
# the action clip's bounds
_ONE = np.array(1.0)
_MINUS_ONE = np.array(-1.0)
POS_ERR = slice(0, 3)
ORI_ERR = slice(3, 6)


def _constant(value) -> np.ndarray:
    """A read-only array of value; for a scalar, 0-d (array * 0-d array is
    numpy's cheapest operation with a scalar)."""
    arr = np.array(value)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RewardWeights:
    w_pos: float = 10.0
    w_ori: float = 5.0
    w_linvel: float = 0.05
    w_angvel: float = 0.05
    bonus_success: float = 20.0
    penalty_oob: float = 10.0

    def __post_init__(self) -> None:
        if min(self.w_pos, self.w_ori, self.w_linvel, self.w_angvel) < 0.0:
            raise ValueError("reward weights must be >= 0")
        # cached once: the weights of obs_norms' four columns, and the two
        # event terms
        for name, value in (
            ("_channel_weights", [self.w_pos, self.w_ori, self.w_linvel, self.w_angvel]),
            ("_penalty", self.penalty_oob),
            ("_bonus", self.bonus_success),
        ):
            object.__setattr__(self, name, _constant(value))


@dataclass(frozen=True)
class EnvConfig:
    goal_pos_range: np.ndarray = field(default_factory=lambda: m3.vec3(0.5, 0.5, 0.5))
    goal_ang_range: np.ndarray = field(
        default_factory=lambda: np.full(3, np.deg2rad(30.0))
    )
    mass_range: tuple[float, float] = (0.75, 1.25)
    episode_len: int = 1875
    success_pos_tol: float = 0.05
    success_ori_tol: float = float(np.deg2rad(5.0))
    success_vel_tol: float = 0.05
    success_angvel_tol: float = 0.05
    hold_steps: int = 25
    oob_radius: float = 2.0
    dt: float = 0.016
    mask: DofMask = FULL_6DOF
    body: BodyParams = field(default_factory=BodyParams)
    limits: ActuationLimits = field(default_factory=ActuationLimits)
    body_frame_obs: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "goal_pos_range", np.asarray(self.goal_pos_range, dtype=np.float64)
        )
        object.__setattr__(
            self, "goal_ang_range", np.asarray(self.goal_ang_range, dtype=np.float64)
        )
        if self.episode_len <= 0:
            raise ValueError("episode_len must be positive")
        if min(
            self.success_pos_tol,
            self.success_ori_tol,
            self.success_vel_tol,
            self.success_angvel_tol,
        ) <= 0.0:
            raise ValueError("success tolerances must be positive")
        lo, hi = self.mass_range
        if not (0.0 < lo <= hi):
            raise ValueError("mass_range must satisfy 0 < lo <= hi")
        if self.hold_steps <= 0 or self.oob_radius <= 0.0:
            raise ValueError("hold_steps and oob_radius must be positive")
        if not 0.0 < self.dt <= 0.5:
            raise ValueError(f"dt must be in (0, 0.5], got {self.dt}")
        # cached once: the success tolerances against obs_norms' columns,
        # and the scalars a tick compares with as 0-d arrays
        for name, value in (
            ("_success_tols", [
                self.success_pos_tol,
                self.success_ori_tol,
                self.success_vel_tol,
                self.success_angvel_tol,
            ]),
            ("_oob_radius", self.oob_radius),
            ("_hold_steps", self.hold_steps),
            ("_episode_len", self.episode_len),
        ):
            object.__setattr__(self, name, _constant(value))


def observe_arrays(
    position: np.ndarray,
    attitude: np.ndarray,
    lin_vel: np.ndarray,
    ang_vel: np.ndarray,
    goal_pos: np.ndarray,
    goal_terms: np.ndarray,
    body_frame: bool,
) -> np.ndarray:
    """(..., 12) observation; all-zero exactly when the state sits at the goal.

    The goal attitude enters as `m3.quat_error_terms(goal_att)`, which a
    caller keeps per goal.
    """
    pos_err = goal_pos - position
    ori_err = m3.quat_error_from_terms(goal_terms, attitude)
    if body_frame:
        # the three world-frame vectors rotate as one (..., 3, 3) batch
        world = np.stack([pos_err, ori_err, lin_vel], axis=-2)
        body = m3.quat_rotate_inv(attitude[..., None, :], world)
        return np.concatenate([body.reshape(body.shape[:-2] + (9,)), ang_vel], axis=-1)
    return np.concatenate([pos_err, ori_err, lin_vel, ang_vel], axis=-1)


def obs_norms(obs: np.ndarray) -> np.ndarray:
    """Channel norms (|e_p|, |e_o|, |v|, |w|) of observations: (..., 12) -> (..., 4).

    Bit-identical to `m3.vec_norm` of each 3-slice on its own.
    """
    obs = np.asarray(obs, dtype=np.float64)
    return m3.vec_norm(obs.reshape(obs.shape[:-1] + (4, 3)))


def success_flags(norms: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Instantaneous success condition (pose and twist inside tolerances)
    from `obs_norms` output."""
    return np.logical_and.reduce(norms <= config._success_tols, axis=-1)


def reward_arrays(
    prev: np.ndarray,
    norms: np.ndarray,
    weights: RewardWeights,
    config: EnvConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base reward (shaping, velocity costs, oob penalty) plus condition flags,
    from the `obs_norms` of the previous and the new observation.

    The success bonus is NOT included here: it pays out only once the
    success condition has latched (held for hold_steps consecutive ticks),
    which is episode bookkeeping the caller owns. Out-of-bounds is a
    single-tick event because it terminates the episode.
    """
    oob = norms[..., 0] > config._oob_radius
    # one multiply weighs all four channels: the shaping differences
    # (prev - new) of |e_p| and |e_o|, then the speeds |v| and |w|
    c = np.concatenate([(prev - norms)[..., :2], norms[..., 2:]], axis=-1)
    c *= weights._channel_weights
    # ((w_pos*dp + w_ori*do) - w_linvel*|v|) - w_angvel*|w| - penalty*oob
    r = ((c[..., 0] + c[..., 1]) - c[..., 2]) - c[..., 3]
    r -= oob * weights._penalty
    return r, success_flags(norms, config), oob


def _rows(k: int, n: int) -> np.ndarray:
    """Zeros for n rows of k components, stored component-major: the
    (n, k) transpose of a C-ordered (k, n) array."""
    return np.zeros((k, n)).T


def _state_views(n: int) -> tuple[np.ndarray, ...]:
    """An (n, 13) state of zeros and its position, attitude, linear and
    angular velocity column views."""
    state = _rows(13, n)
    return state, state[:, 0:3], state[:, 3:7], state[:, 7:10], state[:, 10:13]


class BatchEnv:
    """n independent environments advanced in lockstep with array math.

    Per-env RNG streams are seeded from (master seed, env index), so the
    trajectory of env i does not depend on n_envs or on how a caller
    shards work. With auto_reset a finished environment immediately starts
    a new episode; without it (used for evaluation) the environment is
    marked `frozen` and parks: later ticks step it under zero wrench and it
    never finishes again. `norms` holds `obs_norms(obs)`, which the next
    tick's reward reads as its previous norms.

    The state is one (n, 13) array, `state`, and `pos`, `att`, `linvel`
    and `angvel` are views of its columns. A tick writes the new state
    into a second such array in one call, checks it for finiteness in one
    more and only then swaps the two, views and all, so a tick that raises
    leaves every array of the env as it was. Every
    (n, k) array is stored component-major (the transpose of a C-ordered
    (k, n) array), the layout the `math3d` kernels compute in; the obs
    `step` returns is a C-ordered copy. `step` pays a fixed cost per call
    whatever n is, so it keeps its numpy calls few. It reads what a reset
    or the config fixes instead of rebuilding it: the goal's half of the
    orientation-error products (`m3.quat_error_terms`, refreshed when a
    row resets), the tolerance vector and 0-d scalars `EnvConfig` and
    `RewardWeights` cache, and dt as a 0-d array. Only on a tick with a
    parked row does it pay for zeroing that row's wrench and masking its
    reward and done flag.
    """

    def __init__(
        self,
        n_envs: int,
        config: EnvConfig,
        weights: RewardWeights,
        seed: int = 0,
        auto_reset: bool = True,
        episode_seeds: list | None = None,
    ):
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self.n = n_envs
        self.config = config
        self.weights = weights
        self.auto_reset = auto_reset
        if episode_seeds is not None:
            if len(episode_seeds) != n_envs:
                raise ValueError("need one episode seed per env")
            self.rngs = [np.random.default_rng(s) for s in episode_seeds]
        else:
            self.rngs = [np.random.default_rng([seed, i]) for i in range(n_envs)]

        self.state, self.pos, self.att, self.linvel, self.angvel = _state_views(n_envs)
        # the buffer the next tick writes its state into
        self._spare = _state_views(n_envs)
        self.goal_pos = _rows(3, n_envs)
        self.goal_att = _rows(4, n_envs)
        self._goal_terms = _rows(16, n_envs)
        self.mass = np.full(n_envs, config.body.mass)
        self.inertia = _rows(3, n_envs)
        self.com = _rows(3, n_envs)
        self.com[:] = config.body.com_offset
        self.hold = np.zeros(n_envs, dtype=np.int64)
        self.steps = np.zeros(n_envs, dtype=np.int64)
        self.frozen = np.zeros(n_envs, dtype=bool)
        self.obs = _rows(OBS_DIM, n_envs)
        self.norms = _rows(4, n_envs)
        self.episode_return = np.zeros(n_envs)
        self._tmask = config.mask.translation_floats()
        self._rmask = config.mask.rotation_floats()
        self._dt = np.array(config.dt)
        lim = config.limits
        self._wrench_scale = np.array([lim.f_max] * 3 + [lim.tau_max] * 3)[:, None]
        # the tick's wrench, component-major, and its force and torque views
        self._wrench = np.zeros((ACT_DIM, n_envs))
        self._force = self._wrench[:3].T
        self._torque = self._wrench[3:].T
        for i in range(n_envs):
            self.reset_env(i)

    def reset_env(self, i: int) -> None:
        """Start a fresh episode in row i from the row's RNG stream.

        The start pose is always origin/identity/rest. The draw is a goal
        position, a goal rotation vector and a mass factor, in that order;
        goal components on masked DOFs are zeroed so constrained scenarios
        stay reachable, and inertia scales with mass (uniform density).
        """
        cfg, rng = self.config, self.rngs[i]
        goal_pos = rng.uniform(-cfg.goal_pos_range, cfg.goal_pos_range) * self._tmask
        goal_rotvec = rng.uniform(-cfg.goal_ang_range, cfg.goal_ang_range) * self._rmask
        f = rng.uniform(cfg.mass_range[0], cfg.mass_range[1])
        self.state[i] = 0.0
        self.att[i] = m3.quat_identity()
        self.goal_pos[i] = goal_pos
        self.goal_att[i] = m3.quat_from_rotvec(goal_rotvec)
        self._goal_terms[i] = m3.quat_error_terms(self.goal_att[i])
        self.mass[i] = cfg.body.mass * f
        self.inertia[i] = cfg.body.inertia_diag * f
        self.hold[i] = 0
        self.steps[i] = 0
        self.frozen[i] = False
        self.episode_return[i] = 0.0
        self.obs[i] = observe_arrays(
            self.pos[i],
            self.att[i],
            self.linvel[i],
            self.angvel[i],
            self.goal_pos[i],
            self._goal_terms[i],
            self.config.body_frame_obs,
        )
        self.norms[i] = obs_norms(self.obs[i])

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Advance every env one tick, a parked (frozen) one under zero wrench.

        Returns (obs, rewards, dones, finished) where finished lists one
        record per episode that terminated on this tick, a dict with keys
        `env` (the row), `reason` (success, oob or timeout), `success` (1
        or 0), `steps`, `episode_return` and the episode's final channel
        norms `final_pos_err`, `final_ori_err`, `final_lin_vel` and
        `final_ang_vel` (`obs_norms` of the row's last observation, taken
        before an auto-reset replaces it). A parked row's reward is 0 and
        its done False; its obs is not read. If the new state is not
        finite, SimulationDivergedError names the first such row, and the
        env keeps the state of the tick before.
        """
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n, ACT_DIM):
            raise ValueError(f"actions must have shape ({self.n}, {ACT_DIM})")
        finite = np.isfinite(actions)
        if np.count_nonzero(finite) != finite.size:
            bad = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"non-finite action for env {bad}")
        cfg = self.config
        # the wrench: np.clip to [-1, 1] (for finite actions), parked rows
        # zeroed, then the limits
        wt = self._wrench
        np.maximum(actions.T, _MINUS_ONE, out=wt)
        np.minimum(wt, _ONE, out=wt)
        parked = np.count_nonzero(self.frozen)
        if parked:
            wt[:, self.frozen] = 0.0
        wt *= self._wrench_scale

        pos2, att2, lv2, av2 = step_arrays(
            self.pos,
            self.att,
            self.linvel,
            self.angvel,
            self._force,
            self._torque,
            self.mass,
            self.inertia,
            self.com,
            self._tmask,
            self._rmask,
            self._dt,
        )
        new = self._spare
        np.concatenate((pos2, att2, lv2, av2), axis=1, out=new[0])
        finite = np.isfinite(new[0])
        if np.count_nonzero(finite) != finite.size:
            bad = int(np.argmin(finite.all(axis=1)))
            raise SimulationDivergedError(f"env {bad}: state went non-finite")
        self._spare = (self.state, self.pos, self.att, self.linvel, self.angvel)
        self.state, self.pos, self.att, self.linvel, self.angvel = new

        obs = observe_arrays(
            pos2, att2, lv2, av2, self.goal_pos, self._goal_terms, cfg.body_frame_obs
        )
        norms = obs_norms(obs)
        r, succ, oob = reward_arrays(self.norms, norms, self.weights, cfg)
        self.obs, self.norms = obs, norms

        # where(succ, hold + 1, 0)
        self.hold += 1
        self.hold *= succ
        self.steps += 1
        done_success = self.hold >= cfg._hold_steps
        done = done_success | oob
        done |= self.steps >= cfg._episode_len
        r += done_success * self.weights._bonus
        if parked:
            live = ~self.frozen
            done &= live
            r = np.where(live, r, 0.0)
        self.episode_return += r

        finished = []
        for i in done.nonzero()[0].tolist():
            if done_success[i]:
                reason = "success"
            elif oob[i]:
                reason = "oob"
            else:
                reason = "timeout"
            pe, oe, lv, av = norms[i].tolist()
            finished.append(
                {
                    "env": i,
                    "reason": reason,
                    "success": int(done_success[i]),
                    "steps": int(self.steps[i]),
                    "episode_return": float(self.episode_return[i]),
                    "final_pos_err": pe,
                    "final_ori_err": oe,
                    "final_lin_vel": lv,
                    "final_ang_vel": av,
                }
            )
            if self.auto_reset:
                self.reset_env(i)
            else:
                self.frozen[i] = True
        return self.obs.copy(), r, done, finished

    def all_frozen(self) -> bool:
        return np.count_nonzero(self.frozen) == self.n


@dataclass
class RolloutBuffer:
    """On-policy rollout storage, env-major: arrays are (n_envs, horizon, ...)."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    bootstrap_values: np.ndarray
    episode_returns: list[float]

    def flat(self, arr: np.ndarray) -> np.ndarray:
        """(n_envs, horizon, ...) -> (n_envs*horizon, ...) keeping env-major order."""
        return arr.reshape(arr.shape[0] * arr.shape[1], *arr.shape[2:])


def batch_rollout(policy, benv: BatchEnv, horizon: int) -> RolloutBuffer:
    """Collect horizon steps from benv's auto-resetting environments,
    continuing their episodes and RNG streams where the last call left them.

    `policy` provides sample(obs_batch, rngs) -> (actions, log_probs) and
    value(obs_batch) -> values; exploration noise for env i comes from the
    env's own RNG stream.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_envs = benv.n
    obs_buf = np.zeros((n_envs, horizon, OBS_DIM))
    act_buf = np.zeros((n_envs, horizon, ACT_DIM))
    logp_buf = np.zeros((n_envs, horizon))
    rew_buf = np.zeros((n_envs, horizon))
    val_buf = np.zeros((n_envs, horizon))
    done_buf = np.zeros((n_envs, horizon))
    ep_returns: list[float] = []

    obs = benv.obs.copy()
    for t in range(horizon):
        actions, log_probs = policy.sample(obs, benv.rngs)
        values = policy.value(obs)
        obs_buf[:, t] = obs
        act_buf[:, t] = actions
        logp_buf[:, t] = log_probs
        val_buf[:, t] = values
        obs, r, done, finished = benv.step(actions)
        rew_buf[:, t] = r
        done_buf[:, t] = done
        ep_returns.extend(rec["episode_return"] for rec in finished)
    bootstrap = policy.value(obs)
    return RolloutBuffer(
        obs=obs_buf,
        actions=act_buf,
        log_probs=logp_buf,
        rewards=rew_buf,
        values=val_buf,
        dones=done_buf,
        bootstrap_values=bootstrap,
        episode_returns=ep_returns,
    )
