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
POS_ERR = slice(0, 3)
ORI_ERR = slice(3, 6)


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


def observe_arrays(
    position: np.ndarray,
    attitude: np.ndarray,
    lin_vel: np.ndarray,
    ang_vel: np.ndarray,
    goal_pos: np.ndarray,
    goal_att: np.ndarray,
    body_frame: bool,
) -> np.ndarray:
    """(..., 12) observation; all-zero exactly when the state sits at the goal."""
    pos_err = goal_pos - position
    ori_err = m3.quat_error(goal_att, attitude)
    vel = lin_vel
    if body_frame:
        pos_err = m3.quat_rotate_inv(attitude, pos_err)
        ori_err = m3.quat_rotate_inv(attitude, ori_err)
        vel = m3.quat_rotate_inv(attitude, vel)
    return np.concatenate([pos_err, ori_err, vel, ang_vel], axis=-1)


def obs_norms(obs: np.ndarray) -> np.ndarray:
    """Channel norms (|e_p|, |e_o|, |v|, |w|) of observations: (..., 12) -> (..., 4).

    Bit-identical to `m3.vec_norm` of each 3-slice on its own.
    """
    obs = np.asarray(obs, dtype=np.float64)
    return m3.vec_norm(obs.reshape(obs.shape[:-1] + (4, 3)))


def success_flags(norms: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Instantaneous success condition (pose and twist inside tolerances)
    from `obs_norms` output."""
    tols = np.array([
        config.success_pos_tol,
        config.success_ori_tol,
        config.success_vel_tol,
        config.success_angvel_tol,
    ])
    return (norms <= tols).all(axis=-1)


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
    pe = norms[..., 0]
    oob = pe > config.oob_radius
    r = (
        weights.w_pos * (prev[..., 0] - pe)
        + weights.w_ori * (prev[..., 1] - norms[..., 1])
        - weights.w_linvel * norms[..., 2]
        - weights.w_angvel * norms[..., 3]
        - weights.penalty_oob * oob
    )
    return r, success_flags(norms, config), oob


class BatchEnv:
    """n independent environments advanced in lockstep with array math.

    Per-env RNG streams are seeded from (master seed, env index), so the
    trajectory of env i does not depend on n_envs or on how a caller
    shards work. With auto_reset a finished environment immediately starts
    a new episode; without it (used for evaluation) the environment is
    marked `frozen` and parks: later ticks step it under zero wrench and it
    never finishes again. `norms` holds `obs_norms(obs)`, which the next
    tick's reward reads as its previous norms.
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

        self.pos = np.zeros((n_envs, 3))
        self.att = np.tile(m3.quat_identity(), (n_envs, 1))
        self.linvel = np.zeros((n_envs, 3))
        self.angvel = np.zeros((n_envs, 3))
        self.goal_pos = np.zeros((n_envs, 3))
        self.goal_att = np.tile(m3.quat_identity(), (n_envs, 1))
        self.mass = np.full(n_envs, config.body.mass)
        self.inertia = np.tile(config.body.inertia_diag, (n_envs, 1))
        self.com = np.tile(config.body.com_offset, (n_envs, 1))
        self.hold = np.zeros(n_envs, dtype=np.int64)
        self.steps = np.zeros(n_envs, dtype=np.int64)
        self.frozen = np.zeros(n_envs, dtype=bool)
        self.obs = np.zeros((n_envs, OBS_DIM))
        self.norms = np.zeros((n_envs, 4))
        self.episode_return = np.zeros(n_envs)
        self._tmask = config.mask.translation_floats()
        self._rmask = config.mask.rotation_floats()
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
        self.pos[i] = 0.0
        self.att[i] = m3.quat_identity()
        self.linvel[i] = 0.0
        self.angvel[i] = 0.0
        self.goal_pos[i] = goal_pos
        self.goal_att[i] = m3.quat_from_rotvec(goal_rotvec)
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
            self.goal_att[i],
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
        its done False; its obs is not read.
        """
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n, ACT_DIM):
            raise ValueError(f"actions must have shape ({self.n}, {ACT_DIM})")
        if not np.isfinite(actions).all():
            bad = int(np.argwhere(~np.isfinite(actions).all(axis=1))[0, 0])
            raise ValueError(f"non-finite action for env {bad}")
        cfg = self.config
        a = actions.clip(-1.0, 1.0)
        a[self.frozen] = 0.0
        force = a[:, :3] * cfg.limits.f_max
        torque = a[:, 3:] * cfg.limits.tau_max

        pos2, att2, lv2, av2 = step_arrays(
            self.pos,
            self.att,
            self.linvel,
            self.angvel,
            force,
            torque,
            self.mass,
            self.inertia,
            self.com,
            self._tmask,
            self._rmask,
            cfg.dt,
        )
        finite = np.isfinite(np.concatenate([pos2, att2, lv2, av2], axis=1))
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=1)))
            raise SimulationDivergedError(f"env {bad}: state went non-finite")
        self.pos, self.att, self.linvel, self.angvel = pos2, att2, lv2, av2

        obs = observe_arrays(pos2, att2, lv2, av2, self.goal_pos, self.goal_att, cfg.body_frame_obs)
        norms = obs_norms(obs)
        r, succ, oob = reward_arrays(self.norms, norms, self.weights, cfg)
        self.obs, self.norms = obs, norms

        self.hold = np.where(succ, self.hold + 1, 0)
        self.steps = self.steps + 1
        done_success = self.hold >= cfg.hold_steps
        live = ~self.frozen
        done = (done_success | oob | (self.steps >= cfg.episode_len)) & live
        r = np.where(live, r + self.weights.bonus_success * done_success, 0.0)
        self.episode_return = self.episode_return + r

        finished = []
        for i in np.flatnonzero(done):
            i = int(i)
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
        return bool(np.all(self.frozen))


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
        done_buf[:, t] = done.astype(np.float64)
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
