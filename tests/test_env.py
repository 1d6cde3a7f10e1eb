"""Episode environment: observation/reward contracts, termination
bookkeeping, batch-row-vs-single-env equivalence and reset randomization.
"""

import numpy as np
import pytest

from apiary import math3d as m3
from apiary.config import SCENARIOS, load_config, set_value
from apiary.dynamics import GRANITE_3DOF, BodyParams, SimulationDivergedError, step_f
from apiary.env import (
    ORI_ERR,
    POS_ERR,
    BatchEnv,
    EnvConfig,
    RewardWeights,
    batch_rollout,
    obs_norms,
    observe_arrays,
    reward_arrays,
    success_flags,
)

# the observation's velocity slices, after env's POS_ERR and ORI_ERR
LIN_VEL = slice(6, 9)
ANG_VEL = slice(9, 12)


def quick_config(**kw):
    """Small episodes and close goals so terminations happen fast."""
    defaults = dict(
        goal_pos_range=m3.vec3(0.03, 0.03, 0.03),
        goal_ang_range=np.full(3, 0.02),
        episode_len=60,
        hold_steps=5,
    )
    defaults.update(kw)
    return EnvConfig(**defaults)


def reward(prev_obs, obs, weights, config):
    """Base reward of one transition (no success bonus) as a float."""
    r, _, _ = reward_arrays(obs_norms(prev_obs), obs_norms(obs), weights, config)
    return float(r)


def run_single_env(benv, action):
    """Step a BatchEnv(1) with one action until an episode ends.

    Returns the per-tick rewards and the finished-episode record."""
    rewards = []
    while True:
        _, r, _, finished = benv.step(np.asarray(action, dtype=np.float64)[None, :])
        rewards.append(float(r[0]))
        if finished:
            return rewards, finished[0]


def test_env_config_dt_range():
    for dt in (0.0, 0.6):
        with pytest.raises(ValueError, match=r"dt must be in \(0, 0.5\]"):
            EnvConfig(dt=dt)
    EnvConfig(dt=0.5)


def test_env_config_validation():
    for tol in ("success_pos_tol", "success_ori_tol", "success_vel_tol", "success_angvel_tol"):
        with pytest.raises(ValueError, match="success tolerances must be positive"):
            EnvConfig(**{tol: 0.0})
    with pytest.raises(ValueError, match="hold_steps"):
        EnvConfig(hold_steps=0)


def test_observation_zero_at_goal():
    goal_pos, goal_att = m3.vec3(0.2, -0.1, 0.3), m3.quat_from_rotvec(m3.vec3(0.1, 0.2, -0.1))
    obs = observe_arrays(goal_pos, goal_att, np.zeros(3), np.zeros(3), goal_pos,
                         m3.quat_error_terms(goal_att), False)
    np.testing.assert_array_equal(obs, np.zeros(12))


def test_observation_components():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pos, att = rng.uniform(-1, 1, 3), m3.quat_from_rotvec(rng.uniform(-1, 1, 3))
        lv, av = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
        goal_pos, goal_att = rng.uniform(-1, 1, 3), m3.quat_from_rotvec(rng.uniform(-1, 1, 3))
        obs = observe_arrays(pos, att, lv, av, goal_pos, m3.quat_error_terms(goal_att), False)
        np.testing.assert_array_equal(obs[POS_ERR], goal_pos - pos)
        np.testing.assert_array_equal(obs[ORI_ERR], m3.quat_error(goal_att, att))
        np.testing.assert_array_equal(obs[LIN_VEL], lv)
        np.testing.assert_array_equal(obs[ANG_VEL], av)


def test_observation_body_frame_option():
    yaw90 = m3.quat_from_rotvec(m3.vec3(0, 0, np.pi / 2))
    obs = observe_arrays(
        np.zeros(3), yaw90, m3.vec3(0.1, 0.0, 0.0), np.zeros(3),
        m3.vec3(1.0, 0.0, 0.0), m3.quat_error_terms(yaw90), body_frame=True,
    )
    # world +x maps to body -y after a +90 deg yaw
    np.testing.assert_allclose(obs[POS_ERR], [0.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(obs[LIN_VEL], [0.0, -0.1, 0.0], atol=1e-12)


def test_reward_zero_when_nothing_moves():
    cfg = EnvConfig()
    w = RewardWeights()
    obs = np.zeros(12)
    obs[POS_ERR] = [0.3, 0.0, 0.0]
    assert reward(obs, obs.copy(), w, cfg) == 0.0


def test_reward_error_reduction_scales_with_weights():
    cfg = EnvConfig()
    w = RewardWeights()
    prev = np.zeros(12)
    prev[POS_ERR] = [0.4, 0.0, 0.0]
    cur = np.zeros(12)
    cur[POS_ERR] = [0.3, 0.0, 0.0]
    assert reward(prev, cur, w, cfg) == pytest.approx(w.w_pos * 0.1, rel=1e-12)
    # symmetric: moving away costs the same amount
    assert reward(cur, prev, w, cfg) == pytest.approx(-w.w_pos * 0.1, rel=1e-12)


def test_reward_velocity_penalty_every_step():
    cfg = EnvConfig()
    w = RewardWeights()
    obs = np.zeros(12)
    obs[POS_ERR] = [0.2, 0.0, 0.0]
    obs[LIN_VEL] = [0.3, 0.0, 0.0]
    obs[ANG_VEL] = [0.0, 0.2, 0.0]
    expected = -w.w_linvel * 0.3 - w.w_angvel * 0.2
    assert reward(obs.copy(), obs.copy(), w, cfg) == pytest.approx(expected, rel=1e-12)


def test_reward_bonus_only_when_latched():
    cfg = EnvConfig()
    w = RewardWeights()
    at_goal = np.zeros(12)
    # merely being inside tolerance pays nothing extra: the bonus is the
    # episode bookkeeping's, paid on the latch tick (see the BatchEnv test)
    r, succ, oob = reward_arrays(obs_norms(at_goal), obs_norms(at_goal), w, cfg)
    assert bool(succ) and not bool(oob)
    assert float(r) == 0.0


def test_reward_oob_penalty():
    cfg = EnvConfig()
    w = RewardWeights()
    prev = np.zeros(12)
    prev[POS_ERR] = [1.9, 0.0, 0.0]
    cur = np.zeros(12)
    cur[POS_ERR] = [2.1, 0.0, 0.0]
    r, succ, oob = reward_arrays(obs_norms(prev), obs_norms(cur), w, cfg)
    assert bool(oob) and not bool(succ)
    assert float(r) == pytest.approx(-w.w_pos * 0.2 - w.penalty_oob, rel=1e-12)


def test_obs_norms_match_per_channel_vec_norm():
    obs = np.random.default_rng(5).uniform(-2.0, 2.0, (7, 12))
    norms = obs_norms(obs)
    assert norms.shape == (7, 4)
    for k, sl in enumerate((POS_ERR, ORI_ERR, LIN_VEL, ANG_VEL)):
        np.testing.assert_array_equal(norms[:, k], m3.vec_norm(obs[:, sl]))
    # a single observation goes through the same arithmetic
    np.testing.assert_array_equal(obs_norms(obs[3]), norms[3])


def test_success_flags_require_all_four_conditions():
    cfg = EnvConfig()
    obs = np.zeros(12)
    assert bool(success_flags(obs_norms(obs), cfg))
    for sl, bad in ((POS_ERR, 0.06), (ORI_ERR, 0.1), (LIN_VEL, 0.06), (ANG_VEL, 0.06)):
        o = np.zeros(12)
        o[sl] = [bad, 0.0, 0.0]
        assert not bool(success_flags(obs_norms(o), cfg))
    # boundary is inclusive
    o = np.zeros(12)
    o[POS_ERR] = [cfg.success_pos_tol, 0.0, 0.0]
    assert bool(success_flags(obs_norms(o), cfg))


def test_env_step_success_pays_bonus_on_latch_tick_only():
    # zero goal ranges put the goal at the start pose, so the hold counter
    # just has to fill
    cfg = quick_config(goal_pos_range=np.zeros(3), goal_ang_range=np.zeros(3))
    w = RewardWeights()
    benv = BatchEnv(1, cfg, w, seed=0)
    np.testing.assert_array_equal(benv.obs[0], np.zeros(12))
    rewards, rec = run_single_env(benv, np.zeros(6))
    assert rec["success"] and rec["reason"] == "success"
    assert rec["steps"] == len(rewards) == cfg.hold_steps
    # zero action at the goal: nothing but the final latch bonus
    assert rewards[:-1] == [0.0] * (cfg.hold_steps - 1)
    assert rewards[-1] == w.bonus_success
    assert rec["episode_return"] == w.bonus_success


def test_env_step_timeout_and_counters():
    cfg = quick_config(goal_pos_range=m3.vec3(0.4, 0.4, 0.4), episode_len=10)
    w = RewardWeights()
    benv = BatchEnv(1, cfg, w, seed=5, auto_reset=False)
    for k in range(9):
        _, _, done, finished = benv.step(np.zeros((1, 6)))
        assert not done[0] and not finished
        assert benv.steps[0] == k + 1 and benv.hold[0] == 0
    _, _, done, finished = benv.step(np.zeros((1, 6)))
    assert done[0] and len(finished) == 1
    rec = finished[0]
    assert rec["steps"] == 10 and rec["reason"] == "timeout" and not rec["success"]
    assert benv.all_frozen()


def test_env_step_oob_terminates():
    # hold_steps longer than the escape time so success cannot latch first
    cfg = quick_config(
        oob_radius=0.05,
        goal_pos_range=m3.vec3(0.01, 0.01, 0.01),
        episode_len=400,
        hold_steps=300,
    )
    w = RewardWeights()
    benv = BatchEnv(1, cfg, w, seed=3)
    # full +x thrust runs away from any nearby goal
    rewards, rec = run_single_env(benv, [1.0, 0, 0, 0, 0, 0])
    assert rec["reason"] == "oob" and not rec["success"]
    assert rec["steps"] == len(rewards) < cfg.episode_len
    assert rewards[-1] < -w.penalty_oob + 1.0


def reset_oracle(config, rng):
    """The episode draw as the free function `env.reset` made it before it
    was folded into `BatchEnv.reset_env`."""
    tmask, rmask = config.mask.translation_floats(), config.mask.rotation_floats()
    goal_pos = rng.uniform(-config.goal_pos_range, config.goal_pos_range) * tmask
    goal_rotvec = rng.uniform(-config.goal_ang_range, config.goal_ang_range) * rmask
    f = rng.uniform(config.mass_range[0], config.mass_range[1])
    body = config.body
    params = BodyParams(body.mass * f, body.inertia_diag * f, body.com_offset)
    return goal_pos, m3.quat_from_rotvec(goal_rotvec), params


def assert_row_is_draw(benv, i, draw):
    goal_pos, goal_att, params = draw
    # every episode starts at rest at the origin with identity attitude
    rest = [np.zeros(3), m3.quat_identity(), np.zeros(3), np.zeros(3)]
    obs = observe_arrays(*rest, goal_pos, m3.quat_error_terms(goal_att),
                         benv.config.body_frame_obs)
    got = [benv.pos[i], benv.att[i], benv.linvel[i], benv.angvel[i], benv.goal_pos[i],
           benv.goal_att[i], benv.mass[i], benv.inertia[i], benv.obs[i]]
    want = [*rest, goal_pos, goal_att, np.float64(params.mass), params.inertia_diag, obs]
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (i, k)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batch_env_draw_matches_reset_oracle(scenario):
    # BatchEnv rows equal the old reset bit for bit, on a fresh env and on
    # the next draw from the same stream
    cfg = set_value(load_config(), "env", "scenario", scenario).env
    seeds = [[5, k] for k in range(50)]
    benv = BatchEnv(50, cfg, RewardWeights(), auto_reset=False, episode_seeds=seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    for i in range(50):
        assert_row_is_draw(benv, i, reset_oracle(cfg, rngs[i]))
        benv.reset_env(i)
        assert_row_is_draw(benv, i, reset_oracle(cfg, rngs[i]))


def test_reset_respects_ranges_and_mask():
    cfg = EnvConfig(mask=GRANITE_3DOF)
    benv = BatchEnv(50, cfg, RewardWeights(), seed=33)
    for i in range(50):
        np.testing.assert_array_equal(benv.pos[i], np.zeros(3))
        np.testing.assert_array_equal(benv.att[i], m3.quat_identity())
        assert np.all(np.abs(benv.goal_pos[i, :2]) <= cfg.goal_pos_range[:2])
        assert benv.goal_pos[i, 2] == 0.0
        rv = m3.quat_to_rotvec(benv.goal_att[i])
        assert rv[0] == 0.0 and rv[1] == 0.0
        assert 0.75 * 9.5 <= benv.mass[i] <= 1.25 * 9.5
        # inertia scales with the drawn mass (uniform density assumption)
        np.testing.assert_allclose(
            benv.inertia[i] / cfg.body.inertia_diag,
            np.full(3, benv.mass[i] / cfg.body.mass),
            rtol=1e-12,
        )


def test_reset_deterministic_per_seed():
    cfg = EnvConfig()
    a, b = (BatchEnv(1, cfg, RewardWeights(), episode_seeds=[42]) for _ in range(2))
    np.testing.assert_array_equal(a.goal_pos, b.goal_pos)
    np.testing.assert_array_equal(a.goal_att, b.goal_att)
    np.testing.assert_array_equal(a.mass, b.mass)
    np.testing.assert_array_equal(a.obs, b.obs)


def test_batch_env_matches_scalar_env_bitwise():
    # row i of a batch equals a batch of one on row i's RNG stream, bit for
    # bit, across auto-resets
    cfg = quick_config(episode_len=40)
    w = RewardWeights()
    n = 6
    seed = 9
    benv = BatchEnv(n, cfg, w, seed=seed)
    singles = [BatchEnv(1, cfg, w, episode_seeds=[[seed, i]]) for i in range(n)]
    for i in range(n):
        np.testing.assert_array_equal(benv.obs[i], singles[i].obs[0])

    rng = np.random.default_rng(77)
    resets = 0
    for _ in range(90):
        actions = rng.uniform(-0.3, 0.3, (n, 6))
        obs_b, r_b, done_b, _ = benv.step(actions)
        resets += int(np.sum(done_b))
        for i in range(n):
            obs_s, r_s, done_s, _ = singles[i].step(actions[i : i + 1])
            np.testing.assert_array_equal(obs_b[i], obs_s[0])
            assert r_b[i] == r_s[0]
            assert done_b[i] == done_s[0]
    assert resets >= n  # episode_len 40 over 90 ticks: every row reset


def assert_parked_row_coasts(benv, i, pos, linvel):
    """Row i moved one tick from (pos, linvel) under zero wrench: its
    velocity is unchanged and its position advanced by dt times it."""
    assert benv.linvel[i].tobytes() == linvel.tobytes()
    assert benv.pos[i].tobytes() == (pos + benv.config.dt * linvel).tobytes()
    assert all(np.isfinite(a[i]).all() for a in (benv.pos, benv.att, benv.linvel, benv.angvel))


def test_batch_env_freezes_without_auto_reset():
    # each row finishes once, moving, and then parks: over episode_len more
    # ticks of full action it earns nothing, never finishes again and coasts
    cfg = quick_config(episode_len=8)
    w = RewardWeights()
    benv = BatchEnv(3, cfg, w, seed=1, auto_reset=False)
    all_finished = []
    for _ in range(8):
        _, _, _, fin = benv.step(np.full((3, 6), 0.3))
        all_finished.extend(fin)
    assert benv.all_frozen()
    assert sorted(rec["env"] for rec in all_finished) == [0, 1, 2]
    assert (np.abs(benv.linvel) > 0.0).all()
    for _ in range(cfg.episode_len):
        pos, linvel = benv.pos.copy(), benv.linvel.copy()
        _, r, done, fin = benv.step(np.ones((3, 6)))
        assert not r.any() and not done.any() and fin == []
        for i in range(3):
            assert_parked_row_coasts(benv, i, pos[i], linvel[i])
    assert benv.all_frozen()


def test_batch_env_frozen_row_leaves_live_rows_bitwise_unchanged():
    # parking a row (zero wrench, done masked) leaves the other rows'
    # state, rewards and flags bit for bit as they are with no row parked
    cfg = quick_config(
        goal_pos_range=m3.vec3(0.5, 0.5, 0.5), goal_ang_range=np.full(3, 0.5), episode_len=200
    )
    w = RewardWeights()
    live = BatchEnv(4, cfg, w, seed=12, auto_reset=False)
    parked = BatchEnv(4, cfg, w, seed=12, auto_reset=False)
    rng = np.random.default_rng(78)
    for tick in range(80):
        if tick == 20:
            # row 3 parks while moving
            assert parked.linvel[3].any()
            parked.frozen[3] = True
        pos, linvel = parked.pos[3].copy(), parked.linvel[3].copy()
        actions = rng.uniform(-0.5, 0.5, (4, 6))
        obs_a, r_a, done_a, _ = live.step(actions)
        obs_b, r_b, done_b, _ = parked.step(actions)
        assert not live.frozen.any()
        # obs follows the new state, and norms (next tick's previous
        # norms) follow obs
        want = observe_arrays(live.pos, live.att, live.linvel, live.angvel, live.goal_pos,
                              m3.quat_error_terms(live.goal_att), cfg.body_frame_obs)
        assert obs_a.tobytes() == want.tobytes()
        assert live.norms.tobytes() == obs_norms(want).tobytes()
        assert obs_a[:3].tobytes() == obs_b[:3].tobytes()
        assert r_a[:3].tobytes() == r_b[:3].tobytes()
        assert r_b[3] == 0.0 or tick < 20
        assert not done_a.any() and not done_b.any()
        for name in ("pos", "att", "linvel", "angvel", "norms", "hold", "steps",
                     "episode_return"):
            a, b = getattr(live, name), getattr(parked, name)
            assert a[:3].tobytes() == b[:3].tobytes(), name
        if tick >= 20:
            assert_parked_row_coasts(parked, 3, pos, linvel)


def test_batch_env_episode_return_matches_reward_sum():
    cfg = quick_config(episode_len=15)
    w = RewardWeights()
    benv = BatchEnv(2, cfg, w, seed=4, auto_reset=False)
    totals = np.zeros(2)
    recs = []
    for _ in range(15):
        _, r, _, fin = benv.step(np.zeros((2, 6)))
        totals += r
        recs.extend(fin)
    assert len(recs) == 2
    for rec in recs:
        assert rec["episode_return"] == pytest.approx(totals[rec["env"]], abs=1e-12)


FINAL_NORMS = ("final_pos_err", "final_ori_err", "final_lin_vel", "final_ang_vel")


def race_config():
    """Row 1 under full +x thrust leaves a 5 cm volume around tick 61;
    row 0 at rest times out at tick 80. Success never latches first."""
    return quick_config(oob_radius=0.05, episode_len=80, hold_steps=300)


RACE_ACTIONS = np.array([[0.0] * 6, [1.0, 0, 0, 0, 0, 0]])


def test_finished_record_holds_final_norms_across_auto_reset():
    # an auto-reset row's record carries the norms of its finished
    # episode's last obs (as a parked twin returns it), not the reset row's
    cfg, w = race_config(), RewardWeights()
    auto = BatchEnv(2, cfg, w, seed=8)
    twin = BatchEnv(2, cfg, w, seed=8, auto_reset=False)
    seen = []
    for _ in range(cfg.episode_len):
        obs_a, _, _, fin_a = auto.step(RACE_ACTIONS)
        obs_t, _, _, fin_t = twin.step(RACE_ACTIONS)
        assert [rec for rec in fin_a if rec["env"] not in seen] == fin_t
        for rec in fin_t:
            i = rec["env"]
            seen.append(i)
            norms = [rec[k] for k in FINAL_NORMS]
            assert norms == obs_norms(obs_t)[i].tolist()
            assert norms != obs_norms(obs_a)[i].tolist()
    assert seen == [1, 0]


def test_finished_record_holds_final_norms_beside_a_parked_row():
    # row 0 finishes while row 1 has been parked since its own finish
    cfg, w = race_config(), RewardWeights()
    benv = BatchEnv(2, cfg, w, seed=8, auto_reset=False)
    recs = []
    for _ in range(cfg.episode_len):
        obs, _, _, fin = benv.step(RACE_ACTIONS)
        for rec in fin:
            assert [rec[k] for k in FINAL_NORMS] == obs_norms(obs)[rec["env"]].tolist()
        recs += fin
    assert [(rec["env"], rec["reason"]) for rec in recs] == [(1, "oob"), (0, "timeout")]
    assert recs[0]["steps"] < recs[1]["steps"] == cfg.episode_len


def test_batch_env_validates_actions():
    cfg = quick_config()
    benv = BatchEnv(2, cfg, RewardWeights(), seed=0)
    with pytest.raises(ValueError):
        benv.step(np.zeros((3, 6)))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.zeros((2, 6))
        bad[1, 2] = value
        with pytest.raises(ValueError, match=r"^non-finite action for env 1$"):
            benv.step(bad)


@pytest.mark.parametrize("auto_reset", [True, False])
def test_batch_env_non_finite_angular_rate_is_divergence(auto_reset):
    # one row at 1e308 rad/s: the rate is finite but its rotation vector's
    # norm overflows; the tick raises without a numpy warning (tier-1 turns
    # RuntimeWarning into an error)
    benv = BatchEnv(3, quick_config(), RewardWeights(), seed=2, auto_reset=auto_reset)
    benv.step(np.full((3, 6), 0.2))
    benv.angvel[1] = [1e308, 0.0, 0.0]
    with pytest.raises(SimulationDivergedError, match=r"^angular rate went non-finite during step$"):
        benv.step(np.full((3, 6), 0.2))


@pytest.mark.parametrize("auto_reset", [True, False])
def test_batch_env_non_finite_state_names_the_row(auto_reset):
    benv = BatchEnv(4, quick_config(), RewardWeights(), seed=2, auto_reset=auto_reset)
    benv.step(np.full((4, 6), 0.2))
    benv.linvel[2] = [np.inf, 0.0, 0.0]
    names = ("state", "pos", "att", "linvel", "angvel", "obs", "norms", "hold", "steps",
             "frozen", "episode_return")
    before = [getattr(benv, k).tobytes() for k in names]
    with pytest.raises(SimulationDivergedError, match=r"^env 2: state went non-finite$"):
        benv.step(np.full((4, 6), 0.2))
    # the tick that raises changes none of the env's arrays
    assert [getattr(benv, k).tobytes() for k in names] == before


def test_batch_rollout_buffer_layout():
    cfg = quick_config(episode_len=12)
    w = RewardWeights()

    class ZeroPolicy:
        def sample(self, obs, rngs):
            return np.zeros((obs.shape[0], 6)), np.zeros(obs.shape[0])

        def value(self, obs):
            return np.zeros(obs.shape[0])

    buf = batch_rollout(ZeroPolicy(), BatchEnv(4, cfg, w, seed=2), 30)
    assert buf.obs.shape == (4, 30, 12)
    assert buf.actions.shape == (4, 30, 6)
    assert buf.rewards.shape == (4, 30)
    assert buf.bootstrap_values.shape == (4,)
    # episode_len 12 means each env terminated at least twice in 30 steps
    assert np.sum(buf.dones) >= 8
    assert len(buf.episode_returns) == int(np.sum(buf.dones))
    flat = buf.flat(buf.obs)
    np.testing.assert_array_equal(flat[31], buf.obs[1, 1])
    # successive rollouts continue the same envs: two of 15 steps are one of 30
    benv = BatchEnv(4, cfg, w, seed=2)
    halves = [batch_rollout(ZeroPolicy(), benv, 15) for _ in range(2)]
    for name in ("obs", "rewards", "dones"):
        joined = np.concatenate([getattr(h, name) for h in halves], axis=1)
        np.testing.assert_array_equal(joined, getattr(buf, name))


def float_obs(pos, att, lv, av, goal_pos, goal_att, body_frame):
    """One row's observation through the float twins, as a list."""
    pos_err = [goal_pos[k] - pos[k] for k in range(3)]
    ori_err = m3.quat_error_f(goal_att, att)
    vel = lv
    if body_frame:
        pos_err = m3.quat_rotate_inv_f(att, pos_err)
        ori_err = m3.quat_rotate_inv_f(att, ori_err)
        vel = m3.quat_rotate_inv_f(att, vel)
    return pos_err + ori_err + vel + av


class FloatRow:
    """One env row ticked through the float twins (`step_f`, `quat_error_f`,
    `quat_rotate_inv_f`, `vec_norm_f`) and the reward formula in Python
    floats, drawing each episode with `reset_oracle` from its own stream."""

    def __init__(self, config, weights, rng):
        self.config, self.weights, self.rng = config, weights, rng
        self.tm = config.mask.translation_floats().tolist()
        self.rm = config.mask.rotation_floats().tolist()
        self.reset()

    def reset(self):
        goal_pos, goal_att, params = reset_oracle(self.config, self.rng)
        self.goal_pos, self.goal_att = goal_pos.tolist(), goal_att.tolist()
        self.mass = float(params.mass)
        self.inertia = params.inertia_diag.tolist()
        self.com = params.com_offset.tolist()
        self.pos, self.att = [0.0] * 3, [1.0, 0.0, 0.0, 0.0]
        self.lv, self.av = [0.0] * 3, [0.0] * 3
        self.hold = self.steps = 0
        self.frozen = False
        self.episode_return = 0.0
        self.observe()

    def observe(self):
        self.obs = float_obs(self.pos, self.att, self.lv, self.av, self.goal_pos,
                             self.goal_att, self.config.body_frame_obs)
        self.norms = [m3.vec_norm_f(self.obs[k : k + 3]) for k in range(0, 12, 3)]

    def step(self, action):
        """(reward, done, finished record or None) of one tick."""
        cfg, w = self.config, self.weights
        a = [0.0] * 6 if self.frozen else [min(max(c, -1.0), 1.0) for c in action]
        force = [c * cfg.limits.f_max for c in a[:3]]
        torque = [c * cfg.limits.tau_max for c in a[3:]]
        self.pos, self.att, self.lv, self.av = step_f(
            self.pos, self.att, self.lv, self.av, force, torque, self.mass,
            self.inertia, self.com, self.tm, self.rm, cfg.dt,
        )
        prev = self.norms
        self.observe()
        pe, oe, lv, av = self.norms
        oob = pe > cfg.oob_radius
        r = (w.w_pos * (prev[0] - pe) + w.w_ori * (prev[1] - oe) - w.w_linvel * lv
             - w.w_angvel * av - w.penalty_oob * float(oob))
        succ = (pe <= cfg.success_pos_tol and oe <= cfg.success_ori_tol
                and lv <= cfg.success_vel_tol and av <= cfg.success_angvel_tol)
        self.hold = self.hold + 1 if succ else 0
        self.steps += 1
        done_success = self.hold >= cfg.hold_steps
        done = (done_success or oob or self.steps >= cfg.episode_len) and not self.frozen
        r = 0.0 if self.frozen else r + w.bonus_success * float(done_success)
        self.episode_return += r
        if not done:
            return r, False, None
        reason = "success" if done_success else "oob" if oob else "timeout"
        record = {
            "reason": reason, "success": int(done_success), "steps": self.steps,
            "episode_return": self.episode_return, "final_pos_err": pe,
            "final_ori_err": oe, "final_lin_vel": lv, "final_ang_vel": av,
        }
        return r, True, record


def oracle_config(kind):
    """Short episodes, loose tolerances and a small volume, so 700 ticks of
    random actions see successes, oob exits and timeouts."""
    loose = dict(
        goal_pos_range=m3.vec3(0.35, 0.35, 0.35), goal_ang_range=np.full(3, 0.6),
        episode_len=90, hold_steps=4, oob_radius=0.42, success_pos_tol=0.25,
        success_ori_tol=0.7, success_vel_tol=0.25, success_angvel_tol=0.6,
    )
    if kind == "iss6dof":
        return EnvConfig(**loose)
    if kind == "granite3dof":
        return EnvConfig(mask=GRANITE_3DOF, **loose)
    if kind == "body_frame_obs":
        return EnvConfig(body_frame_obs=True, **loose)
    body = BodyParams(8.0, m3.vec3(0.12, 0.15, 0.2), m3.vec3(0.01, -0.02, 0.005))
    return EnvConfig(body=body, **loose)


def state_rows(benv):
    return {name: getattr(benv, name) for name in (
        "pos", "att", "linvel", "angvel", "goal_pos", "goal_att", "mass", "inertia", "com",
        "hold", "steps", "frozen", "obs", "norms", "episode_return")}


def oracle_rows(rows, i):
    r = rows[i]
    return {
        "pos": r.pos, "att": r.att, "linvel": r.lv, "angvel": r.av, "goal_pos": r.goal_pos,
        "goal_att": r.goal_att, "mass": r.mass, "inertia": r.inertia, "com": r.com,
        "hold": r.hold, "steps": r.steps, "frozen": r.frozen, "obs": r.obs, "norms": r.norms,
        "episode_return": r.episode_return,
    }


@pytest.mark.parametrize("auto_reset", [True, False])
@pytest.mark.parametrize("kind", ["iss6dof", "granite3dof", "body_frame_obs", "com_offset"])
def test_batch_env_step_matches_float_twins(kind, auto_reset):
    # every row of every tick equals one tick of the float twins, bit for
    # bit: obs, reward, done, the finished record (before any reset) and
    # the whole state, across successes, oob exits, timeouts and resets
    cfg, w, n, seed = oracle_config(kind), RewardWeights(), 7, 17
    benv = BatchEnv(n, cfg, w, seed=seed, auto_reset=auto_reset)
    rows = [FloatRow(cfg, w, np.random.default_rng([seed, i])) for i in range(n)]
    rng = np.random.default_rng(71)
    reasons = set()
    for tick in range(700):
        actions = rng.uniform(-1.3, 1.3, (n, 6))
        obs, r, done, finished = benv.step(actions)
        records = {rec.pop("env"): rec for rec in finished}
        for i, row in enumerate(rows):
            r_i, done_i, record = row.step(actions[i].tolist())
            assert r[i].tobytes() == np.float64(r_i).tobytes(), (tick, i)
            assert bool(done[i]) is done_i, (tick, i)
            assert records.get(i) == record, (tick, i)
            if record is not None:
                reasons.add(record["reason"])
                if auto_reset:
                    row.reset()
                else:
                    row.frozen = True
            assert obs[i].tobytes() == np.array(row.obs).tobytes(), (tick, i)
        want = [oracle_rows(rows, i) for i in range(n)]
        for name, arr in state_rows(benv).items():
            got = np.asarray(arr)
            expect = np.array([wi[name] for wi in want], dtype=got.dtype)
            assert got.tobytes() == expect.tobytes(), (tick, name)
    assert reasons == {"success", "oob", "timeout"} or not auto_reset
