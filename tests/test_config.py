"""Configuration loading, validation, overrides and snapshots."""

from pathlib import Path

import numpy as np
import pytest

from apiary.actuation import ActuationLimits
from apiary.baseline import PdGains
from apiary.config import (
    RunConfig,
    load_config,
    set_value,
    write_snapshot,
)
from apiary.dynamics import GRANITE_3DOF, BodyParams
from apiary.env import EnvConfig, RewardWeights
from apiary.learn.checkpoint import env_config_hash
from apiary.learn.ppo import PpoConfig
from apiary.mission import SafetyThresholds

ASSETS = Path(__file__).resolve().parents[1] / "assets"


def test_defaults_without_file():
    cfg = load_config()
    assert isinstance(cfg, RunConfig)
    np.testing.assert_array_equal(cfg.env.goal_pos_range, [0.5, 0.5, 0.5])
    np.testing.assert_allclose(cfg.env.goal_ang_range, np.deg2rad([30, 30, 30]))
    assert cfg.env.mass_range == (0.75, 1.25)
    assert cfg.env.episode_len == 1875
    assert cfg.env.hold_steps == 25
    assert cfg.env.dt == 0.016
    assert cfg.env.body.mass == 9.5
    assert cfg.env.limits.f_max == 0.4 and cfg.env.limits.tau_max == 0.1
    assert cfg.ppo.total_env_steps == 3_000_000
    assert cfg.ppo.hidden == (64, 64)
    assert cfg.reward.w_pos == 10.0 and cfg.reward.bonus_success == 20.0
    assert cfg.gains.kd_pos == pytest.approx(2 * np.sqrt(9.5))
    assert cfg.safety.trip_consecutive == 3
    assert cfg.seed == 2
    assert cfg.verbose is True


def test_defaults_are_the_dataclass_defaults():
    cfg = load_config()
    assert cfg.reward == RewardWeights()
    assert cfg.ppo == PpoConfig()
    assert cfg.gains == PdGains()
    assert cfg.safety == SafetyThresholds()
    assert cfg.env.limits == ActuationLimits()
    body = BodyParams()
    assert cfg.env.body.mass == body.mass
    np.testing.assert_array_equal(cfg.env.body.inertia_diag, body.inertia_diag)
    np.testing.assert_array_equal(cfg.env.body.com_offset, body.com_offset)
    # the hash covers every EnvConfig field, the [env] vector keys included
    assert env_config_hash(cfg.env) == env_config_hash(EnvConfig())
    # angle defaults are Python floats, as the INI values are
    assert type(EnvConfig().success_ori_tol) is float
    assert type(SafetyThresholds().max_ori_err) is float


def test_default_config_file_holds_the_defaults():
    assert load_config(ASSETS / "default_config.ini").raw == load_config().raw


def test_file_overlay(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[env]\n"
        "mass_min = 0.9\n"
        "mass_max = 1.1\n"
        "episode_len = 500\n"
        "[ppo]\n"
        "lr = 0.001  # inline comment is fine\n"
        "hidden = 32,32\n"
        "[seed]\n"
        "seed = 123\n"
    )
    cfg = load_config(path)
    assert cfg.env.mass_range == (0.9, 1.1)
    assert cfg.env.episode_len == 500
    assert cfg.ppo.lr == 0.001
    assert cfg.ppo.hidden == (32, 32)
    assert cfg.seed == 123
    # untouched keys keep their defaults
    assert cfg.env.oob_radius == 2.0
    assert cfg.ppo.gamma == 0.99


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[thrusters]\ncount = 12\n")
    with pytest.raises(ValueError, match=r"unknown section \[thrusters\]"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[env]\ngoal_radius = 1.0\n")
    with pytest.raises(ValueError, match=r"unknown key 'goal_radius' in \[env\]"):
        load_config(path)


def test_bad_value_names_location(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[ppo]\nlr = quick\n")
    with pytest.raises(ValueError, match=r"\[ppo\] lr"):
        load_config(path)
    path.write_text("[env]\ndt = inf\n")
    with pytest.raises(ValueError, match="finite"):
        load_config(path)
    path.write_text("[ppo]\nhidden = 64,0\n")
    with pytest.raises(ValueError, match=r"run\.ini: hidden layer widths must be >= 1"):
        load_config(path)


def test_bool_forms(tmp_path):
    path = tmp_path / "run.ini"
    for text, expect in [("yes", True), ("on", True), ("0", False), ("FALSE", False)]:
        path.write_text(f"[logging]\nverbose = {text}\n")
        assert load_config(path).verbose is expect
    path.write_text("[logging]\nverbose = maybe\n")
    with pytest.raises(ValueError, match="true/false"):
        load_config(path)


def test_scenario_selects_mask(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[env]\nscenario = granite3dof\n")
    cfg = load_config(path)
    assert cfg.env.mask == GRANITE_3DOF
    path.write_text("[env]\nscenario = lunar\n")
    with pytest.raises(ValueError, match="scenario must be one of"):
        load_config(path)


def test_set_value_returns_new_config():
    cfg = load_config()
    cfg2 = set_value(cfg, "ppo", "n_envs", 8)
    assert cfg2.ppo.n_envs == 8
    assert cfg.ppo.n_envs == 64, "original must be untouched"
    with pytest.raises(ValueError, match="unknown config entry"):
        set_value(cfg, "ppo", "momentum", 0.9)


def test_snapshot_round_trip(tmp_path):
    src = tmp_path / "run.ini"
    src.write_text(
        "[env]\nmass_min = 0.85\ndt = 0.008\n[reward]\nw_pos = 12.5\n"
        "[ppo]\nlog_std_init = -0.75\n"
    )
    cfg = load_config(src)
    snap = tmp_path / "snapshot.ini"
    write_snapshot(snap, cfg, ["resolved run configuration"])
    text = snap.read_text()
    assert text.startswith("# resolved run configuration")
    cfg2 = load_config(snap)
    assert cfg2.raw == cfg.raw
    assert cfg2.env.dt == 0.008
    assert cfg2.reward.w_pos == 12.5


def test_snapshot_of_defaults_reloads(tmp_path):
    cfg = load_config()
    snap = tmp_path / "defaults.ini"
    write_snapshot(snap, cfg, ["defaults"])
    assert load_config(snap).raw == cfg.raw
