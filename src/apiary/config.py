"""Sectioned key=value run configuration with strict schema checking.

Every knob has a default, so an empty (or absent) file is a valid
configuration; unknown sections or keys are rejected with the file and
location named, so typos fail loudly instead of silently running with
defaults. Angles are radians in the file. The resolved configuration can
be written back out as a snapshot that reloads to the identical setup.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .actuation import ActuationLimits
from .baseline import PdGains
from .dynamics import FULL_6DOF, GRANITE_3DOF, BodyParams
from .env import EnvConfig, RewardWeights
from .learn.ppo import PpoConfig
from .mission import SafetyThresholds

SCENARIOS = ("iss6dof", "granite3dof")

_DEG5 = float(np.deg2rad(5.0))
_DEG30 = float(np.deg2rad(30.0))

# section -> key -> (kind, default). kinds: float, int, bool, str, intlist.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "body": {
        "mass": ("float", 9.5),
        "inertia_x": ("float", 0.15),
        "inertia_y": ("float", 0.14),
        "inertia_z": ("float", 0.16),
        "com_x": ("float", 0.0),
        "com_y": ("float", 0.0),
        "com_z": ("float", 0.0),
    },
    "actuation": {
        "f_max": ("float", 0.4),
        "tau_max": ("float", 0.1),
        "force_rate": ("float", 0.0),
        "torque_rate": ("float", 0.0),
    },
    "env": {
        "scenario": ("str", "iss6dof"),
        "goal_pos_range_x": ("float", 0.5),
        "goal_pos_range_y": ("float", 0.5),
        "goal_pos_range_z": ("float", 0.5),
        "goal_ang_range_x": ("float", _DEG30),
        "goal_ang_range_y": ("float", _DEG30),
        "goal_ang_range_z": ("float", _DEG30),
        "mass_min": ("float", 0.75),
        "mass_max": ("float", 1.25),
        "episode_len": ("int", 1875),
        "success_pos_tol": ("float", 0.05),
        "success_ori_tol": ("float", _DEG5),
        "success_vel_tol": ("float", 0.05),
        "success_angvel_tol": ("float", 0.05),
        "hold_steps": ("int", 25),
        "oob_radius": ("float", 2.0),
        "dt": ("float", 0.016),
        "body_frame_obs": ("bool", False),
    },
    "reward": {
        "w_pos": ("float", 10.0),
        "w_ori": ("float", 5.0),
        "w_linvel": ("float", 0.05),
        "w_angvel": ("float", 0.05),
        "bonus_success": ("float", 20.0),
        "penalty_oob": ("float", 10.0),
    },
    "ppo": {
        "gamma": ("float", 0.99),
        "lam": ("float", 0.95),
        "clip_eps": ("float", 0.2),
        "lr": ("float", 3e-4),
        "epochs": ("int", 4),
        "minibatch_size": ("int", 1024),
        "value_coef": ("float", 0.5),
        "entropy_coef": ("float", 0.0),
        "max_grad_norm": ("float", 0.5),
        "n_envs": ("int", 64),
        "horizon": ("int", 256),
        "total_env_steps": ("int", 3_000_000),
        "hidden": ("intlist", (64, 64)),
        "log_std_init": ("float", -0.5),
        "eval_every": ("int", 10),
        "eval_episodes": ("int", 20),
        "eval_seed": ("int", 9000),
    },
    "baseline_gains": {
        "kp_pos": ("float", 1.0),
        "kd_pos": ("float", 6.164414002969432),
        "kp_att": ("float", 0.2),
        "kd_att": ("float", 0.35),
    },
    "safety": {
        "max_pos_err": ("float", 0.25),
        "max_ori_err": ("float", _DEG30),
        "max_lin_vel": ("float", 0.5),
        "max_ang_vel": ("float", 1.0),
        "trip_consecutive": ("int", 3),
    },
    "logging": {
        "verbose": ("bool", True),
    },
    "seed": {
        "seed": ("int", 2),
    },
}


@dataclass
class RunConfig:
    env: EnvConfig
    reward: RewardWeights
    ppo: PpoConfig
    gains: PdGains
    safety: SafetyThresholds
    verbose: bool
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _parse_value(kind: str, text: str, where: str):
    try:
        if kind == "float":
            v = float(text)
            if not np.isfinite(v):
                raise ValueError("must be finite")
            return v
        if kind == "int":
            return int(text)
        if kind == "bool":
            low = text.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected true/false")
        if kind == "intlist":
            return tuple(int(p) for p in text.split(",") if p.strip())
        return text.strip()
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "intlist":
        return ",".join(str(v) for v in value)
    return str(value)


def _resolved_defaults() -> dict:
    return {s: {k: spec[1] for k, spec in keys.items()} for s, keys in _SCHEMA.items()}


def load_config(path=None) -> RunConfig:
    """Build a RunConfig from defaults overlaid with an optional file."""
    values = _resolved_defaults()
    if path is not None:
        cp = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#", ";")
        )
        with open(path) as f:
            cp.read_file(f)
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ValueError(f"{path}: unknown section [{section}]")
            for key, text in cp.items(section):
                if key not in _SCHEMA[section]:
                    raise ValueError(f"{path}: unknown key '{key}' in [{section}]")
                kind = _SCHEMA[section][key][0]
                values[section][key] = _parse_value(
                    kind, text, f"{path}: [{section}] {key}"
                )
    try:
        return build_config(values)
    except ValueError as e:
        if path is None:
            raise
        raise ValueError(f"{path}: {e}") from None


def build_config(values: dict) -> RunConfig:
    b = values["body"]
    body = BodyParams(
        mass=b["mass"],
        inertia_diag=(b["inertia_x"], b["inertia_y"], b["inertia_z"]),
        com_offset=(b["com_x"], b["com_y"], b["com_z"]),
    )
    a = values["actuation"]
    limits = ActuationLimits(a["f_max"], a["tau_max"], a["force_rate"], a["torque_rate"])
    e = values["env"]
    if e["scenario"] not in SCENARIOS:
        raise ValueError(
            f"scenario must be one of {', '.join(SCENARIOS)}, got {e['scenario']!r}"
        )
    mask = GRANITE_3DOF if e["scenario"] == "granite3dof" else FULL_6DOF
    env_cfg = EnvConfig(
        goal_pos_range=np.array(
            [e["goal_pos_range_x"], e["goal_pos_range_y"], e["goal_pos_range_z"]]
        ),
        goal_ang_range=np.array(
            [e["goal_ang_range_x"], e["goal_ang_range_y"], e["goal_ang_range_z"]]
        ),
        mass_range=(e["mass_min"], e["mass_max"]),
        episode_len=e["episode_len"],
        success_pos_tol=e["success_pos_tol"],
        success_ori_tol=e["success_ori_tol"],
        success_vel_tol=e["success_vel_tol"],
        success_angvel_tol=e["success_angvel_tol"],
        hold_steps=e["hold_steps"],
        oob_radius=e["oob_radius"],
        dt=e["dt"],
        mask=mask,
        body=body,
        limits=limits,
        body_frame_obs=e["body_frame_obs"],
    )
    r = values["reward"]
    reward = RewardWeights(
        r["w_pos"], r["w_ori"], r["w_linvel"], r["w_angvel"],
        r["bonus_success"], r["penalty_oob"],
    )
    p = values["ppo"]
    ppo = PpoConfig(
        gamma=p["gamma"], lam=p["lam"], clip_eps=p["clip_eps"], lr=p["lr"],
        epochs=p["epochs"], minibatch_size=p["minibatch_size"],
        value_coef=p["value_coef"], entropy_coef=p["entropy_coef"],
        max_grad_norm=p["max_grad_norm"], n_envs=p["n_envs"], horizon=p["horizon"],
        total_env_steps=p["total_env_steps"], hidden=tuple(p["hidden"]),
        log_std_init=p["log_std_init"], eval_every=p["eval_every"],
        eval_episodes=p["eval_episodes"], eval_seed=p["eval_seed"],
    )
    g = values["baseline_gains"]
    gains = PdGains(g["kp_pos"], g["kd_pos"], g["kp_att"], g["kd_att"])
    s = values["safety"]
    safety = SafetyThresholds(
        s["max_pos_err"], s["max_ori_err"], s["max_lin_vel"], s["max_ang_vel"],
        s["trip_consecutive"],
    )
    return RunConfig(
        env=env_cfg,
        reward=reward,
        ppo=ppo,
        gains=gains,
        safety=safety,
        verbose=values["logging"]["verbose"],
        seed=values["seed"]["seed"],
        raw=values,
    )


def set_value(cfg: RunConfig, section: str, key: str, value) -> RunConfig:
    """Return a RunConfig with one resolved value replaced (e.g. a CLI override)."""
    if section not in _SCHEMA or key not in _SCHEMA[section]:
        raise ValueError(f"unknown config entry [{section}] {key}")
    values = {s: dict(kv) for s, kv in cfg.raw.items()}
    values[section][key] = value
    return build_config(values)


def write_snapshot(path, cfg: RunConfig, header_lines: list[str] | None = None) -> None:
    """Write the resolved configuration; reloading it rebuilds cfg exactly."""
    lines = []
    for note in header_lines or []:
        lines.append(f"# {note}")
    if header_lines:
        lines.append("")
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _default) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.raw[section][key])}")
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
