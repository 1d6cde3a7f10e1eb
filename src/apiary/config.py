"""Sectioned key=value run configuration with strict schema checking.

Every knob has a default, so an empty (or absent) file is a valid
configuration; unknown sections or keys are rejected with the file and
location named, so typos fail loudly instead of silently running with
defaults. Angles are radians in the file. The resolved configuration can
be written back out as a snapshot that reloads to the identical setup.

Every default lives in the dataclass the section builds. `[actuation]`,
`[reward]`, `[ppo]`, `[baseline_gains]` and `[safety]` mirror
`ActuationLimits`, `RewardWeights`, `PpoConfig`, `PdGains` and
`SafetyThresholds` field for field: their keys, kinds and defaults are
read from `dataclasses.fields`, and each is built as `cls(**section)`.
`[body]` and `[env]` list their keys by hand, because they split
`BodyParams`/`EnvConfig` vectors into `_x/_y/_z` keys, `mass_range` into
`mass_min`/`mass_max`, and pick the DOF mask by `scenario`; every one of
their keys but `scenario` takes its default from a default-built
`BodyParams()` or `EnvConfig()`.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .actuation import ActuationLimits
from .baseline import PdGains
from .dynamics import FULL_6DOF, GRANITE_3DOF, BodyParams
from .env import EnvConfig, RewardWeights
from .learn.ppo import PpoConfig
from .mission import SafetyThresholds, read_lines

_SCENARIO_MASKS = {"iss6dof": FULL_6DOF, "granite3dof": GRANITE_3DOF}
SCENARIOS = tuple(_SCENARIO_MASKS)

# [env] keys passed to EnvConfig under their own names
_ENV_SCALARS = (
    "episode_len",
    "success_pos_tol",
    "success_ori_tol",
    "success_vel_tol",
    "success_angvel_tol",
    "hold_steps",
    "oob_radius",
    "dt",
    "body_frame_obs",
)


def _entry(default) -> tuple[str, object]:
    """(kind, default) of one key; the kind follows the default's type.
    kinds: float, int, bool, intlist (and str, which is written by hand)."""
    if isinstance(default, bool):
        return "bool", default
    if isinstance(default, tuple):
        return "intlist", default
    return ("int" if isinstance(default, int) else "float"), default


def _fields_of(cls) -> dict[str, tuple[str, object]]:
    """The keys of a section that mirrors `cls` field for field."""
    return {f.name: _entry(f.default) for f in fields(cls)}


def _xyz(prefix: str, vec: np.ndarray) -> dict[str, tuple[str, object]]:
    """The `prefix_x/_y/_z` keys of a 3-vector field, defaulting to `vec`."""
    return {f"{prefix}_{a}": _entry(v) for a, v in zip("xyz", vec.tolist())}


_BODY, _ENV = BodyParams(), EnvConfig()
# section -> key -> (kind, default). Five sections mirror a dataclass and
# read their keys from it; [body] and [env] split vectors and tuples into
# scalar keys and read their defaults from default-built instances.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "body": {
        "mass": _entry(_BODY.mass),
        **_xyz("inertia", _BODY.inertia_diag),
        **_xyz("com", _BODY.com_offset),
    },
    "actuation": _fields_of(ActuationLimits),
    "env": {
        "scenario": ("str", SCENARIOS[0]),
        **_xyz("goal_pos_range", _ENV.goal_pos_range),
        **_xyz("goal_ang_range", _ENV.goal_ang_range),
        "mass_min": _entry(_ENV.mass_range[0]),
        "mass_max": _entry(_ENV.mass_range[1]),
        **{key: _entry(getattr(_ENV, key)) for key in _ENV_SCALARS},
    },
    "reward": _fields_of(RewardWeights),
    "ppo": _fields_of(PpoConfig),
    "baseline_gains": _fields_of(PdGains),
    "safety": _fields_of(SafetyThresholds),
    "logging": {"verbose": _entry(True)},
    "seed": {"seed": _entry(2)},
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
        cp.read_file(read_lines(path), source=os.fspath(path))
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
    e = values["env"]
    if e["scenario"] not in SCENARIOS:
        raise ValueError(
            f"scenario must be one of {', '.join(SCENARIOS)}, got {e['scenario']!r}"
        )
    env_cfg = EnvConfig(
        goal_pos_range=np.array([e[f"goal_pos_range_{a}"] for a in "xyz"]),
        goal_ang_range=np.array([e[f"goal_ang_range_{a}"] for a in "xyz"]),
        mass_range=(e["mass_min"], e["mass_max"]),
        mask=_SCENARIO_MASKS[e["scenario"]],
        body=body,
        limits=ActuationLimits(**values["actuation"]),
        **{key: e[key] for key in _ENV_SCALARS},
    )
    return RunConfig(
        env=env_cfg,
        reward=RewardWeights(**values["reward"]),
        ppo=PpoConfig(**values["ppo"]),
        gains=PdGains(**values["baseline_gains"]),
        safety=SafetyThresholds(**values["safety"]),
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


def write_snapshot(path, cfg: RunConfig, header_lines: list[str]) -> None:
    """Write the resolved configuration under `# ` comment lines, then a
    blank line; reloading it rebuilds cfg exactly."""
    lines = [f"# {note}" for note in header_lines] + [""]
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _default) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.raw[section][key])}")
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
