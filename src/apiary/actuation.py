"""Wrench limiting between controller output and the simulated body.

The controller/policy boundary is a body-frame wrench. This module enforces
per-axis magnitude limits (plus an optional slew-rate limit, disabled by
default). Fidelity below the wrench level, like fan or nozzle allocation,
is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Wrench:
    """Body-frame force (N) and torque (N*m)."""

    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        self.force = np.asarray(self.force, dtype=np.float64)
        self.torque = np.asarray(self.torque, dtype=np.float64)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.force).all() and np.isfinite(self.torque).all())

    def copy(self) -> "Wrench":
        return Wrench(self.force.copy(), self.torque.copy())


@dataclass(frozen=True)
class ActuationLimits:
    """Per-axis saturation; rate limits of 0 mean no slew limiting."""

    f_max: float = 0.4
    tau_max: float = 0.1
    force_rate: float = 0.0
    torque_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.f_max < math.inf and 0.0 < self.tau_max < math.inf):
            raise ValueError("actuation limits must be positive and finite")
        if self.force_rate < 0.0 or self.torque_rate < 0.0:
            raise ValueError("rate limits must be >= 0")


def clamp_axes(
    cmd: list[float], prev: list[float] | None, limit: float, rate: float, dt: float
) -> list[float]:
    """Per-axis clamp of one 3-axis channel in Python floats.

    Each axis is clamped to [-limit, limit]; then, when `prev` (the
    previous output, finite) is given and rate > 0, to within rate * dt
    of prev; NaN becomes 0. Bit-identical to np.clip followed by
    np.nan_to_num(nan=0, posinf=limit, neginf=-limit): the magnitude clamp
    already takes +-inf to +-limit, and max() and min() keep a NaN first
    argument as np.clip does.
    """
    out = [min(max(c, -limit), limit) for c in cmd]
    if prev is not None and rate > 0.0:
        d = rate * dt
        out = [p + min(max(c - p, -d), d) for c, p in zip(out, prev)]
    return [0.0 if c != c else c for c in out]


def apply_limits(
    prev: Wrench | None, cmd: Wrench, limits: ActuationLimits, dt: float = 0.016
) -> Wrench:
    """Per-axis magnitude clamp, then optional slew clamp relative to prev
    (the previous output); non-finite commands clamp instead of propagating."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    prev_force = prev_torque = None
    if prev is not None:
        if not prev.is_finite():
            raise ValueError("previous wrench must be finite")
        prev_force, prev_torque = prev.force.tolist(), prev.torque.tolist()
    force = clamp_axes(cmd.force.tolist(), prev_force, limits.f_max, limits.force_rate, dt)
    torque = clamp_axes(cmd.torque.tolist(), prev_torque, limits.tau_max, limits.torque_rate, dt)
    return Wrench(np.array(force), np.array(torque))
