"""Wrench limiting between controller output and the simulated body.

The controller/policy boundary is a body-frame wrench. This module enforces
per-axis magnitude limits (plus an optional slew-rate limit, disabled by
default). Fidelity below the wrench level, like fan or nozzle allocation,
is out of scope.
"""

from __future__ import annotations

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
        if not (self.f_max > 0.0 and self.tau_max > 0.0):
            raise ValueError("actuation limits must be positive")
        if self.force_rate < 0.0 or self.torque_rate < 0.0:
            raise ValueError("rate limits must be >= 0")


def apply_limits(
    prev: Wrench | None, cmd: Wrench, limits: ActuationLimits, dt: float = 0.016
) -> Wrench:
    """Per-axis magnitude clamp, then optional slew clamp relative to prev."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    force = np.clip(cmd.force, -limits.f_max, limits.f_max)
    torque = np.clip(cmd.torque, -limits.tau_max, limits.tau_max)
    if prev is not None:
        if limits.force_rate > 0.0:
            df = limits.force_rate * dt
            force = prev.force + np.clip(force - prev.force, -df, df)
        if limits.torque_rate > 0.0:
            dtq = limits.torque_rate * dt
            torque = prev.torque + np.clip(torque - prev.torque, -dtq, dtq)
    # non-finite commands clamp to the limit instead of propagating
    force = np.nan_to_num(force, nan=0.0, posinf=limits.f_max, neginf=-limits.f_max)
    torque = np.nan_to_num(torque, nan=0.0, posinf=limits.tau_max, neginf=-limits.tau_max)
    return Wrench(force, torque)
