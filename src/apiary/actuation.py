"""Wrench limiting between controller output and the simulated body.

The controller/policy boundary is a body-frame wrench. `ActuationLimits`
holds per-axis magnitude limits (plus an optional slew-rate limit, disabled
by default), and `clamp_axes` applies them to one 3-axis channel in Python
floats. Fidelity below the wrench level, like fan or nozzle allocation, is
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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

