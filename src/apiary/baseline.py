"""Classical PD pose regulator used as the comparison controller.

Force obeys a world-frame PD law on position error, then rotates into the
body frame where the thrusters act. Torque is PD on the body-frame
rotation-vector attitude error with body-rate damping. `pd_wrench_f`
computes it in Python floats from the flight tick's errors, for the
BASELINE mode and the hold fallback. Gains default to a critically damped
translation loop for the nominal body (kd = 2*sqrt(kp*m)), which captures
a 5 cm/s drift to under 5 mm/s within 10 s and settles a 0.5 m translation
without overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import math3d as m3


@dataclass(frozen=True)
class PdGains:
    kp_pos: float = 1.0
    kd_pos: float = 6.164414002969432  # 2*sqrt(kp_pos * nominal mass 9.5)
    kp_att: float = 0.2
    kd_att: float = 0.35

    def __post_init__(self) -> None:
        if min(self.kp_pos, self.kd_pos, self.kp_att, self.kd_att) < 0.0:
            raise ValueError("gains must be >= 0")
        if (self.kp_pos > 0.0 and self.kd_pos == 0.0) or (
            self.kp_att > 0.0 and self.kd_att == 0.0
        ):
            raise ValueError("proportional action needs a damping term")


def pd_wrench_f(
    pos_err: list[float],
    ori_err: list[float],
    attitude: list[float],
    lin_vel: list[float],
    ang_vel: list[float],
    gains: PdGains,
) -> tuple[list[float], list[float]]:
    """PD wrench (body-frame force, torque) in Python floats, from the
    world-frame errors goal - position and quat_error(goal, attitude)."""
    g = gains
    f_world = [g.kp_pos * pos_err[i] - g.kd_pos * lin_vel[i] for i in range(3)]
    force = m3.quat_rotate_inv_f(attitude, f_world)
    ori_body = m3.quat_rotate_inv_f(attitude, ori_err)
    torque = [g.kp_att * ori_body[i] - g.kd_att * ang_vel[i] for i in range(3)]
    return force, torque

