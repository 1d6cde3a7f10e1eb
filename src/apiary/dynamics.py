"""Deterministic 6-DOF rigid-body propagation in zero-G.

Semi-implicit stepping: velocities are updated from the applied wrench
first, then the pose is advanced with the new velocities. The rotational
update works on body angular momentum and re-expresses it in the rotated
body frame each step, which keeps world-frame angular momentum constant
to machine precision under zero torque (a plain explicit update of
Euler's equation drifts ~1e-3 over 1e4 steps and would mask real bugs in
conservation tests). To first order this is identical to integrating
omega_dot = I^-1 (tau - omega x I omega).

A DOF mask supports the planar air-bearing configuration: x/y translation
plus z rotation free, everything else pinned. Masked axes have velocity
(and thus acceleration) forced to exactly zero every step.

No gravity, no drag, no contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import math3d as m3


class SimulationDivergedError(RuntimeError):
    """State went non-finite during propagation."""


@dataclass(frozen=True)
class BodyParams:
    """Rigid-body mass properties (principal-axis inertia approximation)."""

    mass: float = 9.5
    inertia_diag: np.ndarray = field(default_factory=lambda: m3.vec3(0.15, 0.14, 0.16))
    com_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "inertia_diag", np.asarray(self.inertia_diag, dtype=np.float64))
        object.__setattr__(self, "com_offset", np.asarray(self.com_offset, dtype=np.float64))
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        ix, iy, iz = self.inertia_diag
        if not (ix > 0.0 and iy > 0.0 and iz > 0.0):
            raise ValueError("inertia components must be positive")
        if ix + iy < iz or iy + iz < ix or iz + ix < iy:
            raise ValueError("inertia violates triangle inequality")


# the mask floats of three free axes; `step_arrays` skips its multiplies
# by this array, as x * 1.0 == x
ALL_FREE = np.ones(3)
ALL_FREE.flags.writeable = False


def _axis_floats(free: tuple[bool, bool, bool]) -> np.ndarray:
    if all(free):
        return ALL_FREE
    out = np.array([1.0 if f else 0.0 for f in free])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DofMask:
    free_translation: tuple[bool, bool, bool] = (True, True, True)
    free_rotation: tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self) -> None:
        # cached once; these sit on the per-tick hot path
        object.__setattr__(self, "_tfloats", _axis_floats(self.free_translation))
        object.__setattr__(self, "_rfloats", _axis_floats(self.free_rotation))

    def translation_floats(self) -> np.ndarray:
        return self._tfloats

    def rotation_floats(self) -> np.ndarray:
        return self._rfloats


FULL_6DOF = DofMask()
GRANITE_3DOF = DofMask(free_translation=(True, True, False), free_rotation=(False, False, True))


def step_arrays(
    position: np.ndarray,
    attitude: np.ndarray,
    lin_vel: np.ndarray,
    ang_vel: np.ndarray,
    force: np.ndarray,
    torque: np.ndarray,
    mass: np.ndarray,
    inertia_diag: np.ndarray,
    com_offset: np.ndarray,
    tmask: np.ndarray,
    rmask: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One propagation step over raw arrays; broadcasts over leading axes.

    The state is position/lin_vel in the world frame, ang_vel in the body
    frame; force/torque are body-frame. mass broadcasts as (...,) against
    (...,3) vectors; dt may be a float or a 0-d array (the cheaper
    multiplier). A mask that is `ALL_FREE` is not multiplied by. Used
    directly by the vectorized environment; `step_f` is its single-state
    twin. Pure function of its inputs. Raises SimulationDivergedError when
    the step's rotation goes non-finite under a finite wrench (the angular
    rate diverged, or its rotation vector's norm overflows); a non-finite
    wrench or attitude raises ValueError.
    """
    f_world = m3.quat_rotate(attitude, force)
    acc = f_world / np.asarray(mass)[..., None]
    new_linvel = lin_vel + acc * dt
    if tmask is not ALL_FREE:
        new_linvel *= tmask
    new_position = position + new_linvel * dt

    # wrench is applied at the body origin; a center-of-mass offset turns
    # force into torque about the COM
    tau = torque - m3.vec_cross(com_offset, force)
    # a rotation that goes non-finite raises below, so numpy's overflow and
    # invalid-value warnings on the way there would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ang_mom = inertia_diag * ang_vel + tau * dt
            if rmask is not ALL_FREE:
                ang_mom *= rmask
            omega_mid = ang_mom / inertia_diag
            dq = m3.quat_from_rotvec(omega_mid * dt)
        except ValueError:
            if np.isfinite(force).all() and np.isfinite(torque).all():
                raise SimulationDivergedError("angular rate went non-finite during step") from None
            raise
    new_attitude = m3.quat_mul(attitude, dq)
    ang_mom = m3.quat_rotate_inv(dq, ang_mom)
    if rmask is not ALL_FREE:
        ang_mom *= rmask
    new_angvel = ang_mom / inertia_diag
    return new_position, new_attitude, new_linvel, new_angvel


def step_f(
    pos: list[float],
    att: list[float],
    lv: list[float],
    av: list[float],
    force: list[float],
    torque: list[float],
    mass: float,
    inertia: list[float],
    com: list[float],
    tm: list[float],
    rm: list[float],
    dt: float,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """`step_arrays` for one state, in Python floats.

    The same operations in the same grouping, through the math3d `*_f`
    twins of the kernels `step_arrays` calls, so the result is
    bit-identical and the same errors are raised in the same order. Raises
    SimulationDivergedError where `step_arrays` raises it or would return
    a non-finite state.
    """
    f_world = m3.quat_rotate_f(att, force)
    new_lv = [(lv[i] + dt * (f_world[i] / mass)) * tm[i] for i in range(3)]
    new_pos = [pos[i] + dt * new_lv[i] for i in range(3)]

    # tau = torque - vec_cross(com, force)
    cross = (
        com[1] * force[2] - com[2] * force[1],
        com[2] * force[0] - com[0] * force[2],
        com[0] * force[1] - com[1] * force[0],
    )
    ang_mom = [(inertia[i] * av[i] + dt * (torque[i] - cross[i])) * rm[i] for i in range(3)]
    try:
        dq = m3.quat_from_rotvec_f([ang_mom[i] / inertia[i] * dt for i in range(3)])
    except ValueError:
        if all(map(math.isfinite, (*force, *torque))):
            raise SimulationDivergedError("angular rate went non-finite during step") from None
        raise
    new_att = m3.quat_mul_f(att, dq)
    ang_mom = m3.quat_rotate_inv_f(dq, ang_mom)
    new_av = [ang_mom[i] * rm[i] / inertia[i] for i in range(3)]
    if not all(map(math.isfinite, new_pos + new_att + new_lv + new_av)):
        raise SimulationDivergedError("state went non-finite during step")
    return new_pos, new_att, new_lv, new_av

