"""Adapters between `RigidState` and the argument lists of `dynamics.step_f`,
shared by the tests that step single states through the flight kernel, and
the momentum probe of the conservation tests."""

import numpy as np

from apiary import math3d as m3
from apiary.dynamics import FULL_6DOF, RigidState


def body_args(params, mask=FULL_6DOF):
    """The mass, inertia, COM and mask arguments of step_f."""
    return (
        float(params.mass), params.inertia_diag.tolist(), params.com_offset.tolist(),
        mask.translation_floats().tolist(), mask.rotation_floats().tolist(),
    )


def lists(state):
    """A RigidState as step_f's four lists."""
    return (state.position.tolist(), state.attitude.tolist(), state.lin_vel.tolist(),
            state.ang_vel.tolist())


def as_state(s):
    """step_f's four lists as a RigidState."""
    return RigidState(*map(np.array, s))


def momentum(state, params):
    """(linear momentum, world-frame angular momentum about the COM)."""
    p = params.mass * state.lin_vel
    l_world = m3.quat_rotate(state.attitude, params.inertia_diag * state.ang_vel)
    return p, l_world
