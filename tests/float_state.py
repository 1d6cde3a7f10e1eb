"""Adapters between `RigidState` and the argument lists of `dynamics.step_f`,
shared by the tests that step single states through the flight kernel."""

import numpy as np

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
