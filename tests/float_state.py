"""Single states as the four lists of `dynamics.step_f` and the flight
loop, `(pos, att, lv, av)`, shared by the tests that step or fly them, and
the momentum probe of the conservation tests."""

import numpy as np

from apiary import math3d as m3
from apiary.dynamics import FULL_6DOF


def state(pos=(0.0, 0.0, 0.0), att=(1.0, 0.0, 0.0, 0.0), lv=(0.0, 0.0, 0.0), av=(0.0, 0.0, 0.0)):
    """(pos, att, lv, av) as lists of floats; at rest at the origin with
    identity attitude unless given."""
    return tuple([float(c) for c in v] for v in (pos, att, lv, av))


def body_args(params, mask=FULL_6DOF):
    """The mass, inertia, COM and mask arguments of step_f."""
    return (
        float(params.mass), params.inertia_diag.tolist(), params.com_offset.tolist(),
        mask.translation_floats().tolist(), mask.rotation_floats().tolist(),
    )


def momentum(s, params):
    """(linear momentum, world-frame angular momentum about the COM) of
    the state s = (pos, att, lv, av)."""
    _, att, lv, av = s
    p = params.mass * np.array(lv)
    l_world = m3.quat_rotate(np.array(att), params.inertia_diag * np.array(av))
    return p, l_world
