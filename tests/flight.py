"""`fly`: one maneuver through `mission.run_maneuver` from any entry state.

A command flies every maneuver from `run_sequence`, whose flights start at
rest at the origin. The tests that need another entry (a drifting or
rotated body, a state that overflows) fly it as the first maneuver of a
sequence that starts there, so its dock pose is that entry pose."""

from apiary.env import EpisodeGoal
from apiary.mission import TrajectoryLog, run_maneuver


def fly(state, maneuver, mode, mc, net=None, log=None, fault=None, maneuver_index=0):
    """run_maneuver's (final true state, outcome), logged into `log` (a
    fresh one when None) from tick 0."""
    dock_pose = EpisodeGoal(state.position.copy(), state.attitude.copy())
    log = TrajectoryLog() if log is None else log
    return run_maneuver(state, maneuver, mode, mc, net, log, maneuver_index, fault, dock_pose, 0)
