"""`fly`: one maneuver through `mission.run_maneuver` from any entry state.

A command flies every maneuver from `run_sequence`, whose flights start at
rest at the origin. The tests that need another entry (a drifting or
rotated body, a state that overflows) fly it as the first maneuver of a
sequence that starts there; the dock maneuvers still target the origin at
identity attitude."""

from apiary.mission import TrajectoryLog, run_maneuver


def fly(state, maneuver, mode, mc, net=None, log=None, fault=None, maneuver_index=0):
    """run_maneuver's (final true state, outcome) from the state
    (pos, att, lv, av), logged into `log` (a fresh one when None) from tick 0."""
    log = TrajectoryLog() if log is None else log
    return run_maneuver(state, maneuver, mode, mc, net, log, maneuver_index, fault, 0)
