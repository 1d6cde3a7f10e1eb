"""`fly`: one maneuver through `mission.run_maneuver` from any entry state,
and the columns of a trajectory log read back from its file.

A command flies every maneuver from `run_sequence`, whose flights start at
rest at the origin. The tests that need another entry (a drifting or
rotated body, a state that overflows) fly it as the first maneuver of a
sequence that starts there; the dock maneuvers still target the origin at
identity attitude.

A log is read back by `mission.read_log` as its (n, 32) numeric columns;
`column`/`columns` pick them by name, and `labels` reads the mode and
maneuver columns that `read_log` leaves out. `log_text` is the oracle for
a log's bytes, one `repr` at a time."""

import csv

from apiary.mission import LOG_COLUMNS, LOG_HEADER, LogWriter, run_maneuver


def log_text(rows, labels) -> bytes:
    """The bytes of a log of `rows` (lists of 32 floats), row i labelled
    (mode, maneuver) `labels[i]`: `LOG_HEADER`, then per row its values'
    `repr`s, mode and maneuver, comma-separated, and CRLF."""
    lines = (
        ",".join(map(repr, row)) + f",{mode},{maneuver}\r\n"
        for row, (mode, maneuver) in zip(rows, labels)
    )
    return (LOG_HEADER + "".join(lines)).encode()


class _NoLog:
    """Takes the place of a `LogWriter` when a flight's rows are not wanted."""

    def row(self, key, row, mode, maneuver):
        pass


def fly(state, maneuver, mode, mc, net=None, log_path=None, fault=None, maneuver_index=0):
    """run_maneuver's (final true state, outcome) from the state
    (pos, att, lv, av). Its rows go from tick 0 through a `LogWriter` to a
    trajectory CSV at `log_path`, or nowhere when None. The log is finished
    even when the flight raises, so it keeps the rows flown until then."""
    if log_path is None:
        return run_maneuver(state, maneuver, mode, mc, net, _NoLog(), maneuver_index, fault, 0)
    log = LogWriter({0: str(log_path)})
    try:
        return run_maneuver(state, maneuver, mode, mc, net, log, maneuver_index, fault, 0)
    finally:
        log.finish()


def column(num, name):
    """The numeric column `name` of a log's (n, 32) array."""
    return num[:, LOG_COLUMNS.index(name)]


def columns(num, names):
    return num[:, [LOG_COLUMNS.index(n) for n in names]]


def labels(path) -> tuple[list[str], list[int]]:
    """The mode and maneuver columns of the trajectory CSV at `path`."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return [r[32] for r in rows], [int(r[33]) for r in rows]
