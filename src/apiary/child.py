"""A forked helper process that talks to its parent over two pipes.

Two commands run one beside their own work: `mission.LogWriter` formats
trajectory rows in one, and `learn.ppo.ppo_update` runs the critic's half
of every update in another. Both are plain forks, since a daemonic pool
worker (`eval --workers`) may not start a `multiprocessing.Process`, and
both children take the end of their input pipe as "stop": a parent that
fails or is interrupted stops its child by closing that pipe, and waits
for it.
"""

from __future__ import annotations

import os
import signal
import sys
from collections.abc import Callable


# Signals that stay blocked across the fork. SIGINT, so the child ignores
# it from its first instruction; SIGTERM, which stops an `eval` pool worker
# by raising SystemExit. Either one, landing while `os.fork` runs its
# at-fork hooks, would have its exception swallowed there: a pool worker
# would then carry on past the stop and wait for a task forever.
_HELD = {signal.SIGINT, signal.SIGTERM}


class Child:
    """A forked child that runs `run(in_fd, out_fd)` and ends with `os._exit`.

    The parent writes to `pipe`, the write end of the child's input, and
    reads `out`, the read end of its output, which the caller owns and
    closes. The child exits with the code `run` returns, or 1 if it
    raises; it never returns into the parent's code, and runs none of its
    exit handlers or buffers. SIGINT is ignored in the child, so an
    interrupt reaches the parent alone, which then reaps the child. A
    signal the parent receives during the fork lands once the child is on
    record; if its handler raises, the parent reaps the child before the
    exception leaves the constructor.
    """

    def __init__(self, run: Callable[[int, int], int]) -> None:
        # the child gets a copy of every buffer; leave none unwritten
        sys.stdout.flush()
        sys.stderr.flush()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            raise
        in_r, in_w, out_r, out_w = fds
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(in_w)
                os.close(out_r)
                code = run(in_r, out_w)
            except BaseException:
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)  # never back into the parent's code
        os.close(in_r)
        os.close(out_w)
        self.pid: int | None = pid
        self.pipe: int | None = in_w
        self.out = out_r
        try:
            # a signal held across the fork runs its handler here
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except BaseException:
            self.reap()
            os.close(self.out)
            raise

    def reap(self) -> str:
        """Close `pipe` (the child's "stop"), wait for the child, and return
        "" if it exited cleanly, else how it ended. After a reap that an
        interrupt cut short, a second call waits again; once the child is
        reaped, a call returns ""."""
        if self.pid is None:
            return ""
        if self.pipe is not None:
            pipe, self.pipe = self.pipe, None
            os.close(pipe)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            return f"killed by signal {-code}"
        return f"exit status {code}" if code else ""
