"""A forked helper process that talks to its parent over two pipes.

Every process the program starts is one. `mission.LogWriter` formats
trajectory rows in one, `learn.ppo.ppo_update` runs the critic's half of
every update in another, and each `eval --workers N` worker runs its
chunks in another. The first two take the end of their input pipe as
"stop": a parent that fails or is interrupted stops its child by closing
that pipe, and waits for it. An eval worker is stopped by SIGTERM, which
it turns into SystemExit.

Every message, either way, is one pickle: `send` writes it whole and
`receive` reads the next one, or None at the end of the pipe or on a
message cut short. Only these pipes, between the program and its own
fork, are ever unpickled. A parent reads its child through
`Child.receive`, which reports a child that stopped.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from collections.abc import Callable


# an interrupt, and the signal that stops an `eval` worker (SystemExit)
_HELD = {signal.SIGINT, signal.SIGTERM}


def send(fd: int, message) -> None:
    """Pickle `message` and write all of it to `fd`."""
    data = memoryview(pickle.dumps(message))
    while data:
        data = data[os.write(fd, data):]


def receive(f):
    """The next message in the binary file `f`, or None at its end or if
    the message was cut short."""
    try:
        return pickle.load(f)
    except (EOFError, pickle.UnpicklingError):
        return None


@contextlib.contextmanager
def held():
    """Hold SIGINT and SIGTERM in the block; one that arrives there lands
    as it ends. A child is started under it, inside the `try` that stops
    it, so the handler's exception cannot come between the fork (whose
    at-fork hooks would swallow it) and the store of the child."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class Child:
    """A forked child that runs `run(in_fd, out_fd)` and ends with `os._exit`.

    The parent writes to `pipe`, the write end of the child's input, and
    reads `out`, the read end of its output, which the caller owns and
    closes. The child exits with the code `run` returns or a SystemExit
    carries, else 1 with a traceback; it never returns into the parent's
    code, and runs none of its exit handlers or buffers. SIGINT is ignored
    in the child, so an interrupt reaches the parent alone, which then
    reaps the child. A signal the parent receives during the fork lands
    once the child is on record; if its handler raises, the parent reaps
    the child before the exception leaves the constructor.
    """

    def __init__(self, run: Callable[[int, int], int]) -> None:
        # the child gets a copy of every buffer; leave none unwritten
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid: int | None = None
        fds: list[int] = []
        try:
            with held():
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
                in_r, in_w, out_r, out_w = fds
                if pid == 0:
                    code = 1
                    try:
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        signal.pthread_sigmask(signal.SIG_UNBLOCK, _HELD)
                        os.close(in_w)
                        os.close(out_r)
                        code = run(in_r, out_w)
                    except SystemExit as stop:  # a stopped eval worker: no traceback
                        code = stop.code if isinstance(stop.code, int) else 1
                    except BaseException:
                        import traceback

                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(code)  # never back into the parent's code
                os.close(in_r)
                os.close(out_w)
                self.pid = pid
                self.pipe: int | None = in_w
                self.out = out_r
        except BaseException:
            if self.pid is None:
                for fd in fds:
                    os.close(fd)
            else:
                self.reap()
                os.close(self.out)
            raise

    def receive(self, f, what: str):
        """The child's next message in `f`, a file over `out`; if the
        child stopped instead, reap it and raise RuntimeError saying how
        `what` ended."""
        message = receive(f)
        if message is None:
            raise RuntimeError(f"{what} stopped ({self.reap() or 'exit status 0'})")
        return message

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
