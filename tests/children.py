"""The check, shared by the command and learner tests, that no process a
command or update started outlives it."""

import multiprocessing
import os

import pytest


def assert_no_child_left():
    """No process a command started outlives it: none that multiprocessing
    knows of, and no child of this process at all, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
