"""Helpers shared by the tests of forked helpers: they count the helpers
a block forks, bound how long it may run, and check that no process or
descriptor is left behind."""

import os
import signal
from contextlib import contextmanager
from unittest import mock

from fabboo import pipeline


@contextmanager
def forks():
    """Yields the pids of the helpers forked in the block."""
    forked = []
    fork = pipeline._fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(pipeline, "_fork", counting_fork):
        yield forked


@contextmanager
def alarm(seconds, message):
    """Fail with `message` if the block runs longer than `seconds`."""
    def hung(signum, frame):
        raise AssertionError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def no_children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def open_fds():
    """This process's open file descriptors, where the platform lists
    them."""
    fd_dir = "/proc/self/fd"
    return sorted(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
