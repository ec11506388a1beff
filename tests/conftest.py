import os

import pytest

from helpers import assert_reaped
from orbitflex import flexlab


@pytest.fixture
def two_cpus(monkeypatch):
    """Let flexlab fork as on a machine with two CPUs; yields the pids of
    the processes forked so far, and checks at the end that all are reaped.
    Any helper process running is stopped first, so that the test's first
    call forks a new one, which sees the test's stand-ins, and again at the
    end."""
    flexlab._stop_helper()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    children = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield children
    flexlab._stop_helper()
    assert_reaped(children)
