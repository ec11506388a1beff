import os

import pytest

from helpers import assert_reaped


@pytest.fixture
def two_cpus(monkeypatch):
    """Let flexlab fork as on a machine with two CPUs; yields the pids of
    the children forked so far, and checks at the end that all are reaped."""
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
    assert_reaped(children)
