"""Checks every test gets without asking, and the CPU pins a test may ask for."""
from __future__ import annotations

import os

import pytest


def child_left() -> int | None:
    """The pid of a child process of this one, running or exited and not
    yet reaped (an exited one is reaped here), or None if there is none."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    return pid


@pytest.fixture
def one_cpu(monkeypatch):
    """Both peers step in the calling process, as where one CPU is usable:
    for tests that observe both peers' internals from there."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, as on the benchmark's host: `sim.run` and
    `sim.replay` step peer b in the peer child."""
    if not hasattr(os, "fork"):
        pytest.skip("the peer child needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(autouse=True)
def leaves_no_child_process():
    # `run` and `replay` may fork a peer child, and must reap it on every way out
    yield
    pid = child_left()
    if pid is not None:
        pytest.fail(f"the test left a child process behind (waitpid gave pid {pid}; 0 is one still running)")
