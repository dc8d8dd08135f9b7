"""Checks every test gets without asking."""
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


@pytest.fixture(autouse=True)
def leaves_no_child_process():
    # `replay` may fork a search worker, and must reap it on every way out
    yield
    pid = child_left()
    if pid is not None:
        pytest.fail(f"the test left a child process behind (waitpid gave pid {pid}; 0 is one still running)")
