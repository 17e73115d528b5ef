"""Helpers for the tests that fork: a usable CPU count for `_chunks`, and a
check, run after every test too, that this process has no child left (a
snapshot writer or a chunk that was never reaped)."""

import os

import pytest

from crossdiff import _chunks


def use_cpus(monkeypatch, count):
    """Make `_chunks.usable_cpus` see count CPUs for the rest of the test."""
    monkeypatch.setattr(_chunks.os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def _no_child_left():
    yield
    assert_no_child_left()
