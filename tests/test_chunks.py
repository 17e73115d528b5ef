import itertools
import os
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff._chunks import chunk_bounds, in_chunks

from conftest import assert_no_child_left, use_cpus


def _heaviest(weights, bounds):
    return max(sum(weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def test_chunk_bounds_put_the_heaviest_level_alone():
    # study weights n^2 of four dyadic levels
    for cpus in (2, 3, 8):
        assert chunk_bounds([1, 4, 16, 64], cpus) == [0, 3, 4]
    assert chunk_bounds([1, 4, 16, 64], 1) == [0, 4]
    # the benchmark's snapshot files, and the report's parts (bv, moduli,
    # residuals, lebesgue, scalars) as the moduli and residuals flags leave them
    for weights, cut in (([1] * 21, 10), ([1] * 401, 200), ([4, 9, 5, 2, 4], 2),
                         ([4, 9, 2, 4], 2), ([4, 5, 2, 4], 2), ([4, 2, 4], 1)):
        assert chunk_bounds(weights, 2) == [0, cut, len(weights)]
        assert chunk_bounds(weights, 1) == [0, len(weights)]


def test_equal_weights_give_equal_count_chunks():
    # every chunk but the first holds the least feasible count, ceil(401 / cpus)
    assert chunk_bounds([1] * 401, 1) == [0, 401]
    assert chunk_bounds([1] * 401, 2) == [0, 200, 401]
    assert chunk_bounds([1] * 401, 3) == [0, 133, 267, 401]
    # 64 CPUs: 57 chunks of 7 files after a first chunk of 2
    assert chunk_bounds([1] * 401, 64) == [0, *range(2, 402, 7)]
    assert chunk_bounds([1] * 3, 8) == [0, 1, 2, 3]
    assert chunk_bounds([7], 1) == chunk_bounds([7], 8) == [0, 1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=8), st.integers(1, 9))
def test_chunk_bounds_minimise_the_heaviest_chunk(weights, cpus):
    bounds = chunk_bounds(weights, cpus)
    count = len(weights)
    assert bounds[0] == 0 and bounds[-1] == count
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))  # no empty chunk
    assert len(bounds) - 1 <= min(cpus, count)
    # every set of at most cpus - 1 cut points, as the reference
    best = min(_heaviest(weights, [0, *cuts, count])
               for n_cuts in range(min(cpus, count))
               for cuts in itertools.combinations(range(1, count), n_cuts))
    assert _heaviest(weights, bounds) == best


def test_in_chunks_returns_every_chunk_in_order(monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()
    # each child's result is larger than a pipe's buffer
    results = in_chunks(lambda lo, hi: (lo, hi, os.getpid() == parent, bytes(200_000)),
                        [1] * 7)
    assert [r[:3] for r in results] == [(0, 1, True), (1, 4, False), (4, 7, False)]
    assert all(r[3] == bytes(200_000) for r in results)
    assert_no_child_left()


def test_a_call_inside_a_chunk_runs_in_that_chunks_process(monkeypatch):
    use_cpus(monkeypatch, 2)

    def inner(lo, hi):
        return lo, hi, os.getpid()

    (pid0, nested0), (pid1, nested1) = in_chunks(
        lambda lo, hi: (os.getpid(), in_chunks(inner, [1, 1, 1])), [1, 1])
    assert pid0 == os.getpid() != pid1
    assert nested0 == [(0, 3, pid0)] and nested1 == [(0, 3, pid1)]
    # the rule ends with the outer call
    assert [r[:2] for r in in_chunks(inner, [1, 1, 1])] == [(0, 1), (1, 3)]


def test_a_failing_first_chunk_stops_every_other_chunk(monkeypatch):
    # the parent's error is the earliest, so no child's outcome is waited for
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def work(lo, hi):
        if os.getpid() == parent:
            time.sleep(0.2)  # the children are sleeping by now
            raise ValueError("first chunk")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="^first chunk$"):
        in_chunks(work, [1, 1, 1])
    assert time.monotonic() - start < 20
    assert_no_child_left()


def test_an_exception_pickle_cannot_carry_comes_back_as_its_repr(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    class Unpicklable(Exception):  # a local class: pickle cannot name it
        pass

    def work(lo, hi):
        if os.getpid() != parent:
            raise Unpicklable("from a worker")

    with pytest.raises(RuntimeError, match=f"^{re.escape(repr(Unpicklable('from a worker')))}$"):
        in_chunks(work, [1, 1])
