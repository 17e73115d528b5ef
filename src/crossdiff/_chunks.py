"""Independent work split over every CPU this process may use, with os.fork.

in_chunks(work, weights) cuts the items 0..len(weights)-1 into contiguous
chunks, one per usable CPU at most, so that the heaviest chunk (by the sum
of its items' weights) is as light as possible; no chunk is empty.  Each
chunk is filled up to that least heaviest weight from the last item back,
so only the first chunk can be lighter.  The parent runs work(lo, hi) on
the first chunk and a forked child each other one.  Children see the
parent's data through fork; each sends back its chunk's return value, or
its exception, pickled through a pipe.  Every child is reaped before
in_chunks returns or raises, and the error raised is the earliest failing
chunk's, so a caller whose work stops at its first failing item fails on
the same item as a sequential loop would.  When the parent's own chunk
fails, its error is that earliest one, so the children are stopped with
SIGTERM, which a child raises as SystemExit (its `finally` and `except
BaseException` cleanup still runs), before they are reaped.  A child that
ends without sending its result raises a RuntimeError naming the work.
With one CPU, or without os.fork, the parent runs the only chunk.  So does
a call made while this process runs a chunk, in the parent or in a forked
child: it runs work(0, len(weights)) in place, so nested parallel work (a
study level's report) forks no grandchildren and takes no more CPUs than
the outer call shares out.

in_chunks serves read_snapshots, build_report and run_study; fork and
reap run one such child alone, for the snapshot writers of `_stream`.
usable_cpus is the CPU count in_chunks shares out.  shared_array holds the
states of read_snapshots and of a streamed run alone, for forked children.

The only threads the parent may have are OpenBLAS's pool, which OpenBLAS
stops before a fork with its pthread_atfork handler, so children may call
BLAS and LAPACK (study levels do).  The test suite runs without
OPENBLAS_NUM_THREADS=1 and so checks that this is safe.
"""

from __future__ import annotations

import bisect
import errno
import itertools
import math
import mmap
import os
import pickle
import signal
from typing import Callable, NoReturn, Sequence

import numpy as np

_in_chunk = False  # this process is running a chunk of an in_chunks call


def chunk_bounds(weights: Sequence[int], chunks: int) -> list[int]:
    """Cut points lo_0 = 0 < lo_1 < ... < len(weights) of at most `chunks`
    contiguous chunks with the smallest possible heaviest chunk, for one
    or more positive integer weights: the least cap on a chunk's weight
    that `chunks` chunks can keep to, with each chunk filled up to it from
    the last item back, so only the first chunk (the parent's) can be
    lighter than the cap."""
    prefix = list(itertools.accumulate(weights, initial=0))

    def fill(cap: int) -> list[int]:  # greedy from the end: the fewest chunks of at most cap
        bounds = [len(weights)]
        while bounds[-1] > 0:
            bounds.append(bisect.bisect_left(prefix, prefix[bounds[-1]] - cap))
        return bounds[::-1]

    lo, hi = max(weights), prefix[-1]  # bisect for the least cap that fits
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if len(fill(mid)) <= chunks + 1 else (mid + 1, hi)
    return fill(lo)


def usable_cpus() -> int:
    """How many CPUs in_chunks shares work over: those this process may use,
    or 1 without os.fork or while this process runs a chunk."""
    if _in_chunk or not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array over one anonymous shared map: a child forked
    after it is made sees what the parent writes into it later, and the
    parent what the child writes.  A map that does not fit raises
    MemoryError, as np.empty(shape) would."""
    try:
        buffer = mmap.mmap(-1, 8 * math.prod(shape))
    except OSError as err:
        if err.errno != errno.ENOMEM:
            raise
        np.empty(shape)  # numpy's MemoryError names the size, when it does not fit either
        raise MemoryError(str(err)) from None
    return np.frombuffer(buffer, dtype=np.float64).reshape(shape)


def fork(work: Callable[[int, int], object], lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that runs work(lo, hi) as a chunk (_run_child): its pid
    and the read end of the pipe that carries its result, for reap."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _run_child(work, lo, hi, write_fd)
    os.close(write_fd)
    return pid, read_fd


def in_chunks(work: Callable[[int, int], object], weights: Sequence[int]) -> list:
    """[work(lo, hi) for each chunk] over chunk_bounds(weights, usable CPUs):
    the parent runs the first chunk and an os.fork child each other one;
    one chunk, in place, when called from inside a chunk."""
    global _in_chunk
    bounds = chunk_bounds(weights, usable_cpus())
    children = []  # (pid, read end of the pipe that carries its result)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(fork(work, lo, hi))
        outer, _in_chunk = _in_chunk, True
        try:
            results = [work(bounds[0], bounds[1])]
        finally:
            _in_chunk = outer
    except BaseException:  # the earliest error: no child's outcome is needed
        for pid, _ in children:
            os.kill(pid, signal.SIGTERM)  # not yet reaped, so still our child
        raise
    finally:
        outcomes = [reap(work, pid, read_fd) for pid, read_fd in children]
    for result, err in outcomes:
        if err is not None:
            raise err
        results.append(result)
    return results


def _run_child(work, lo: int, hi: int, write_fd: int) -> NoReturn:
    """A forked chunk: (work(lo, hi), None), or (None, its exception), sent
    pickled through write_fd, an exception that does not survive pickling
    as a RuntimeError holding its repr; always os._exit, so no handler or
    cleanup of the parent's stack runs in the child.  It exits 0 only once
    the whole message is written.  SIGTERM raises SystemExit in it."""
    global _in_chunk
    _in_chunk = True
    code = 1
    try:
        signal.signal(signal.SIGTERM, _stop)
        try:
            message = pickle.dumps((work(lo, hi), None))
        except BaseException as err:  # the parent raises it again
            try:
                message = pickle.dumps((None, err))
                pickle.loads(message)
            except Exception:
                message = pickle.dumps((None, RuntimeError(repr(err))))
        with open(write_fd, "wb") as fh:
            fh.write(message)
        code = 0
    finally:
        os._exit(code)


def _stop(signum, frame) -> NoReturn:
    raise SystemExit(f"stopped by signal {signum}")


def reap(work, pid: int, read_fd: int) -> tuple:
    """Wait for a chunk's child: the (result, exception) pair it sent, or a
    RuntimeError when it ended before sending one.  The pipe is read to its
    end before waitpid: a child blocks on a message larger than the pipe's
    buffer until the parent reads it."""
    try:
        with open(read_fd, "rb") as fh:
            message = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return pickle.loads(message)  # bytes our own child wrote
    how = f"by signal {-code}" if code < 0 else f"with exit status {code}"
    return None, RuntimeError(f"{work.__qualname__} worker {pid} ended {how}, "
                              "sending no error")
