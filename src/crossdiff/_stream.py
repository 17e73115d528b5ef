"""Snapshot files written by forked writer processes while `crossdiff run`
integrates and builds its report.

stream_snapshots(problem, out_dir, precision) is a context manager around
the run.  When this process may use two or more CPUs
(`_chunks.usable_cpus`), it makes out_dir and sets two private hooks: the
solver's `_stored`, which solver.run calls once a row of its states holds
a snapshot, and csvio's `_streamed`, which write_snapshots calls first.
At the first snapshot the hook forks one writer per usable CPU, each of
which sees run's states through their shared map (`_chunks.shared_array`);
a writer's work is a _chunks chunk, so it reports its result or error
through a pipe.  The hook then puts each snapshot's index and time, 16
bytes, on one queue pipe that every writer reads: a read of one message
is atomic, so each snapshot goes to one writer, which writes it to its
.tmp name with csvio's per-file code.  The run never waits for a writer:
a send that would block (the writers a pipe's worth behind) ends the
sending, and the commit writes the rest.  The writers are forked early,
from a process that holds little more than the problem, so their
formatting does not add to the run's peak memory, as it does in a process
forked after the report.

write_snapshots of that run's trajectory into out_dir at that precision
commits: it closes the queue, so the writers write what is left on it and
end, renames the files they wrote in time order and writes any other one
itself.  If the block raises before the commit, the writers are stopped
with SIGTERM and reaped, their .tmp files are removed, and so are the
directories made for them, so a failed run leaves out_dir as it was.  With
one usable CPU, or when out_dir cannot be made, the block runs as it is
and write_snapshots writes every file.
"""

from __future__ import annotations

import contextlib
import os
import signal
from pathlib import Path

import numpy as np

from . import csvio, solver
from ._chunks import fork, reap, usable_cpus
from .csvio import _snapshot_text, _tmp, _unlink, _write_file, snapshot_filename


class _Writers:
    """The writer processes of one stream_snapshots block and their queue."""

    def __init__(self, problem, out: Path, precision: int, count: int):
        self.problem, self.out, self.precision, self.count = problem, out, precision, count
        self.times = self.states = None
        self.children = []  # (pid, read end of its result pipe)
        self.sent = 0  # snapshots put on the queue
        self.committed = False

    def store(self, problem, times, states, j) -> None:
        """solver.run's hook: fork the writers at snapshot 0, then put each
        snapshot on their queue."""
        if problem is not self.problem or j != self.sent:
            return
        if j == 0:
            self.times, self.states = times, states
            self.queue, self.pipe = os.pipe()
            try:
                for _ in range(self.count):
                    self.children.append(fork(self.write, 0, len(times)))
            except OSError:  # as many writers as could be forked
                pass
            finally:
                os.close(self.queue)
            if not self.children:  # write_snapshots writes every file
                os.close(self.pipe)
                return
            os.set_blocking(self.pipe, False)
        try:
            os.write(self.pipe, np.array([j, times[j]]).tobytes())
            self.sent += 1
        except OSError:  # a pipe's worth behind, or gone: the commit writes the rest
            pass

    def write(self, lo: int, hi: int) -> list[int]:
        """In a writer: the .tmp file of each snapshot it takes off the queue,
        until the queue ends or a write fails; the indices it wrote."""
        os.close(self.pipe)
        text = _snapshot_text(self.problem.grid, self.precision)
        done = []
        while len(message := os.read(self.queue, 16)) == 16:
            j, t = np.frombuffer(message)
            tmp = _tmp(self.out / snapshot_filename(t))
            try:
                _write_file(tmp, text(self.states[int(j)]))
            except OSError:  # the commit writes this file again, and fails the same way
                _unlink(tmp)
                break
            done.append(int(j))
        return done

    def finish(self) -> list[int]:
        """End the queue and reap the writers once they have emptied it; the
        indices of the .tmp files they wrote (none from a writer that
        failed)."""
        if not self.children:
            return []
        os.close(self.pipe)
        done = []
        for pid, result in self.children:
            indices, err = reap(self.write, pid, result)
            done += indices if err is None else []
        self.children = []
        return done

    def commit(self, traj, out: Path, precision: int) -> list[int]:
        """csvio's hook: for this run's trajectory into out at this
        precision, the indices of the snapshots at their .tmp names."""
        if (self.committed or traj.states is not self.states or out != self.out
                or precision != self.precision):
            return []
        self.committed = True
        return self.finish()

    def abort(self) -> None:
        """Stop the writers at once and remove every .tmp file they may have written."""
        if not self.children:
            return
        for pid, _ in self.children:
            os.kill(pid, signal.SIGTERM)  # not yet reaped, so still our child
        self.finish()
        for t in self.times[:self.sent]:
            _unlink(_tmp(self.out / snapshot_filename(t)))


def _make_dirs(out: Path) -> list[Path] | None:
    """Make the directory out: the directories made, deepest first, or None
    when it cannot be made."""
    made = []
    for path in (out, *out.parents):
        if path.exists():
            break
        made.append(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError:
        _remove_dirs(made)
        return None
    return made


def _remove_dirs(paths: list[Path]) -> None:
    for path in paths:
        with contextlib.suppress(OSError):  # one that holds files is not ours
            path.rmdir()


@contextlib.contextmanager
def stream_snapshots(problem, out_dir, precision: int = 17):
    """Stream the snapshots of solver.run(problem) into out_dir while the
    block runs (see the module docstring)."""
    out, cpus = Path(out_dir), usable_cpus()
    made = _make_dirs(out) if solver._stored is None and cpus > 1 else None
    if made is None:
        yield
        return
    writers = _Writers(problem, out, precision, cpus)
    solver._stored, csvio._streamed = writers.store, writers.commit
    try:
        yield
    except BaseException:
        if not writers.committed:
            writers.abort()
            _remove_dirs(made)
        raise
    finally:
        solver._stored = csvio._streamed = None
        writers.abort()
