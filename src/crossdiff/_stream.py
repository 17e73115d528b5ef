"""Snapshot files written by forked writer processes while `crossdiff run`
integrates and builds its report.

stream_snapshots(problem, out_dir, precision) is a context manager around
the run.  When this process may use two or more CPUs
(`_chunks.usable_cpus`), it makes out_dir and yields a _Writers, else
None; `cli` passes that value as the private _stream argument of both
solver.run and csvio.write_snapshots.  The _Writers holds the run's states
in one shared map (`_chunks.shared_array`), the only run whose states are
shared.  Once a row holds its snapshot, run calls the stream's store: at
snapshot 0 it forks one writer per usable CPU, each of which sees the
states through the map; a writer's work is a _chunks chunk, so it reports
its result or error through a pipe.  store then puts each snapshot's index
and time, 16 bytes, on one queue pipe that every writer reads: a read of
one message is atomic, so each snapshot goes to one writer, which writes
it to its .tmp name with csvio's per-file code.  The run never waits for a
writer: a send that would block (the writers a pipe's worth behind) ends
the sending, and the commit writes the rest.  The writers are forked
early, from a process that holds little more than the problem, so their
formatting does not add to the run's peak memory, as it does in a process
forked after the report.

write_snapshots commits through the stream: it closes the queue, so the
writers write what is left on it and end, renames the files they wrote in
time order and writes any other one itself.  If the block raises before
the commit, the writers are stopped with SIGTERM and reaped, their .tmp
files are removed, and so are the directories made for them, so a failed
run leaves out_dir as it was.  With one usable CPU, or when out_dir cannot
be made, the block gets None, and write_snapshots writes every file.
"""

from __future__ import annotations

import contextlib
import os
import signal
from pathlib import Path

import numpy as np

from ._chunks import fork, reap, shared_array, usable_cpus
from .csvio import _snapshot_text, _tmp, _unlink, _write_file, snapshot_filename


class _Writers:
    """The writer processes of one stream_snapshots block, their queue and
    the shared (T, 2, n) map that the run keeps its states in."""

    def __init__(self, problem, out: Path, precision: int, count: int):
        self.problem, self.out, self.precision, self.count = problem, out, precision, count
        self.states = shared_array((len(problem.snapshot_times), 2, problem.grid.n_cells))
        self.times = None
        self.children = []  # (pid, read end of its result pipe)
        self.sent = 0  # snapshots put on the queue
        self.committed = False

    def store(self, times, j) -> None:
        """For solver.run, once states[j] holds snapshot j at times[j]: fork
        the writers at snapshot 0, then put each snapshot on their queue."""
        if j != self.sent:  # the sending has ended
            return
        if j == 0:
            self.times = times
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

    def commit(self) -> list[int]:
        """For csvio.write_snapshots: the indices of the snapshots at their
        .tmp names."""
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
    """The _Writers that stream the snapshots of solver.run(problem) into
    out_dir while the block runs, or None (see the module docstring)."""
    out, cpus = Path(out_dir), usable_cpus()
    # the map before any directory: a MemoryError leaves out_dir as it was
    writers = _Writers(problem, out, precision, cpus) if cpus > 1 else None
    made = _make_dirs(out) if writers is not None else None
    if made is None:
        yield None
        return
    try:
        yield writers
    except BaseException:
        if not writers.committed:
            writers.abort()
            _remove_dirs(made)
        raise
    finally:
        writers.abort()
