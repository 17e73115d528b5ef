"""Snapshot files written by forked writer processes while `crossdiff run`
integrates and builds its report.

stream_snapshots(problem, out_dir, precision) is a context manager around
the run.  When this process may use two or more CPUs
(`_chunks.usable_cpus`), it allocates the run's states as one shared map
(`_chunks.shared_array`), makes out_dir, forks one writer per usable CPU,
which sees the states through the map, and yields a _Writers; `cli`
passes that value as the private _stream argument of both solver.run and
csvio.write_snapshots.  A writer's work is a _chunks chunk, so it reports
its result or error through a pipe.  Forked before the solve, from a
process that holds little more than the problem, the writers do not add
their formatting to the run's peak memory.  Once row j of the map holds
the snapshot at time t, run calls store(j, t), which puts j and t, 16
bytes, on one queue pipe that every writer reads: a read of one message
is atomic, so each snapshot goes to one writer, which writes it to its
.tmp name with csvio's per-file code.  The run never waits for a writer:
a send that would block (the writers a pipe's worth behind) ends the
sending, and write_snapshots writes the rest.

write_snapshots calls finish, which closes the queue, so the writers write
what is left on it and end, and names the files they wrote; it renames
those in time order and writes any other one itself.  The stream alone
removes .tmp files: if the block raises, or ends without finish, the
writers still running are stopped with SIGTERM and reaped and the .tmp
name of every snapshot sent is removed; if it raises, so are the empty
directories made for the writers, so a failed run leaves out_dir as it
was.  With one usable CPU, or when out_dir cannot be made or no writer
forked, the block gets None and out_dir is as it was: run keeps private
states, and write_snapshots writes every file.
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
    """The writer processes of one stream_snapshots block, their queue, the
    shared (T, 2, n) map that the run keeps its states in, and the times of
    the snapshots sent."""

    def __init__(self, problem, out: Path, precision: int):
        self.problem, self.out, self.precision = problem, out, precision
        self.states = shared_array((len(problem.snapshot_times), 2, problem.grid.n_cells))
        self.children = []  # (pid, read end of its result pipe)
        self.sent = []  # the times of the snapshots put on the queue

    def start(self, count: int) -> bool:
        """Fork up to count writers on a new queue: whether any was forked."""
        self.queue, self.pipe = os.pipe()
        os.set_blocking(self.pipe, False)
        try:
            for _ in range(count):
                self.children.append(fork(self.write, 0, count))
        except OSError:  # as many writers as could be forked
            pass
        finally:
            os.close(self.queue)
        if not self.children:
            os.close(self.pipe)
        return bool(self.children)

    def store(self, j: int, t: float) -> None:
        """For solver.run, once states[j] holds snapshot j at time t: put it
        on the writers' queue."""
        if j != len(self.sent):  # the sending has ended
            return
        try:
            os.write(self.pipe, np.array([j, t]).tobytes())
            self.sent.append(t)
        except OSError:  # a pipe's worth behind, or gone: write_snapshots writes the rest
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
            except OSError:  # write_snapshots writes this file again, and fails the same way
                _unlink(tmp)
                break
            done.append(int(j))
        return done

    def finish(self) -> list[int]:
        """For csvio.write_snapshots: end the queue and reap the writers once
        they have emptied it; the indices of the snapshots at their .tmp
        names (none from a writer that failed)."""
        os.close(self.pipe)
        done = []
        for pid, result in self.children:
            indices, err = reap(self.write, pid, result)
            done += indices if err is None else []
        self.children = []
        return done

    def abort(self) -> None:
        """Stop the writers at once if finish has not reaped them, and remove
        the .tmp name of every snapshot sent."""
        if self.children:
            for pid, _ in self.children:
                os.kill(pid, signal.SIGTERM)  # not yet reaped, so still our child
            self.finish()
        for t in self.sent:
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
    writers = _Writers(problem, out, precision) if cpus > 1 else None
    made = _make_dirs(out) if writers is not None else None
    try:
        if made is not None and writers.start(cpus):
            yield writers
            if writers.children:  # the block did not call finish
                writers.abort()
            return
    except BaseException:  # in the forks or the block
        writers.abort()
        _remove_dirs(made)
        raise
    _remove_dirs(made or [])
    yield None
