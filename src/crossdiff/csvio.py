"""CSV serialization of reports, snapshots and study tables.

All files are comma-separated, decimal-point, line-feed terminated, with
floats at a configurable number of significant digits (default 17, which
round-trips binary64 exactly).  Each file's body is built by one
%-format of a row template repeated once per row (`_lines`).  read_table
parses a body with numpy's C tokenizer (`np.loadtxt`), which converts each
field with the routine `float` uses, so the values are correctly rounded
and bit-identical to `float`'s.  It keeps that array only when it holds
one row per body line, since loadtxt skips blank lines.  Anything else
goes to one flat `float` pass, which owns every error message and also
reads what only `float` accepts (`1_0`, Unicode digits).

Snapshot files are independent, so write_snapshots and read_snapshots
split them in time order over every CPU this process may use with
`_chunks.in_chunks`, each file of weight 1 (so every chunk but the first,
which may be smaller, holds ceil(count / CPUs) files): the first chunk in
this process and each other in an `os.fork` child.  Children see the
trajectory through fork, and readers parse straight into a (T, 2, n) array
over one shared mmap, so a child sends back nothing but its error.  Each
chunk stops at its first failing file, and the earliest failing chunk's
error is raised once every child is reaped: a read fails on the first bad
file in time order, as a sequential reader would.  Each snapshot is
formatted and written on its own, so a trajectory's text is never held in
memory whole.

Files are written to a temporary file and atomically renamed into place; a
failed write removes its temporary file, so no partial table is left
behind.  After a failed write_snapshots, files of later chunks may exist.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
from pathlib import Path

import numpy as np

from ._chunks import in_chunks
from .diagnostics import SCALAR_COLUMNS, DiagnosticsReport
from .solver import Trajectory
from .study import StudyReport
from .grid import GridSpec


def _lines(row: str, values: list, precision: int) -> str:
    """`row`, a %-template whose %g fields print `precision` significant
    digits, formatted once per line over the row-major `values`."""
    row = row.replace("%g", f"%.{precision}g") + "\n"
    return (row * (len(values) // row.count("%"))) % tuple(values)


def write_atomic(path: Path, text: str) -> None:
    """Write text to path through path.tmp and a rename, so path holds either
    its old content or all of text; on any failure path.tmp is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # a directory is not ours to remove
            tmp.unlink(missing_ok=True)
        raise


def _write_tables(out_dir, tables, precision: int) -> list[Path]:
    """Write each (file name, header, row template, row-major values) table."""
    out = Path(out_dir)
    for name, header, row, values in tables:
        write_atomic(out / name, header + "\n" + _lines(row, values, precision))
    return [out / name for name, *_ in tables]


def write_report_csv(report: DiagnosticsReport, out_dir, precision: int = 17) -> list[Path]:
    """Write scalars.csv, omega_space.csv, omega_time.csv and residuals.csv."""
    scalars = [report.times] + [getattr(report, col) for col in SCALAR_COLUMNS]
    return _write_tables(out_dir, [
        ("scalars.csv", "t," + ",".join(SCALAR_COLUMNS), ",".join(["%g"] * len(scalars)),
         np.column_stack(scalars).ravel().tolist()),
        ("omega_space.csv", "h,omega_rho,omega_mu", "%g,%g,%g",
         np.column_stack((report.omega_space_h, report.omega_space_rho,
                          report.omega_space_mu)).ravel().tolist()),
        ("omega_time.csv", "k,omega_rho,omega_mu", "%g,%g,%g",
         np.column_stack((report.omega_time_k, report.omega_time_rho,
                          report.omega_time_mu)).ravel().tolist()),
        ("residuals.csv", "phi_id,species,residual", "%s,%s,%g",
         [v for row in report.residuals for v in row]),
    ], precision)


def snapshot_filename(t: float) -> str:
    return f"snapshot_{format(float(t), '.17g')}.csv"


def write_snapshots(traj: Trajectory, out_dir, precision: int = 17) -> list[Path]:
    """Write snapshot_<t>.csv for every time of traj; the paths in time order."""
    out = Path(out_dir)
    paths = [out / snapshot_filename(t) for t in traj.times]
    xc = traj.problem.grid.cell_centers().tolist()
    x_lines = _lines("%g", xc, precision).splitlines()  # the same in every file

    def write(lo: int, hi: int) -> None:
        flat = [None] * (3 * len(xc))  # x, rho, mu of each row in turn
        flat[0::3] = x_lines
        for path, (rho, mu) in zip(paths[lo:hi], traj.states[lo:hi]):
            flat[1::3] = rho.tolist()
            flat[2::3] = mu.tolist()
            write_atomic(path, "x,rho,mu\n" + _lines("%s,%g,%g", flat, precision))

    in_chunks(write, [1] * len(paths))
    return paths


def read_snapshots(traj_dir, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Load snapshot_<t>.csv files, sorted by time, as (times, states): a
    (T,) array and a read-only (T, 2, n) array with rho in [:, 0] and mu in
    [:, 1].  Every time and density must parse and be finite, every density
    must be positive, and no two files may hold the same time."""
    stamped = []
    for path in Path(traj_dir).glob("snapshot_*.csv"):
        try:
            t = float(path.stem[len("snapshot_"):])
            if not math.isfinite(t):  # a NaN would leave the sort order undefined
                raise ValueError(f"non-finite snapshot time {t!r}")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        stamped.append((t, path))
    if not stamped:
        raise ValueError(f"no snapshot_*.csv files in {traj_dir}")
    stamped.sort()
    for (t, first), (t_next, path) in zip(stamped, stamped[1:]):
        if t_next == t:
            raise ValueError(f"{path}: duplicate snapshot time {t!r}, also in {first.name}")
    shape = (len(stamped), 2, grid.n_cells)
    # shared with the forked readers, which parse straight into their rows
    states = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64)
    states = states.reshape(shape)

    def read(lo: int, hi: int) -> None:
        for state, (_, path) in zip(states[lo:hi], stamped[lo:hi]):
            try:
                header, data = read_table(path)
                if header != ["x", "rho", "mu"]:
                    raise ValueError(f"unexpected snapshot header {','.join(header)!r}")
                if data.shape[0] != grid.n_cells:
                    raise ValueError(f"expected {grid.n_cells} rows, got {data.shape[0]}")
                if data.shape[1] != 3:
                    raise ValueError(f"expected 3 values a row, got {data.shape[1]}")
                state[...] = data[:, 1:].T
                if not np.all(np.isfinite(state)):
                    raise ValueError("non-finite density value")
                bad = np.argwhere(state <= 0.0)
                if bad.size:
                    raise ValueError(f"nonpositive density at cell {bad[0, -1]}")
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None

    in_chunks(read, [1] * len(stamped))
    states.setflags(write=False)
    return np.array([t for t, _ in stamped]), states


def write_study_csv(report: StudyReport, out_dir, precision: int = 17) -> list[Path]:
    return _write_tables(out_dir, [
        ("levels.csv", "level,n_cells,eps,mass_rho,mass_mu,entropy_min,entropy_max,"
         "sup_bv_u,int_diss", "%s,%s,%g,%g,%g,%g,%g,%g,%g",
         [v for s in report.summaries for v in
          (s.level, s.n_cells, s.eps, s.mass_rho, s.mass_mu, s.entropy_min,
           s.entropy_max, s.sup_bv_u, s.int_diss)]),
        ("cauchy_l1.csv", "pair,cauchy_rho,cauchy_mu", "%d-%d,%g,%g",
         [v for i, (cr, cm) in enumerate(zip(report.cauchy_rho, report.cauchy_mu))
          for v in (i, i + 1, cr, cm)]),
        ("rates.csv", "name,value", "%s,%g",
         ["weak_residual_order", report.rate_weak_residual,
          "reference_error_order", report.rate_reference_error]),
    ], precision)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by this package: (column names, data), with
    data a (rows, columns) array, (0, len(column names)) for a header-only
    file.  Every body row must hold the same number of values.

    The body goes through np.loadtxt first, and its array is returned only
    when it has one row per body line.  On a loadtxt error, a row-count
    mismatch or a body holding a \\x1c-\\x1f separator (which loadtxt strips
    as whitespace and `float` rejects), the flat `float` pass reads the
    body, so the values, shape and error text are those of `float` either
    way."""
    head, _, body = Path(path).read_text().strip().partition("\n")
    header = head.split(",")
    if not body:
        return header, np.zeros((0, len(header)))
    if not any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
            if len(data) == body.count("\n") + 1:
                return header, data
        except ValueError:
            pass
    rows = body.split("\n")
    commas = [row.count(",") for row in rows]
    if commas.count(commas[0]) != len(commas):
        i = next(i for i, c in enumerate(commas) if c != commas[0])
        raise ValueError(f"ragged rows: line {i + 2} holds {commas[i] + 1} values, "
                         f"line 2 holds {commas[0] + 1}")
    data = np.array(list(map(float, body.replace("\n", ",").split(","))))
    return header, data.reshape(len(rows), commas[0] + 1)
