"""CSV serialization of reports, snapshots and study tables.

All files are comma-separated, decimal-point, line-feed terminated, with
floats at a configurable number of significant digits (default 17, which
round-trips binary64 exactly).  Writes go to a temporary file followed by
an atomic rename so failed runs never leave partial tables behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .diagnostics import SCALAR_COLUMNS, DiagnosticsReport
from .solver import Trajectory
from .study import StudyReport
from .grid import GridSpec


def _fmt(x: float, precision: int) -> str:
    return format(float(x), f".{precision}g")


def _write_atomic(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def write_report_csv(report: DiagnosticsReport, out_dir, precision: int = 17) -> list[Path]:
    """Write scalars.csv, omega_space.csv, omega_time.csv and residuals.csv."""
    out = Path(out_dir)
    written = []

    lines = ["t," + ",".join(SCALAR_COLUMNS)]
    for i, t in enumerate(report.times):
        row = [t] + [getattr(report, col)[i] for col in SCALAR_COLUMNS]
        lines.append(",".join(_fmt(x, precision) for x in row))
    _write_atomic(out / "scalars.csv", lines)
    written.append(out / "scalars.csv")

    for name, (xs, a, b) in (
            ("omega_space.csv", (report.omega_space_h, report.omega_space_rho,
                                 report.omega_space_mu)),
            ("omega_time.csv", (report.omega_time_k, report.omega_time_rho,
                                report.omega_time_mu))):
        head = "h,omega_rho,omega_mu" if name.startswith("omega_space") \
            else "k,omega_rho,omega_mu"
        lines = [head]
        for x, ya, yb in zip(xs, a, b):
            lines.append(",".join(_fmt(v, precision) for v in (x, ya, yb)))
        _write_atomic(out / name, lines)
        written.append(out / name)

    lines = ["phi_id,species,residual"]
    for row in report.residuals:
        lines.append(f"{row.phi_id},{row.species},{_fmt(row.residual, precision)}")
    _write_atomic(out / "residuals.csv", lines)
    written.append(out / "residuals.csv")
    return written


def snapshot_filename(t: float) -> str:
    return f"snapshot_{format(float(t), '.17g')}.csv"


def write_snapshots(traj: Trajectory, out_dir, precision: int = 17) -> list[Path]:
    out = Path(out_dir)
    written = []
    xc = traj.problem.grid.cell_centers()
    for t, (rho, mu) in zip(traj.times, traj.states):
        lines = ["x,rho,mu"]
        for x, r, m in zip(xc, rho, mu):
            lines.append(",".join(_fmt(v, precision) for v in (x, r, m)))
        path = out / snapshot_filename(t)
        _write_atomic(path, lines)
        written.append(path)
    return written


def read_snapshots(traj_dir, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Load snapshot_<t>.csv files, sorted by time, as (times, states): a
    (T,) array and a read-only (T, 2, n) array with rho in [:, 0] and mu in
    [:, 1].  Every density must parse, be finite and be positive."""
    stamped = []
    for path in Path(traj_dir).glob("snapshot_*.csv"):
        try:
            stamped.append((float(path.stem[len("snapshot_"):]), path))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    if not stamped:
        raise ValueError(f"no snapshot_*.csv files in {traj_dir}")
    stamped.sort(key=lambda item: item[0])
    states = np.empty((len(stamped), 2, grid.n_cells))
    for state, (_, path) in zip(states, stamped):
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
    states.setflags(write=False)
    return np.array([t for t, _ in stamped]), states


def write_study_csv(report: StudyReport, out_dir, precision: int = 17) -> list[Path]:
    out = Path(out_dir)
    written = []

    lines = ["level,n_cells,eps,mass_rho,mass_mu,entropy_min,entropy_max,"
             "sup_bv_u,int_diss"]
    for s in report.summaries:
        lines.append(",".join(
            [str(s.level), str(s.n_cells)]
            + [_fmt(v, precision) for v in
               (s.eps, s.mass_rho, s.mass_mu, s.entropy_min, s.entropy_max,
                s.sup_bv_u, s.int_diss)]))
    _write_atomic(out / "levels.csv", lines)
    written.append(out / "levels.csv")

    lines = ["pair,cauchy_rho,cauchy_mu"]
    for i, (cr, cm) in enumerate(zip(report.cauchy_rho, report.cauchy_mu)):
        lines.append(f"{i}-{i + 1},{_fmt(cr, precision)},{_fmt(cm, precision)}")
    _write_atomic(out / "cauchy_l1.csv", lines)
    written.append(out / "cauchy_l1.csv")

    lines = ["name,value",
             f"weak_residual_order,{_fmt(report.rate_weak_residual, precision)}",
             f"reference_error_order,{_fmt(report.rate_reference_error, precision)}"]
    _write_atomic(out / "rates.csv", lines)
    written.append(out / "rates.csv")
    return written


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by this package: (column names, data)."""
    rows = Path(path).read_text().strip().split("\n")
    header = rows[0].split(",")
    if len(rows) == 1:
        return header, np.zeros((0, len(header)))
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return header, data
