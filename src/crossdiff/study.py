"""Refinement and vanishing-viscosity campaigns: run each level problem of
a StudyPlan (dyadically nested grids and/or a viscosity schedule, as
config.build_plan builds them), then tabulate uniformity of the bounded
functionals, L1-Cauchy differences between consecutive levels, and
convergence-rate fits.

The levels are independent until they are compared, so run_study runs them
over every CPU this process may use with `_chunks.in_chunks`: at most one
chunk of consecutive levels per CPU, level l weighted n_l^2, the first
chunk in this process and each other in an `os.fork` child.  A chunk
integrates and diagnoses its levels and sends back each level's times,
states, report and dissipation integral; the tables are formed here from
those, so they are bitwise the same on any CPU count.  Each chunk stops at
its first failing level, and the earliest failing level's error is the one
raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._chunks import in_chunks
from .grid import MAX_CELLS, grad, integrate
from .model import ProblemSpec
from .diagnostics import DiagnosticsReport, build_report, default_bank_k
from .diagnostics import make_test_bank  # noqa: F401 (bench/trace_cli.py)
from .solver import Trajectory, run


# the most levels a refining study can have: 4 cells doubled up to MAX_CELLS
MAX_LEVELS = (MAX_CELLS // 4).bit_length()


def check_levels(levels: int, viscosity_schedule) -> tuple[float, ...]:
    """Check a study's level count (2 to MAX_LEVELS) and its viscosity
    schedule (empty, or one finite nonnegative eps per level); returns the
    schedule as floats."""
    if levels < 2:
        raise ValueError(f"a study needs at least 2 levels, got {levels}")
    if levels > MAX_LEVELS:
        raise ValueError(f"levels must be at most {MAX_LEVELS}, got {levels}")
    schedule = tuple(float(e) for e in viscosity_schedule)
    if schedule and len(schedule) != levels:
        raise ValueError(f"viscosity_schedule length must give one entry per level "
                         f"({levels}), got {len(schedule)}")
    bad = [e for e in schedule if not 0.0 <= e < np.inf]
    if bad:
        raise ValueError(f"viscosity_schedule entries must be finite and nonnegative, "
                         f"got {bad[0]}")
    return schedule


@dataclass(frozen=True)
class StudyPlan:
    """Campaign description: one problem per level, coarsest first.  Each
    grid's cell count divides the next one's, and every level has the same
    snapshot times, so consecutive levels compare cell by cell at every
    snapshot."""

    problems: tuple[ProblemSpec, ...]

    def __post_init__(self):
        check_levels(len(self.problems), ())
        for l, (coarse, fine) in enumerate(zip(self.problems, self.problems[1:]), 1):
            if fine.grid.n_cells % coarse.grid.n_cells:
                raise ValueError(f"level {l} has n = {fine.grid.n_cells}, not a multiple "
                                 f"of level {l - 1}'s n = {coarse.grid.n_cells}")
            if fine.snapshot_times != coarse.snapshot_times:
                raise ValueError(f"level {l}'s snapshot_times differ from level {l - 1}'s")


@dataclass(frozen=True)
class LevelSummary:
    level: int
    n_cells: int
    eps: float
    mass_rho: float
    mass_mu: float
    entropy_min: float
    entropy_max: float
    sup_bv_u: float
    int_diss: float  # time integral of int |grad S^(alpha/2)|^2


@dataclass(frozen=True)
class StudyReport:
    summaries: tuple[LevelSummary, ...]
    reports: tuple[DiagnosticsReport, ...]
    cauchy_rho: tuple[float, ...]
    cauchy_mu: tuple[float, ...]
    rate_weak_residual: float
    rate_reference_error: float


def prolong(values: np.ndarray, factor: int) -> np.ndarray:
    """Piecewise-constant injection of each row onto a grid refined by `factor`."""
    return np.repeat(values, factor, axis=-1)


def fit_rate(pairs) -> float:
    """Least-squares slope of log(error) against log(scale)."""
    pairs = [(float(s), float(e)) for s, e in pairs]
    if any(s <= 0.0 or e <= 0.0 for s, e in pairs):
        raise ValueError("fit_rate needs positive scales and errors")
    x = np.log([s for s, _ in pairs])
    y = np.log([e for _, e in pairs])
    if len(set(x.tolist())) < 2:
        raise ValueError("fit_rate needs at least 2 distinct scales")
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def _int_diss(traj: Trajectory) -> float:
    """Trapezoid-in-time of int |grad S^(alpha/2)|^2 over the snapshots."""
    alpha = traj.problem.nonlinearity.alpha
    dx = traj.problem.grid.dx
    g = grad((traj.states[:, 0] + traj.states[:, 1]) ** (alpha / 2.0), dx)
    return float(np.trapezoid(integrate(g * g, dx), traj.times))


def _run_level(level: int, problem: ProblemSpec, bank_k: int, residuals: bool,
               moduli: bool) -> tuple:
    """Integrate and diagnose one level: (times, states, report, int_diss)."""
    try:
        traj = run(problem)
        report = build_report(traj, bank_k, residuals, moduli)
        return traj.times, traj.states, report, _int_diss(traj)
    except Exception as err:
        raise RuntimeError(f"study level {level} failed: {err}") from err


def run_study(plan: StudyPlan,
              reference: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
              bank_k: Optional[int] = None, residuals: bool = True,
              moduli: bool = True) -> StudyReport:
    """Run every level, diagnose it, and assemble the campaign tables.

    `reference`, when given, maps (t, x) to the exact species-rho profile
    and feeds the reference-error rate fit.  Each level's report is
    build_report(traj, bank_k, residuals, moduli), bank_k defaulting to the
    coarsest grid's.  The levels run on every usable CPU; the first failing
    level raises RuntimeError("study level L failed: ...").
    """
    problems = plan.problems
    # one bank for every level, so the residual-order fit compares like with like
    bank_k = default_bank_k(problems[0].grid.n_cells) if bank_k is None else bank_k

    def run_levels(lo: int, hi: int) -> list[tuple]:
        return [_run_level(level, problems[level], bank_k, residuals, moduli)
                for level in range(lo, hi)]

    # a semi-implicit level takes about n steps, each costing about n
    chunks = in_chunks(run_levels, [problem.grid.n_cells**2 for problem in problems])
    times, states, reports, int_diss = zip(*[out for chunk in chunks for out in chunk])
    summaries = tuple(LevelSummary(
        level=level, n_cells=problem.grid.n_cells, eps=problem.eps_viscosity,
        mass_rho=float(rep.mass_rho[0]), mass_mu=float(rep.mass_mu[0]),
        entropy_min=float(np.min(rep.entropy)), entropy_max=float(np.max(rep.entropy)),
        sup_bv_u=float(np.max(rep.bv_u)), int_diss=diss)
        for level, (problem, rep, diss) in enumerate(zip(problems, reports, int_diss)))

    cauchy_rho, cauchy_mu = [], []
    for coarse, fine, u_coarse, u_fine in zip(problems, problems[1:], states, states[1:]):
        diff = np.abs(u_fine - prolong(u_coarse, fine.grid.n_cells // coarse.grid.n_cells))
        dr, dm = np.max(integrate(diff, fine.grid.dx), axis=0).tolist()
        cauchy_rho.append(dr)
        cauchy_mu.append(dm)

    scales = [1.0 / problem.grid.n_cells for problem in problems]
    res_pairs = [(s, r.residual_max) for s, r in zip(scales, reports)
                 if np.isfinite(r.residual_max) and r.residual_max > 0.0]
    distinct = len({s for s, _ in res_pairs}) >= 2
    rate_res = fit_rate(res_pairs) if distinct else float("nan")

    rate_ref = float("nan")
    if reference is not None:
        errs = []
        for problem, ts, u in zip(problems, times, states):
            xc = problem.grid.cell_centers()
            errs.append(max(float(np.max(np.abs(rho - reference(t, xc))))
                            for t, rho in zip(ts, u[:, 0])))
        pairs = [(s, e) for s, e in zip(scales, errs) if e > 0.0]
        if len({s for s, _ in pairs}) >= 2:
            rate_ref = fit_rate(pairs)

    return StudyReport(summaries=summaries, reports=reports,
                       cauchy_rho=tuple(cauchy_rho), cauchy_mu=tuple(cauchy_mu),
                       rate_weak_residual=rate_res, rate_reference_error=rate_ref)
