"""Refinement and vanishing-viscosity campaigns: run each level problem of
a StudyPlan (dyadically nested grids and/or a viscosity schedule, as
config.build_plan builds them), then tabulate uniformity of the bounded
functionals, L1-Cauchy differences between consecutive levels, and
convergence-rate fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import grad, integrate
from .model import ProblemSpec
from .diagnostics import DiagnosticsReport, build_report, default_bank_k
from .diagnostics import make_test_bank  # noqa: F401 (bench/trace_cli.py)
from .solver import Trajectory, run


def check_levels(levels: int, viscosity_schedule) -> tuple[float, ...]:
    """Check a study's level count and its viscosity schedule (empty, or
    one finite nonnegative eps per level); returns the schedule as floats."""
    if levels < 2:
        raise ValueError(f"a study needs at least 2 levels, got {levels}")
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
    plan: StudyPlan
    summaries: tuple[LevelSummary, ...]
    reports: tuple[DiagnosticsReport, ...]
    trajectories: tuple[Trajectory, ...]
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


def run_study(plan: StudyPlan,
              reference: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
              bank_k: Optional[int] = None, residuals: bool = True,
              moduli: bool = True) -> StudyReport:
    """Run every level, diagnose it, and assemble the campaign tables.

    `reference`, when given, maps (t, x) to the exact species-rho profile
    and feeds the reference-error rate fit.  Each level's report is
    build_report(traj, bank_k, residuals, moduli), bank_k defaulting to the
    coarsest grid's.
    """
    # one bank for every level, so the residual-order fit compares like with like
    bank_k = default_bank_k(plan.problems[0].grid.n_cells) if bank_k is None else bank_k
    trajectories = []
    reports = []
    summaries = []
    for level, problem in enumerate(plan.problems):
        try:
            traj = run(problem)
            rep = build_report(traj, bank_k, residuals, moduli)
        except Exception as err:
            raise RuntimeError(f"study level {level} failed: {err}") from err
        trajectories.append(traj)
        reports.append(rep)
        summaries.append(LevelSummary(
            level=level, n_cells=problem.grid.n_cells, eps=problem.eps_viscosity,
            mass_rho=float(rep.mass_rho[0]), mass_mu=float(rep.mass_mu[0]),
            entropy_min=float(np.min(rep.entropy)),
            entropy_max=float(np.max(rep.entropy)),
            sup_bv_u=float(np.max(rep.bv_u)), int_diss=_int_diss(traj)))

    cauchy_rho, cauchy_mu = [], []
    for coarse, fine in zip(trajectories, trajectories[1:]):
        factor = fine.problem.grid.n_cells // coarse.problem.grid.n_cells
        diff = np.abs(fine.states - prolong(coarse.states, factor))
        dr, dm = np.max(integrate(diff, fine.problem.grid.dx), axis=0).tolist()
        cauchy_rho.append(dr)
        cauchy_mu.append(dm)

    scales = [1.0 / t.problem.grid.n_cells for t in trajectories]
    res_pairs = [(s, r.residual_max) for s, r in zip(scales, reports)
                 if np.isfinite(r.residual_max) and r.residual_max > 0.0]
    distinct = len({s for s, _ in res_pairs}) >= 2
    rate_res = fit_rate(res_pairs) if distinct else float("nan")

    rate_ref = float("nan")
    if reference is not None:
        errs = []
        for traj in trajectories:
            xc = traj.problem.grid.cell_centers()
            err = max(float(np.max(np.abs(rho - reference(t, xc))))
                      for t, rho in zip(traj.times, traj.states[:, 0]))
            errs.append(err)
        pairs = [(s, e) for s, e in zip(scales, errs) if e > 0.0]
        if len({s for s, _ in pairs}) >= 2:
            rate_ref = fit_rate(pairs)

    return StudyReport(plan=plan, summaries=tuple(summaries),
                       reports=tuple(reports), trajectories=tuple(trajectories),
                       cauchy_rho=tuple(cauchy_rho), cauchy_mu=tuple(cauchy_mu),
                       rate_weak_residual=rate_res, rate_reference_error=rate_ref)
