"""Refinement and vanishing-viscosity campaigns: run the same physical
problem across dyadically nested grids and/or a viscosity schedule, then
tabulate uniformity of the bounded functionals, L1-Cauchy differences
between consecutive levels, and convergence-rate fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Field, GridSpec, grad, integrate, make_grid
from .model import ProblemSpec, build_potentials, validate_initial
from .diagnostics import (DiagnosticsReport, build_report, default_bank_k,
                          make_test_bank)
from .solver import Trajectory, run

InitialSampler = Callable[[GridSpec], tuple[Field, Field]]


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
    """Campaign description.  Grids refine dyadically from the base when
    refine_space is set; viscosity_schedule (when given) supplies one eps
    per level, defaulting to eps0 * 2^-level otherwise.  initial_sampler
    re-samples the initial data on each level's grid; without it the base
    initial data is prolonged by piecewise-constant injection."""

    base: ProblemSpec
    levels: int
    refine_space: bool = True
    viscosity_schedule: tuple[float, ...] = ()
    comparison_times: tuple[float, ...] = ()
    initial_sampler: Optional[InitialSampler] = None

    def __post_init__(self):
        object.__setattr__(self, "viscosity_schedule",
                           check_levels(self.levels, self.viscosity_schedule))
        times = self.comparison_times or self.base.snapshot_times
        bad = [t for t in times if t not in self.base.snapshot_times]
        if bad:
            raise ValueError(f"comparison time {bad[0]} is not a snapshot time")
        object.__setattr__(self, "comparison_times", tuple(times))


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
    convention: str = ("levels refine dx dyadically; default viscosity "
                       "schedule eps0 * 2^-level")


def prolong(values: np.ndarray, factor: int) -> np.ndarray:
    """Piecewise-constant injection of each row onto a grid refined by `factor`."""
    return np.repeat(values, factor, axis=-1)


def fit_rate(pairs) -> float:
    """Least-squares slope of log(error) against log(scale)."""
    pairs = [(float(s), float(e)) for s, e in pairs]
    if len(pairs) < 2:
        raise ValueError("fit_rate needs at least 2 pairs")
    if any(s <= 0.0 or e <= 0.0 for s, e in pairs):
        raise ValueError("fit_rate needs positive scales and errors")
    x = np.log([s for s, _ in pairs])
    y = np.log([e for _, e in pairs])
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def _level_problem(plan: StudyPlan, level: int) -> ProblemSpec:
    base = plan.base
    grid = make_grid(base.grid.n_cells * 2**level) if plan.refine_space else base.grid
    pot = build_potentials(base.potentials.modes_V, base.potentials.modes_W, grid)
    if plan.initial_sampler is not None:
        rho0, mu0 = plan.initial_sampler(grid)
        if rho0.grid != grid:
            raise ValueError("initial_sampler returned fields on the wrong grid")
    elif grid is base.grid or grid == base.grid:
        rho0, mu0 = base.initial.rho0, base.initial.mu0
    else:
        factor = grid.n_cells // base.grid.n_cells
        rho0 = Field(grid, prolong(base.initial.rho0.values, factor))
        mu0 = Field(grid, prolong(base.initial.mu0.values, factor))
    eps = (plan.viscosity_schedule[level] if plan.viscosity_schedule
           else base.eps_viscosity * 0.5**level)
    return ProblemSpec(
        grid=grid, nonlinearity=base.nonlinearity, potentials=pot,
        initial=validate_initial(rho0, mu0), t_final=base.t_final,
        snapshot_times=base.snapshot_times, eps_viscosity=eps,
        stepper=base.stepper, cfl_safety=base.cfl_safety)


def _int_diss(traj: Trajectory) -> float:
    """Trapezoid-in-time of int |grad S^(alpha/2)|^2 over the snapshots."""
    alpha = traj.problem.nonlinearity.alpha
    dx = traj.problem.grid.dx
    g = grad((traj.states[:, 0] + traj.states[:, 1]) ** (alpha / 2.0), dx)
    return float(np.trapezoid(integrate(g * g, dx), traj.times))


def diagnose(traj: Trajectory, bank_k: int, residuals: bool = True,
             moduli: bool = True) -> DiagnosticsReport:
    """Report of a run or a study level: weak residuals against the bank of bank_k
    modes unless residuals is off or t_final is 0, moduli unless moduli is off."""
    problem = traj.problem
    bank = (make_test_bank(problem.grid, problem.t_final, bank_k)
            if residuals and problem.t_final > 0.0 else None)
    return build_report(traj, bank, with_residuals=bank is not None, with_moduli=moduli)


def run_study(plan: StudyPlan,
              reference: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
              bank_k: Optional[int] = None, residuals: bool = True,
              moduli: bool = True) -> StudyReport:
    """Run every level, diagnose it, and assemble the campaign tables.

    `reference`, when given, maps (t, x) to the exact species-rho profile
    and feeds the reference-error rate fit.  Each level's report is
    diagnose(traj, bank_k, residuals, moduli), bank_k defaulting to the
    base grid's.
    """
    bank_k = default_bank_k(plan.base.grid.n_cells) if bank_k is None else bank_k
    trajectories = []
    reports = []
    summaries = []
    for level in range(plan.levels):
        try:
            problem = _level_problem(plan, level)
            traj = run(problem)
            rep = diagnose(traj, bank_k, residuals, moduli)
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

    idx = {t: i for i, t in enumerate(plan.base.snapshot_times)}
    compare = [idx[t] for t in plan.comparison_times]
    cauchy_rho, cauchy_mu = [], []
    for coarse, fine in zip(trajectories, trajectories[1:]):
        factor = fine.problem.grid.n_cells // coarse.problem.grid.n_cells
        diff = np.abs(fine.states[compare] - prolong(coarse.states[compare], factor))
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
            err = max(float(np.max(np.abs(traj.states[j, 0]
                                          - reference(traj.times[j], xc))))
                      for j in compare)
            errs.append(err)
        pairs = [(s, e) for s, e in zip(scales, errs) if e > 0.0]
        if len({s for s, _ in pairs}) >= 2:
            rate_ref = fit_rate(pairs)

    return StudyReport(plan=plan, summaries=tuple(summaries),
                       reports=tuple(reports), trajectories=tuple(trajectories),
                       cauchy_rho=tuple(cauchy_rho), cauchy_mu=tuple(cauchy_mu),
                       rate_weak_residual=rate_res, rate_reference_error=rate_ref)
