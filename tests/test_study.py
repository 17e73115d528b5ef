from dataclasses import replace

import numpy as np
import pytest

import crossdiff as cd
import crossdiff.study
from crossdiff.config import build_plan, parse_config
from crossdiff.study import check_levels, prolong

from scenarios import fast_problem, heat_problem, heat_reference, stationary_problem

# fast_problem's scenario as a config: alpha = 1/2, V = sin(2 pi x),
# W = cos(2 pi x), both species 0.5 + 0.2 cos(2 pi x)
FAST_STUDY = """
[grid]
n = {n}
[model]
alpha = 0.5
[potentials]
V = 1:0:1
W = 1:1:0
[initial]
rho_offset = 0.5
rho_modes = 1:0.2:0
mu_offset = 0.5
mu_modes = 1:0.2:0
[time]
t_final = 0.05
snapshots = {snaps}
eps = {eps}
[study]
{study}
"""


def _fast_plan(n, snaps, study, eps=0.0):
    return build_plan(parse_config(FAST_STUDY.format(n=n, snaps=snaps, eps=eps,
                                                     study=study)))


def test_fit_rate_examples():
    assert cd.fit_rate([(0.1, 0.1), (0.05, 0.05)]) == pytest.approx(1.0, abs=1e-12)
    assert cd.fit_rate([(0.1, 0.01), (0.05, 0.0025)]) == pytest.approx(2.0, abs=1e-12)
    # closed-form least squares on the logs, worked by hand
    got = cd.fit_rate([(0.1, 3e-2), (0.05, 1.6e-2), (0.025, 8.3e-3)])
    assert got == pytest.approx(0.926885, abs=1e-4)


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        cd.fit_rate([(0.1, 0.1)])
    with pytest.raises(ValueError):
        cd.fit_rate([(0.1, 0.0), (0.05, 0.1)])
    # one scale twice: no slope to fit (numpy's 0/0 used to give NaN)
    with pytest.raises(ValueError, match="at least 2 distinct scales"):
        cd.fit_rate([(0.1, 1.0), (0.1, 2.0)])


def test_prolongation_preserves_mass():
    rng = np.random.default_rng(4)
    g = cd.make_grid(32)
    g_fine = cd.make_grid(128)
    vals = rng.uniform(0.1, 2.0, 32)
    fine = prolong(vals, 4)
    assert abs(cd.integrate(fine, g_fine.dx) - cd.integrate(vals, g.dx)) <= 1e-14
    # rows of a (2, n) state prolong one by one
    pair = np.stack([vals, 2.0 * vals])
    assert np.array_equal(prolong(pair, 4), np.stack([fine, 2.0 * fine]))


def test_plan_validation():
    with pytest.raises(ValueError, match="at least 2 levels, got 1"):
        cd.StudyPlan((heat_problem(32, snaps=3),))
    with pytest.raises(ValueError, match="level 1 has n = 48, not a multiple of "
                                         "level 0's n = 32"):
        cd.StudyPlan((heat_problem(32, snaps=3), heat_problem(48, snaps=3)))
    with pytest.raises(ValueError, match="level 2's snapshot_times differ from level 1's"):
        cd.StudyPlan(tuple(heat_problem(n, snaps=s) for n, s in ((16, 3), (32, 3), (64, 5))))
    cd.StudyPlan((heat_problem(32, snaps=3), heat_problem(32, snaps=3)))  # fixed grid
    with pytest.raises(ValueError, match="levels must be at most 19, got 20"):
        cd.StudyPlan((heat_problem(4, snaps=3),) * 20)
    # the schedule rules that parse_config applies to [study] viscosity
    with pytest.raises(ValueError, match="viscosity_schedule length"):
        check_levels(3, (1e-2, 5e-3))
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_levels(2, (1e-3, bad))


def test_stationary_study_is_flat():
    # the fine level starts from the coarse state repeated onto its cells
    coarse = stationary_problem(32, snaps=3)
    fine = stationary_problem(64, snaps=3)
    plan = cd.StudyPlan((coarse, replace(fine, u0=prolong(coarse.u0, 2))))
    rep = cd.run_study(plan)
    assert rep.cauchy_rho[0] <= 1e-12
    assert rep.cauchy_mu[0] <= 1e-12
    masses = [s.mass_rho for s in rep.summaries]
    assert max(masses) - min(masses) <= 1e-13


def test_equality_of_array_holders_is_identity():
    # dataclasses that hold arrays compare by identity, so == gives a bool
    # (a field-wise == would ask an array for its truth value and raise)
    problem = heat_problem(16, snaps=3)
    traj = cd.run(problem)
    assert (problem == heat_problem(16, snaps=3)) is False
    assert (traj == cd.run(problem)) is False and (traj == traj) is True
    assert (problem.potentials == replace(problem.potentials)) is False
    assert (cd.Field.constant(problem.grid, 1.0) == cd.Field.constant(problem.grid, 1.0)) is False
    phis = cd.make_test_bank(problem.grid, problem.t_final, 1).phis
    assert (phis[0] == replace(phis[0])) is False
    assert (cd.build_report(traj) == cd.build_report(traj)) is False
    plan = cd.StudyPlan((problem, heat_problem(32, snaps=3)))
    assert plan == replace(plan) and plan != cd.StudyPlan((problem, heat_problem(32, snaps=3)))
    report = cd.run_study(plan)
    assert report == replace(report) and report != cd.run_study(plan)


def test_heat_study_cauchy_and_rates():
    plan = cd.StudyPlan(tuple(heat_problem(32 * 2**level, snaps=65) for level in range(4)))
    rep = cd.run_study(plan, reference=lambda t, x: 0.5 * heat_reference(t, x))
    assert all(c > 0 for c in rep.cauchy_rho)
    ratios = [a / b for a, b in zip(rep.cauchy_rho, rep.cauchy_rho[1:])]
    assert all(1.5 <= r <= 4.0 for r in ratios)
    # first-order scheme: both fitted rates come out near one
    assert rep.rate_weak_residual >= 0.8
    assert rep.rate_reference_error >= 0.8
    res = [r.residual_max for r in rep.reports]
    assert all(b <= a * 1.0000001 for a, b in zip(res, res[1:]))


def test_uniformity_across_levels():
    plan = cd.StudyPlan(tuple(fast_problem(64 * 2**level, snaps=9) for level in range(3)))
    rep = cd.run_study(plan)
    for getter in (lambda s: s.sup_bv_u, lambda s: s.int_diss,
                   lambda s: s.entropy_max - s.entropy_min):
        vals = [getter(s) for s in rep.summaries]
        spread = (max(vals) - min(vals)) / max(abs(v) for v in vals)
        assert spread <= 0.2


def test_viscosity_schedule_at_fixed_grid():
    plan = _fast_plan(64, 9, "levels = 3\nrefine_space = false\n"
                             "viscosity = 1e-2, 5e-3, 2.5e-3")
    rep = cd.run_study(plan)
    assert [s.eps for s in rep.summaries] == [1e-2, 5e-3, 2.5e-3]
    assert all(s.n_cells == 64 for s in rep.summaries)
    bvs = [s.sup_bv_u for s in rep.summaries]
    assert (max(bvs) - min(bvs)) / min(bvs) <= 0.2


def test_default_viscosity_halves_per_level():
    rep = cd.run_study(_fast_plan(32, 3, "levels = 3", eps=4e-3))
    assert [s.eps for s in rep.summaries] == [4e-3, 2e-3, 1e-3]
    assert [s.n_cells for s in rep.summaries] == [32, 64, 128]


def test_study_reports_level_failure(monkeypatch):
    solver_run = crossdiff.study.run

    def run(problem):  # a solver that breaks on refined grids
        if problem.grid.n_cells > 32:
            raise cd.SolverError("positivity violated")
        return solver_run(problem)
    monkeypatch.setattr(crossdiff.study, "run", run)
    plan = cd.StudyPlan(tuple(stationary_problem(32 * 2**level, snaps=3)
                              for level in range(2)))
    with pytest.raises(RuntimeError, match="study level 1 failed: positivity violated"):
        cd.run_study(plan)
