import numpy as np
import pytest

import crossdiff as cd
from crossdiff.study import prolong

from scenarios import (fast_problem, heat_problem, heat_reference,
                       heat_sampler, stationary_problem)


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
    base = stationary_problem(64, snaps=3)
    with pytest.raises(ValueError, match="at least 2 levels"):
        cd.StudyPlan(base=base, levels=1)
    with pytest.raises(ValueError, match="viscosity_schedule length"):
        cd.StudyPlan(base=base, levels=3, viscosity_schedule=(1e-2, 5e-3))
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cd.StudyPlan(base=base, levels=2, viscosity_schedule=(1e-3, bad))


def test_stationary_study_is_flat():
    plan = cd.StudyPlan(base=stationary_problem(32, snaps=3), levels=2)
    rep = cd.run_study(plan)
    assert rep.cauchy_rho[0] <= 1e-12
    assert rep.cauchy_mu[0] <= 1e-12
    masses = [s.mass_rho for s in rep.summaries]
    assert max(masses) - min(masses) <= 1e-13


def test_heat_study_cauchy_and_rates():
    plan = cd.StudyPlan(base=heat_problem(32, snaps=65), levels=4,
                        initial_sampler=heat_sampler)
    rep = cd.run_study(plan, reference=lambda t, x: 0.5 * heat_reference(t, x))
    assert all(c > 0 for c in rep.cauchy_rho)
    ratios = [a / b for a, b in zip(rep.cauchy_rho, rep.cauchy_rho[1:])]
    assert all(1.5 <= r <= 4.0 for r in ratios)
    # first-order scheme: both fitted rates come out near one
    assert rep.rate_weak_residual >= 0.8
    assert rep.rate_reference_error >= 0.8
    res = [r.residual_max for r in rep.reports]
    assert all(b <= a * 1.0000001 for a, b in zip(res, res[1:]))


def _fast_sampler(grid):
    f0 = 0.5 + 0.2 * np.cos(2 * np.pi * grid.cell_centers())
    return np.stack((f0, f0))


def test_uniformity_across_levels():
    plan = cd.StudyPlan(base=fast_problem(64, snaps=9), levels=3,
                        initial_sampler=_fast_sampler)
    rep = cd.run_study(plan)
    for getter in (lambda s: s.sup_bv_u, lambda s: s.int_diss,
                   lambda s: s.entropy_max - s.entropy_min):
        vals = [getter(s) for s in rep.summaries]
        spread = (max(vals) - min(vals)) / max(abs(v) for v in vals)
        assert spread <= 0.2


def test_viscosity_schedule_at_fixed_grid():
    plan = cd.StudyPlan(base=fast_problem(64, snaps=9), levels=3,
                        refine_space=False,
                        viscosity_schedule=(1e-2, 5e-3, 2.5e-3))
    rep = cd.run_study(plan)
    assert [s.eps for s in rep.summaries] == [1e-2, 5e-3, 2.5e-3]
    assert all(s.n_cells == 64 for s in rep.summaries)
    bvs = [s.sup_bv_u for s in rep.summaries]
    assert (max(bvs) - min(bvs)) / min(bvs) <= 0.2
    assert "eps0 * 2^-level" in rep.convention


def test_default_viscosity_halves_per_level():
    plan = cd.StudyPlan(base=fast_problem(32, snaps=3, eps=4e-3), levels=3,
                        initial_sampler=_fast_sampler)
    rep = cd.run_study(plan)
    assert [s.eps for s in rep.summaries] == [4e-3, 2e-3, 1e-3]


def test_study_reports_level_failure():
    # initial sampler that breaks on refined grids
    def bad_sampler(grid):
        u0 = np.full((2, grid.n_cells), 0.5)
        if grid.n_cells > 32:
            u0[:, 0] = -1.0
        return u0

    plan = cd.StudyPlan(base=stationary_problem(32, snaps=3), levels=2,
                        initial_sampler=bad_sampler)
    with pytest.raises(RuntimeError, match="study level 1 failed"):
        cd.run_study(plan)
