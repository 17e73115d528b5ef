import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hypothesis import given, settings
from hypothesis import strategies as st

import crossdiff as cd
from crossdiff import _chunks, diagnostics
from crossdiff.diagnostics import SCALAR_COLUMNS, diss_entropy_rate, make_test_bank
from crossdiff.grid import cell_mean, grad
from crossdiff.solver import Trajectory

from conftest import assert_no_child_left, use_cpus
from scenarios import fast_problem, heat_problem, stationary_problem


def _standing_problem(n=256, t_final=1.0):
    """A valid problem shell for hand-built trajectories."""
    g = cd.make_grid(n)
    return cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(0.5),
        potentials=cd.build_potentials([], [], g),
        u0=np.ones((2, n)),
        t_final=t_final, snapshot_times=(0.0, t_final))


def _frozen(problem, times, rho_vals, mu_vals):
    """Trajectory holding the same (rho, mu) at every time."""
    times = np.array(times, dtype=float)
    states = np.empty((times.size, 2, problem.grid.n_cells))
    states[:] = rho_vals, mu_vals
    return Trajectory(problem, times, states, ())


def _cos_S(x):
    return 1.0 + 0.5 * np.cos(2 * np.pi * x)


# --------------------------------------------------------------------------
# pointwise functionals


def test_entropy_examples():
    prob = _standing_problem(64)
    assert cd.entropy(np.ones(64), np.ones(64), prob) == pytest.approx(
        0.0, abs=1e-15)
    assert cd.entropy(3 * np.ones(64), np.ones(64), prob) == pytest.approx(
        3 * np.log(3.0), abs=1e-13)


def test_entropy_quadrature_oracle():
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    got = cd.entropy(half, half, prob)
    oracle, err = quad(lambda z: _cos_S(z) * np.log(0.5 * _cos_S(z)), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-10
    assert got == pytest.approx(oracle, abs=1e-10)


def test_energy_closed_forms():
    prob = _standing_problem(64)
    st = np.ones(64), np.ones(64)
    prob1 = dataclasses.replace(_standing_problem(64),
                                nonlinearity=cd.Nonlinearity(1.0))
    assert cd.energy(*st, prob1) == pytest.approx(2 * np.log(2) - 2, abs=1e-13)
    assert cd.energy(*st, prob) == pytest.approx(-2 * np.sqrt(2), abs=1e-13)


def test_energy_descends_without_potentials():
    traj = cd.run(heat_problem(128, snaps=9))
    e = cd.energy(traj.states[:, 0], traj.states[:, 1], traj.problem)
    assert np.all(np.diff(e) <= 1e-12)


def test_dissipation_beta_degenerate_endpoints():
    prob = _standing_problem(64)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    for beta in (0.0, 1.0):
        out = cd.dissipation_beta(half, half, prob, beta)
        assert out.dissipation == 0.0
        assert out.rhs_bound == 0.0
    with pytest.raises(ValueError, match="beta out of range"):
        cd.dissipation_beta(half, half, prob, 1.5)


def _two_point_quad(fn, dx):
    """Adaptive quadrature of a periodic two-point-difference integrand."""
    val, err = quad(fn, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert err < 1e-9
    return val


def test_dissipation_beta_log_branch_oracle():
    # alpha = beta = 1/2 hits the logarithmic branch
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    got = cd.dissipation_beta(half, half, prob, 0.5).dissipation
    dx = prob.grid.dx
    coeff = 0.5 * 0.5 * 0.5 / 2.0
    oracle = coeff * _two_point_quad(
        lambda z: ((np.log(_cos_S(z + dx)) - np.log(_cos_S(z))) / dx) ** 2, dx)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_dissipation_beta_power_branch_oracle():
    # alpha = 1, beta = 1/2: exponent (alpha+beta-1)/2 = 1/4
    prob = dataclasses.replace(_standing_problem(256),
                                nonlinearity=cd.Nonlinearity(1.0))
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    got = cd.dissipation_beta(half, half, prob, 0.5).dissipation
    dx = prob.grid.dx
    coeff = 2.0 * 1.0 * 0.5 * 0.5 / 0.5**2
    oracle = coeff * _two_point_quad(
        lambda z: ((_cos_S(z + dx) ** 0.25 - _cos_S(z) ** 0.25) / dx) ** 2, dx)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_dissipation_beta_branches_agree_near_log_case():
    # the power branch tends continuously to the logarithmic branch
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    log_val = cd.dissipation_beta(half, half, prob, 0.5).dissipation
    near_val = cd.dissipation_beta(half, half, prob, 0.5 + 1e-6).dissipation
    assert near_val == pytest.approx(log_val, rel=1e-4)


def test_dissipation_beta_rhs_bound():
    prob = fast_problem(128, snaps=3)
    beta = 0.25
    out = cd.dissipation_beta(*prob.u0, prob, beta)
    sup = prob.potentials.sup_drift
    c = beta * (1 - beta) * sup**2 / (2 * 0.5)
    oracle, err = quad(lambda z: (1.0 + 0.4 * np.cos(2 * np.pi * z)) ** (beta + 0.5),
                       0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert out.rhs_bound == pytest.approx(c * oracle, rel=1e-6)
    assert out.beta_entropy < 0.0


def test_bv_norms_constant():
    prob = _standing_problem(64)
    bv_r, bv_u = cd.bv_norms(np.full(64, 2.0), np.full(64, 0.5), prob)
    assert bv_r == 0.0
    assert bv_u == 0.0  # no potentials, constant log-ratio


def test_bv_r_sine_total_variation():
    # log-ratio r = sin(2 pi x): total variation over the torus is 4
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    mu = np.ones(256)
    rho = np.exp(np.sin(2 * np.pi * x))
    bv_r, _ = cd.bv_norms(rho, mu, prob)
    assert bv_r == pytest.approx(4.0, abs=1e-3)
    # brute-force oracle over the same samples
    r = np.sin(2 * np.pi * x)
    oracle = sum(abs(r[(i + 1) % 256] - r[i]) for i in range(256))
    assert bv_r == pytest.approx(oracle, abs=1e-12)


def test_bv_u_drift_l1_oracle():
    # alpha = 1, r = 0, V = sin(2 pi x), W = 0: the L1 norm of the shift
    # equals int |V'| = 4
    g = cd.make_grid(256)
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(1.0),
        potentials=cd.build_potentials([(1, 0.0, 1.0)], [], g),
        u0=np.ones((2, 256)), t_final=1.0, snapshot_times=(0.0, 1.0))
    _, bv_u = cd.bv_norms(*prob.u0, prob)
    oracle, err = quad(lambda z: np.abs(2 * np.pi * np.cos(2 * np.pi * z)),
                       0.0, 1.0, points=[0.25, 0.75], limit=200)
    assert oracle == pytest.approx(4.0, abs=1e-10)
    assert bv_u == pytest.approx(4.0, abs=1e-3)


def test_lebesgue_norms_constant():
    prob = _standing_problem(64)
    out = cd.lebesgue_norms(0.5 * np.ones(64), 0.5 * np.ones(64), prob)
    assert out.norm_S_2ma == pytest.approx(1.0, abs=1e-14)
    assert out.sup_S_pow == pytest.approx(1.0, abs=1e-14)
    assert out.fisher_log == 0.0
    assert out.h_minus_one == pytest.approx(0.0, abs=1e-13)


def test_h_minus_one_single_mode():
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    out = cd.lebesgue_norms(half, half, prob)
    closed_form = 0.5 / (2 * np.pi * np.sqrt(2.0))  # mode c1 = 1/2
    assert closed_form == pytest.approx(0.05627, abs=5e-6)
    assert out.h_minus_one == pytest.approx(closed_form, rel=1e-12)


def test_h_minus_one_zero_iff_constant():
    prob = _standing_problem(64)
    x = prob.grid.cell_centers()
    rng = np.random.default_rng(3)
    for vals in (1.0 + 0.3 * np.sin(2 * np.pi * 5 * x),
                 1.0 + 0.1 * (-1.0) ** np.arange(64),  # pure Nyquist mode
                 rng.uniform(0.5, 2.0, 64)):
        out = cd.lebesgue_norms(vals / 2, vals / 2, prob)
        assert out.h_minus_one > 1e-8


def test_h_minus_one_nyquist_mode_closed_form():
    # a mode a sin(2 pi k x) has H^-1 norm a / (sqrt(2) 2 pi k); at even n
    # the Nyquist mode k = n/2 is one real mode, not a conjugate pair
    def closed_form(a, k):
        return a / (np.sqrt(2.0) * 2 * np.pi * k)

    for n in (16, 64):
        prob = _standing_problem(n)
        x = prob.grid.cell_centers()
        k = n // 2
        S = 1.0 + 0.5 * np.sin(2 * np.pi * k * x)
        out = cd.lebesgue_norms(S / 2, S / 2, prob)
        assert out.h_minus_one == pytest.approx(closed_form(0.5, k), rel=1e-12)
        S = 1.0 + 0.3 * np.sin(2 * np.pi * 3 * x) + 0.5 * np.sin(2 * np.pi * k * x)
        out = cd.lebesgue_norms(S / 2, S / 2, prob)
        assert out.h_minus_one == pytest.approx(
            np.hypot(closed_form(0.3, 3), closed_form(0.5, k)), rel=1e-12)
    # odd n has no Nyquist bin: its top mode is a conjugate pair
    prob = _standing_problem(15)
    x = prob.grid.cell_centers()
    S = 1.0 + 0.5 * np.sin(2 * np.pi * 7 * x)
    out = cd.lebesgue_norms(S / 2, S / 2, prob)
    assert out.h_minus_one == pytest.approx(closed_form(0.5, 7), rel=1e-12)


def test_lebesgue_power_integral_oracle():
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    out = cd.lebesgue_norms(half, half, prob)
    oracle, _ = quad(lambda z: _cos_S(z) ** 1.5, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-12)
    assert out.norm_S_2ma == pytest.approx(oracle, abs=1e-8)
    assert out.sup_S_pow == pytest.approx(np.sqrt(np.max(half * 2)), rel=1e-12)


def test_diss_entropy_rate_oracle():
    prob = _standing_problem(256)
    x = prob.grid.cell_centers()
    half = 0.5 * _cos_S(x)
    got = diss_entropy_rate(half, half, prob)
    dx = prob.grid.dx
    alpha = 0.5

    def integrand(z):
        s_mean = 0.5 * (_cos_S(z) + _cos_S(z + dx))
        slope = (_cos_S(z + dx) - _cos_S(z)) / dx
        return alpha * s_mean ** (alpha - 2.0) * slope**2

    oracle = _two_point_quad(integrand, dx)
    assert got == pytest.approx(oracle, abs=1e-8)


# --------------------------------------------------------------------------
# weak residual


def test_weak_residual_stationary_constant():
    prob = _standing_problem(128, t_final=0.5)
    g = prob.grid
    traj = _frozen(prob, np.linspace(0, 0.5, 6), np.full(128, 0.7), np.full(128, 0.7))
    bank = make_test_bank(g, 0.5, k_max=6)
    rows, res_max = cd.weak_residual(traj, bank)
    assert res_max <= 1e-12
    assert len(rows) == 2 * len(bank.phis)


def test_weak_residual_mass_identity():
    # the spatially constant test function reduces to mass conservation
    traj = cd.run(fast_problem(64, snaps=9))
    bank = make_test_bank(traj.problem.grid, traj.problem.t_final, k_max=2)
    rows, _ = cd.weak_residual(traj, bank)
    for row in rows:
        if row.phi_id.startswith("cos0"):
            assert abs(row.residual) <= 1e-10


def test_weak_residual_requires_two_snapshots():
    prob = _standing_problem(64)
    traj = _frozen(prob, [0.0], *prob.u0)
    bank = make_test_bank(prob.grid, 1.0, k_max=2)
    with pytest.raises(ValueError, match="at least 2 snapshots"):
        cd.weak_residual(traj, bank)


def test_weak_residual_refinement():
    res = {}
    for n in (64, 128):
        traj = cd.run(heat_problem(n, snaps=65))
        bank = make_test_bank(traj.problem.grid, traj.problem.t_final, k_max=8)
        _, res[n] = cd.weak_residual(traj, bank)
    assert res[64] <= 2e-3
    assert 1.5 <= res[64] / res[128] <= 4.0


def _two_array_weak_residual(traj, bank):
    """weak_residual as it was with the whole (T, n) cell pressure gradient
    beside the flux; kept as the oracle for bitwise equality."""
    times = traj.times
    problem = traj.problem
    nl, pot = problem.nonlinearity, problem.potentials
    dx = problem.grid.dx
    w_trap = diagnostics._trapezoid_weights(times)
    rho, mu = traj.states[:, 0], traj.states[:, 1]
    dp_cells = np.empty_like(rho)
    for lo, hi in diagnostics._blocks(rho):
        dp_cells[lo:hi] = cell_mean(grad(nl.pressure(rho[lo:hi] + mu[lo:hi]), dx))
    chis = [np.array([phi.chi(t) for t in times]) for phi in bank.phis]
    flux = np.empty_like(dp_cells)
    rows = [None] * (2 * len(chis))
    for k, (species, dens) in enumerate((("rho", rho), ("mu", mu))):
        np.multiply(dens, np.add(dp_cells, pot.d_cells[k], out=flux), out=flux)
        for j, (phi, chi_t) in enumerate(zip(bank.phis, chis)):
            space_mass = dens @ phi.x_vals * dx
            space_flux = flux @ phi.dx_vals * dx
            dchi = np.diff(chi_t)
            dt_term = -float(np.sum(0.5 * (space_mass[:-1] + space_mass[1:]) * dchi))
            flux_term = float(np.sum(w_trap * chi_t * space_flux))
            init_term = float(space_mass[0] * chi_t[0])
            rows[2 * j + k] = (phi.phi_id, species, dt_term + flux_term - init_term)
    return rows, max(abs(r[2]) for r in rows)


@st.composite
def _residual_cases(draw):
    n_times, n = draw(st.integers(2, 40)), draw(st.integers(4, 96))
    alpha = draw(st.sampled_from((1.0, 0.5)) | st.floats(0.01, 1.0))
    coef = st.floats(-3.0, 3.0, allow_subnormal=False)
    modes = st.lists(st.tuples(st.integers(0, n // 4), coef, coef), max_size=3)
    times = np.cumsum(np.concatenate(([0.0], draw(st.lists(
        st.floats(1e-3, 1.0), min_size=n_times - 1, max_size=n_times - 1)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dict(alpha=alpha, modes_V=draw(modes), modes_W=draw(modes), times=times,
                states=10.0 ** rng.uniform(-2.0, 1.0, (n_times, 2, n)),
                k_max=draw(st.integers(0, n // 4)),
                block_rows=draw(st.integers(1, n_times + 1)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_residual_cases())
def test_weak_residual_bitwise_equals_two_array_reference(case):
    times, states = case["times"], case["states"]
    n = states.shape[-1]
    g = cd.make_grid(n)
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(case["alpha"]),
        potentials=cd.build_potentials(case["modes_V"], case["modes_W"], g),
        u0=states[0], t_final=float(times[-1]), snapshot_times=tuple(times.tolist()))
    traj = Trajectory(prob, times, states, ())
    bank = make_test_bank(g, prob.t_final, case["k_max"])
    with pytest.MonkeyPatch.context() as mp:  # blocks that need not divide T
        mp.setattr(diagnostics, "_BLOCK_VALUES", case["block_rows"] * n)
        rows, res_max = cd.weak_residual(traj, bank)
        want_rows, want_max = _two_array_weak_residual(traj, bank)
    assert [(*r[:2], _bits(r.residual)) for r in rows] == [
        (*r[:2], _bits(r[2])) for r in want_rows]
    assert _bits(res_max) == _bits(want_max)


def test_weak_residual_peak_memory_is_one_flux_array():
    # the flux, filled block by block, is the one (T, n) array it holds; a
    # whole cell pressure gradient beside it held 2 T n values
    n, snaps = 2048, 512  # T n = 2^20 values, blocks of 32 rows
    prob = _standing_problem(n)
    states = 1.0 + 0.5 * np.random.default_rng(1).random((snaps, 2, n))
    traj = Trajectory(prob, np.linspace(0.0, 1.0, snaps), states, ())
    bank = make_test_bank(prob.grid, 1.0, k_max=8)
    assert len(diagnostics._blocks(states[:, 0])) > 1
    tracemalloc.start()
    try:
        rows, _ = cd.weak_residual(traj, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2 * len(bank.phis)
    assert peak < 1.6 * snaps * n * 8, peak / (snaps * n * 8)


def test_bank_validation():
    g = cd.make_grid(16)
    with pytest.raises(ValueError, match="n/4"):
        make_test_bank(g, 1.0, k_max=8)
    bank = make_test_bank(g, 1.0, k_max=2)
    # every test function vanishes at the final time
    for phi in bank.phis:
        assert phi.chi(1.0) == 0.0
        assert phi.chi(0.0) == 1.0


# --------------------------------------------------------------------------
# equicontinuity moduli


def test_moduli_constant_trajectory():
    prob = _standing_problem(64)
    (h, osr, osm), (k, otr, otm) = cd.equicontinuity_moduli(
        _frozen(prob, (0.0, 0.5, 1.0), np.ones(64), np.ones(64)))
    assert np.all(osr == 0.0) and np.all(osm == 0.0)
    assert np.all(otr == 0.0) and np.all(otm == 0.0)


def test_moduli_frozen_cosine_closed_form():
    # rho(x) = cos(2 pi x) frozen over [0, 1]: omega_space(h) = (4/pi) sin(pi h)
    prob = _standing_problem(256)
    g = prob.grid
    x = g.cell_centers()
    vals = np.cos(2 * np.pi * x)
    traj = _frozen(prob, (0.0, 0.5, 1.0), vals, vals)
    (h, osr, _), _ = cd.equicontinuity_moduli(traj)
    idx = int(np.argmin(np.abs(h - 0.25)))
    assert h[idx] == pytest.approx(0.25, abs=1e-14)
    assert osr[idx] == pytest.approx((4 / np.pi) * np.sin(np.pi / 4), abs=1e-4)
    assert osr[idx] == pytest.approx(0.90032, abs=1e-4)
    # brute-force double-sum oracle with trapezoid time weights
    times = np.array([0.0, 0.5, 1.0])
    w = np.array([0.25, 0.5, 0.25])
    m = int(round(0.25 * g.n_cells))
    oracle = 0.0
    for j, t in enumerate(times):
        total = sum(abs(vals[(i + m) % g.n_cells] - vals[i])
                    for i in range(g.n_cells)) * g.dx
        oracle += w[j] * total
    assert osr[idx] == pytest.approx(oracle, abs=1e-12)


def test_moduli_bounds_and_time_curve():
    traj = cd.run(fast_problem(64, snaps=9))
    (h, osr, osm), (k, otr, otm) = cd.equicontinuity_moduli(traj)
    assert np.all(osr >= 0.0) and np.all(otr >= 0.0)
    sup_mass = np.max(cd.integrate(traj.states[:, 0], traj.problem.grid.dx))
    t_span = traj.times[-1] - traj.times[0]
    assert np.all(osr <= 2.0 * sup_mass * t_span + 1e-12)
    assert len(k) > 0 and k[0] == pytest.approx(traj.times[1] - traj.times[0])


# --------------------------------------------------------------------------
# report aggregation


def test_report_single_snapshot():
    prob = _standing_problem(64)
    traj = _frozen(prob, [0.0], *prob.u0)
    rep = cd.build_report(traj)
    assert len(rep.times) == 1
    assert rep.omega_time_k.size == 0
    assert rep.residuals == ()
    assert np.isnan(rep.residual_max)


def test_report_stationary_rows_identical():
    traj = cd.run(stationary_problem(64, snaps=5))
    rep = cd.build_report(traj, residuals=False)
    from crossdiff.csvio import SCALAR_COLUMNS
    for col in SCALAR_COLUMNS:
        vals = getattr(rep, col)
        assert np.max(np.abs(vals - vals[0])) <= 1e-12 * max(1.0, abs(vals[0]))


def test_report_heat_entropy_decreases():
    traj = cd.run(heat_problem(128, snaps=9))
    rep = cd.build_report(traj, residuals=False)
    assert np.all(np.diff(rep.entropy) < 0.0)
    assert sum(rec.clamps for rec in traj.step_log) == 0


def test_report_resolves_its_bank():
    traj = cd.run(stationary_problem(16, snaps=3))  # default bank_k = n/4 = 4
    for bank_k, k_max in ((None, 4), (2, 2), (0, 0)):
        rep = cd.build_report(traj, bank_k)
        assert len(rep.residuals) == 2 * 2 * (1 + 2 * k_max)  # 2 profiles, 2 species
    rep = cd.build_report(traj, residuals=False, moduli=False)
    assert rep.residuals == () and np.isnan(rep.residual_max)
    assert rep.omega_space_h.size == rep.omega_time_k.size == 0


def test_report_without_horizon_has_no_residuals():
    # check_time accepts t_final = 0 with a second snapshot inside its 1e-12
    # end tolerance; the test bank needs t_final > 0, so no residuals
    prob = dataclasses.replace(_standing_problem(16), t_final=0.0,
                               snapshot_times=(0.0, 5e-13))
    rep = cd.build_report(_frozen(prob, [0.0, 5e-13], *prob.u0))
    assert rep.residuals == () and np.isnan(rep.residual_max)
    assert len(rep.times) == 2


def _bits(value):
    """Every bit of a report field: arrays and floats as raw bytes, NaN included."""
    if isinstance(value, tuple):  # the residual rows
        return [(*row[:2], _bits(row.residual)) for row in value]
    return np.asarray(value).dtype.str, np.shape(value), np.asarray(value).tobytes()


def test_report_is_bitwise_the_same_on_any_number_of_cpus(monkeypatch):
    monkeypatch.setattr(diagnostics, "_FORK_MIN_VALUES", 0)  # small reports fork too
    traj = cd.run(fast_problem(64, snaps=9, t_final=0.01, stepper="semi-implicit"))
    prob = _standing_problem(64)
    cases = [(traj, residuals, moduli) for residuals in (True, False)
             for moduli in (True, False)] + [(_frozen(prob, [0.0], *prob.u0), True, True)]
    for case, residuals, moduli in cases:
        reports = {}
        for cpus in (1, 2, 3, 5):
            use_cpus(monkeypatch, cpus)
            reports[cpus] = cd.build_report(case, None, residuals, moduli)
        for field in dataclasses.fields(cd.DiagnosticsReport):
            want = _bits(getattr(reports[1], field.name))
            for cpus in (2, 3, 5):
                assert _bits(getattr(reports[cpus], field.name)) == want, (
                    field.name, cpus, residuals, moduli)
        assert (len(reports[1].residuals) > 0) == (residuals and len(case.times) > 1)
        assert (reports[1].omega_space_h.size > 0) == moduli


def test_report_is_bitwise_the_same_for_any_block_size():
    traj = cd.run(fast_problem(64, snaps=9, t_final=0.01, stepper="semi-implicit"))
    for residuals in (True, False):
        for moduli in (True, False):
            want = cd.build_report(traj, None, residuals, moduli)
            for rows in (1, 2, 9):  # one row, a count that does not divide T = 9, all
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(diagnostics, "_BLOCK_VALUES", rows * 64)
                    assert len(diagnostics._blocks(traj.states[:, 0])) == -(-9 // rows)
                    got = cd.build_report(traj, None, residuals, moduli)
                for field in dataclasses.fields(cd.DiagnosticsReport):
                    assert (_bits(getattr(got, field.name))
                            == _bits(getattr(want, field.name))), (field.name, rows)
            assert (len(want.residuals) > 0) == residuals
            assert (want.omega_space_h.size > 0) == moduli


def test_report_peak_memory_stays_near_the_states_size(monkeypatch):
    # every part but the weak residual works on blocks of rows; the residual
    # holds one whole (T, n) flux, half of states.nbytes.  Beyond it the
    # blocks' temporaries take 1.78 MiB here (2.90 MiB with blocks of 2^16)
    monkeypatch.setattr(diagnostics, "_FORK_MIN_VALUES", 2**62)  # serial: one process
    n, snaps = 2048, 401
    prob = _standing_problem(n)
    states = 1.0 + 0.5 * np.random.default_rng(0).random((snaps, 2, n))
    traj = Trajectory(prob, np.linspace(0.0, 1.0, snaps), states, ())
    tracemalloc.start()
    try:
        rep = cd.build_report(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.residuals and rep.omega_time_k.size > 0
    assert peak - states.nbytes // 2 < 2 * 2**20, peak - states.nbytes // 2


def test_only_a_large_report_forks(monkeypatch):
    def fork():
        raise AssertionError("forked")

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(_chunks.os, "fork", fork)
    prob = _standing_problem(2048)
    snaps = diagnostics._FORK_MIN_VALUES // (2 * 2048)  # states hold snaps * 2 * n values
    cd.build_report(_frozen(prob, np.linspace(0.0, 1.0, snaps - 1), *prob.u0))
    with pytest.raises(AssertionError, match="^forked$"):
        cd.build_report(_frozen(prob, np.linspace(0.0, 1.0, snaps), *prob.u0))


def test_report_raises_the_bank_error_it_raised_serially(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(diagnostics, "_FORK_MIN_VALUES", 0)
    traj = cd.run(stationary_problem(16, snaps=3))
    message = "test bank k_max exceeds n/4 (k_max=5, n=16)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cd.build_report(traj, bank_k=16 // 4 + 1)
    assert_no_child_left()


def test_moduli_nonuniform_spacing_skips_time_curve():
    prob = _standing_problem(64)
    _, (k, otr, otm) = cd.equicontinuity_moduli(
        _frozen(prob, (0.0, 0.3, 1.0), np.ones(64), np.ones(64)))
    assert k.size == 0 and otr.size == 0 and otm.size == 0


# --------------------------------------------------------------------------
# row-wise report against the per-snapshot oracle
#
# The functions below are the diagnostics as they were computed one snapshot
# at a time, on 1-D arrays, with np.roll stencils, np.stack copies and a
# scalar pow for sup_S_pow.  build_report must reproduce them bit for bit.


def _roll_grad(v, dx):
    return (np.roll(v, -1) - v) / dx


def _roll_interface_mean(v):
    return 0.5 * (v + np.roll(v, -1))


def _oracle_scalars(rho, mu, problem):
    nl, pot = problem.nonlinearity, problem.potentials
    alpha, dx, n = nl.alpha, problem.grid.dx, problem.grid.n_cells
    S = rho + mu
    out = {"mass_rho": float(np.sum(rho) * dx), "mass_mu": float(np.sum(mu) * dx),
           "entropy": float(np.sum(rho * np.log(rho) + mu * np.log(mu)) * dx)}
    dens = nl.energy_density(S) + rho * pot.cells[0] + mu * pot.cells[1]
    out["energy"] = float(np.sum(dens) * dx)
    g = _roll_grad(S, dx)
    out["diss_entropy"] = float(
        np.sum(nl.pressure_slope(_roll_interface_mean(S)) * g * g) * dx)
    for col, beta in (("diss_beta_a", alpha), ("diss_beta_1ma", 1.0 - alpha)):
        m = alpha + beta - 1.0
        if beta in (0.0, 1.0):
            out[col] = 0.0
        elif m == 0.0:
            g = _roll_grad(np.log(S), dx)
            out[col] = (alpha * beta * (1.0 - beta) / 2.0) * float(np.sum(g * g) * dx)
        else:
            g = _roll_grad(S ** (m / 2.0), dx)
            out[col] = (2.0 * alpha * beta * (1.0 - beta) / m**2) * float(np.sum(g * g) * dx)
    r = np.log(rho) - np.log(mu)
    out["bv_r"] = float(np.sum(np.abs(np.roll(r, -1) - r)))
    u = _roll_grad(r, dx) - 2.0 * pot.w_fd_int * nl.shift_profile(_roll_interface_mean(S))
    out["bv_u"] = float(np.sum(np.abs(u)) * dx)
    out["norm_S_2ma"] = float(np.sum(S ** (2.0 - alpha)) * dx)
    out["sup_S_pow"] = float(np.max(S) ** (1.0 - alpha))  # np.float64 scalar pow
    g = _roll_grad(np.log(S), dx)
    out["fisher_log"] = float(np.sum(g * g) * dx)
    k = np.arange(1, n // 2 + 1)
    spec = np.fft.rfft(S)[1:n // 2 + 1] * np.exp(-1j * np.pi * k / n)
    coef_sq = (2.0 * dx) ** 2 * np.abs(spec) ** 2
    if n % 2 == 0:  # the Nyquist bin's amplitude is |X_k|/n, not 2|X_k|/n
        coef_sq[-1] *= 0.25
    out["h_minus_one"] = float(np.sqrt(np.sum(coef_sq / (2.0 * (2.0 * np.pi * k) ** 2))))
    return out


def _oracle_trapezoid_weights(times):
    widths = np.diff(times)
    w = np.zeros_like(times)
    w[:-1] += 0.5 * widths
    w[1:] += 0.5 * widths
    return w


def _oracle_residual(times, rhos, mus, problem, bank):
    nl, pot = problem.nonlinearity, problem.potentials
    dx = problem.grid.dx
    w_trap = _oracle_trapezoid_weights(times)
    rho, mu = np.stack(rhos), np.stack(mus)
    dp_int = np.stack([_roll_grad(nl.pressure(s), dx) for s in rho + mu])
    dp_cells = 0.5 * (dp_int + np.roll(dp_int, 1, axis=1))
    flux_rho = rho * (dp_cells + pot.d_cells[0])
    flux_mu = mu * (dp_cells + pot.d_cells[1])
    rows = []
    for phi in bank.phis:
        chi_t = np.array([phi.chi(t) for t in times])
        dchi = np.diff(chi_t)
        for species, dens, flux in (("rho", rho, flux_rho), ("mu", mu, flux_mu)):
            space_mass = dens @ phi.x_vals * dx
            space_flux = flux @ phi.dx_vals * dx
            dt_term = -float(np.sum(0.5 * (space_mass[:-1] + space_mass[1:]) * dchi))
            flux_term = float(np.sum(w_trap * chi_t * space_flux))
            init_term = float(space_mass[0] * chi_t[0])
            rows.append((phi.phi_id, species, dt_term + flux_term - init_term))
    return rows


def _oracle_moduli(times, rhos, mus, problem):
    n, dx = problem.grid.n_cells, problem.grid.dx
    rho, mu = np.stack(rhos), np.stack(mus)
    w_trap = _oracle_trapezoid_weights(times)
    lags = [m for m in (1, 2, 4, 8, 16, 32) if m <= n // 4]
    om_space = [[float(np.sum(w_trap * (np.sum(np.abs(np.roll(d, -m, axis=1) - d), axis=1)
                                        * dx))) for m in lags] for d in (rho, mu)]
    nt = len(times)
    om_time, k_vals = [[], []], []
    if np.allclose(np.diff(times), times[1] - times[0], rtol=1e-9, atol=1e-12):
        spacing = times[1] - times[0]
        t_lags = [ell for ell in (1, 2, 4, 8) if ell <= nt - 1]
        k_vals = [ell * spacing for ell in t_lags]
        om_time = [[float(np.sum(np.sum(np.abs(d[ell:] - d[:-ell]), axis=1) * dx) * spacing)
                    for ell in t_lags] for d in (rho, mu)]
    return ([m * dx for m in lags], *om_space), (k_vals, *om_time)


@st.composite
def _trajectory_cases(draw):
    n_times, n = draw(st.integers(2, 12)), draw(st.integers(4, 64))
    alpha = draw(st.sampled_from((1.0, 0.5)) | st.floats(0.05, 1.0))
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_times - 1,
                              max_size=n_times - 1, unique=True))
    else:  # uniform spacing, so the time moduli are not empty
        steps = [draw(st.floats(1e-3, 1.0))] * (n_times - 1)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = 10.0 ** rng.uniform(-2.0, 1.0, (n_times, 2, n))
    modes = [(1, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))]
    return alpha, times, states, modes


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_trajectory_cases())
def test_report_rows_match_per_snapshot_oracle(case):
    _check_against_oracle(case)
    with pytest.MonkeyPatch.context() as mp:  # blocks of one row: every boundary
        mp.setattr(diagnostics, "_BLOCK_VALUES", 1)
        _check_against_oracle(case)


def _check_against_oracle(case):
    alpha, times, states, modes = case
    n = states.shape[-1]
    g = cd.make_grid(n)
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(alpha),
        potentials=cd.build_potentials(modes, [(1, 0.3, -0.2)], g),
        u0=states[0],
        t_final=float(times[-1]), snapshot_times=tuple(times.tolist()))
    states.setflags(write=False)
    bank = make_test_bank(g, prob.t_final, k_max=min(2, n // 4))
    rep = cd.build_report(Trajectory(prob, times, states, ()), bank.k_max)

    oracle = [_oracle_scalars(rho, mu, prob) for rho, mu in states]
    for col in SCALAR_COLUMNS:
        assert np.array_equal(getattr(rep, col), [o[col] for o in oracle]), col
    rhos, mus = list(states[:, 0]), list(states[:, 1])
    (h, osr, osm), (k, otr, otm) = _oracle_moduli(times, rhos, mus, prob)
    for got, want in ((rep.omega_space_h, h), (rep.omega_space_rho, osr),
                      (rep.omega_space_mu, osm), (rep.omega_time_k, k),
                      (rep.omega_time_rho, otr), (rep.omega_time_mu, otm)):
        assert np.array_equal(got, want)
    rows = _oracle_residual(times, rhos, mus, prob, bank)
    assert [tuple(r) for r in rep.residuals] == rows
    assert rep.residual_max == max(abs(r[2]) for r in rows)

