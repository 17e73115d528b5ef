"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Scenario runs are shared through session fixtures.

Scenarios:
  A (stationary): V=W=0, rho0 = 0.5 + 0.25 cos(2 pi x), mu0 = 1 - rho0,
      n=128, T=0.1 (alpha = 1/2; the steady state is exponent-independent).
  B (linear diffusion): alpha=1, V=W=0, rho0 = mu0 = (1+0.5 cos(2 pi x))/2,
      n=256, T=0.05; S solves the heat equation.
  C (fast diffusion): alpha=1/2, V=sin(2 pi x), W=cos(2 pi x),
      rho0 = mu0 = 0.5 + 0.2 cos(2 pi x), T=0.05.
  D (steady state with potentials): alpha = 1/2 and 1, V = W = 0.3 cos(2 pi x)
      + 0.1 sin(4 pi x), n = 32 and 64, T=1; S tends to p^-1(C - V).
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import crossdiff as cd
from crossdiff.diagnostics import make_test_bank
from crossdiff.grid import grad
from crossdiff.transforms import shifted_gradient, to_sum_ratio

from scenarios import (fast_problem, heat_problem, heat_reference, potential_problem,
                       stationary_problem, steady_sum)


def _report(traj, k_max=8):
    return cd.build_report(traj, k_max)


@pytest.fixture(scope="session")
def stationary_traj():
    return cd.run(stationary_problem(128, t_final=0.1, snaps=11))


@pytest.fixture(scope="session")
def heat_trajs():
    return {n: cd.run(heat_problem(n, snaps=65)) for n in (64, 128, 256)}


@pytest.fixture(scope="session")
def fast_trajs():
    return {n: cd.run(fast_problem(n, snaps=21)) for n in (64, 128, 256)}


@pytest.fixture(scope="session")
def heat_study():
    plan = cd.StudyPlan(tuple(heat_problem(32 * 2**level, snaps=65) for level in range(4)))
    return cd.run_study(plan, reference=lambda t, x: 0.5 * heat_reference(t, x))


def _entropy_energy_budget(traj, quantity):
    """Measured constant C in  q(t2) - q(t1) <= rhs + C (dt+dx)(t2-t1)."""
    problem = traj.problem
    rep = cd.build_report(traj, residuals=False, moduli=False)
    vals = getattr(rep, quantity)
    times = rep.times
    dt_max = float(traj.step_log.dt.max())
    budget = dt_max + problem.grid.dx
    c_measured = -np.inf
    for j in range(len(times) - 1):
        if quantity == "entropy":
            rhs = 0.0
            for rho, mu in traj.states[j:j + 2]:  # trapezoid of int rho V'' + mu W''
                rhs += 0.5 * np.sum(rho * problem.potentials.d2_cells[0]
                                    + mu * problem.potentials.d2_cells[1]
                                    ) * problem.grid.dx
            rhs *= times[j + 1] - times[j]
        else:
            rhs = 0.0
        slack = (vals[j + 1] - vals[j]) - rhs
        c_measured = max(c_measured, slack / (budget * (times[j + 1] - times[j])))
    return float(c_measured)


def test_criterion_01_mass_conservation(stationary_traj, heat_trajs, fast_trajs):
    worst = 0.0
    for traj in [stationary_traj, *heat_trajs.values(), *fast_trajs.values()]:
        mass = cd.integrate(traj.states, traj.problem.grid.dx)  # (T, 2): rho, mu
        worst = max(worst, float(np.max(np.abs(mass - mass[0]))))
    assert worst <= 1e-12
    print(f"\n[criterion 01] PASS mass conservation: max drift {worst:.3e} <= 1e-12")


def test_criterion_02_stationary_oracle(stationary_traj):
    rho0 = stationary_traj.problem.u0[0]
    dev = float(np.max(np.abs(stationary_traj.states[:, 0] - rho0)))
    assert dev <= 1e-10
    print(f"\n[criterion 02] PASS stationary state: max deviation {dev:.3e} <= 1e-10")


def test_criterion_03_linear_diffusion_exactness(heat_trajs):
    traj = heat_trajs[256]
    xc = traj.problem.grid.cell_centers()
    err = max(float(np.max(np.abs(rho + mu - heat_reference(t, xc))))
              for t, (rho, mu) in zip(traj.times, traj.states))
    r_dev = float(np.max(np.abs(np.log(traj.states[:, 0] / traj.states[:, 1]))))
    assert err <= 5e-3
    assert r_dev <= 1e-12
    print(f"\n[criterion 03] PASS heat-equation limit: Linf {err:.3e} <= 5e-3, "
          f"log-ratio {r_dev:.1e} <= 1e-12")


def test_criterion_04_entropy_inequality(heat_trajs, fast_trajs):
    c_heat = _entropy_energy_budget(heat_trajs[256], "entropy")
    c_fast = _entropy_energy_budget(fast_trajs[128], "entropy")
    assert np.isfinite(c_heat) and np.isfinite(c_fast)
    assert c_heat <= 0.0 + 1e-9  # pure diffusion dissipates outright
    print(f"\n[criterion 04] PASS entropy inequality: measured C "
          f"(heat) = {c_heat:.3f}, (fast) = {c_fast:.3f}, both finite")


def test_criterion_05_energy_descent(heat_trajs, fast_trajs):
    c_heat = _entropy_energy_budget(heat_trajs[256], "energy")
    c_fast = _entropy_energy_budget(fast_trajs[128], "energy")
    assert np.isfinite(c_heat) and np.isfinite(c_fast)
    assert c_heat <= 1e-9 and c_fast <= 1e-9  # eps = 0: descent holds outright
    print(f"\n[criterion 05] PASS energy descent: measured C "
          f"(heat) = {c_heat:.3e}, (fast) = {c_fast:.3e}")


def test_criterion_06_bv_uniformity(fast_trajs):
    sup_bv = {}
    for n, traj in fast_trajs.items():
        rep = cd.build_report(traj, residuals=False, moduli=False)
        sup_bv[n] = float(np.max(rep.bv_u))
    rel = abs(sup_bv[256] - sup_bv[128]) / sup_bv[128]
    assert rel <= 0.2
    print(f"\n[criterion 06] PASS BV uniformity: sup_t bv_u = "
          f"{sup_bv[64]:.4f}/{sup_bv[128]:.4f}/{sup_bv[256]:.4f} at n=64/128/256, "
          f"top-pair change {100 * rel:.3f}% <= 20%")


def test_criterion_07_shift_collapse_alpha_one():
    rng = np.random.default_rng(123)
    g = cd.make_grid(64)
    nl = cd.Nonlinearity(1.0)
    pot = cd.build_potentials([(1, 0.4, -0.2), (2, 0.0, 0.3)],
                              [(1, -0.1, 0.5)], g)
    combined = pot.cells[0] - pot.cells[1]
    worst = 0.0
    for _ in range(100):
        rho = rng.uniform(0.2, 2.0, 64)
        mu = rng.uniform(0.2, 2.0, 64)
        S, r = to_sum_ratio(rho, mu)
        u = shifted_gradient(S, r, pot, nl)
        target = grad(r + combined, g.dx)
        scale = max(1.0, float(np.max(np.abs(target))))
        worst = max(worst, float(np.max(np.abs(u - target))) / scale)
    assert worst <= 1e-12
    print(f"\n[criterion 07] PASS shift collapse at alpha=1: max rel dev "
          f"{worst:.3e} <= 1e-12 over 100 random states")


def test_criterion_08_weak_residual_decay(heat_trajs):
    res = {}
    for n, traj in heat_trajs.items():
        bank = make_test_bank(traj.problem.grid, traj.problem.t_final, 8)
        _, res[n] = cd.weak_residual(traj, bank)
    order = cd.fit_rate([(1.0 / n, res[n]) for n in (64, 128, 256)])
    assert order >= 0.8
    assert res[256] <= 1e-3
    print(f"\n[criterion 08] PASS weak residual: max|R| = "
          f"{res[64]:.2e}/{res[128]:.2e}/{res[256]:.2e}, fitted order "
          f"{order:.2f} >= 0.8, finest {res[256]:.2e} <= 1e-3")


def test_criterion_09_equicontinuity_rate(fast_trajs):
    traj = fast_trajs[256]
    (h, om_rho, _), _ = cd.equicontinuity_moduli(traj)
    dx = traj.problem.grid.dx
    sel = (h >= 4 * dx - 1e-15) & (h <= 0.125 + 1e-15)
    slope = cd.fit_rate(list(zip(h[sel], om_rho[sel])))
    needed = 0.5 / 1.5 - 0.1  # exponent eps/(1+eps) with eps = 1/2 at alpha = 1/2
    assert slope >= needed
    print(f"\n[criterion 09] PASS equicontinuity rate: slope {slope:.3f} >= "
          f"{needed:.3f} over h in [4dx, 1/8]")


def test_criterion_10_l1_cauchy(heat_study):
    cauchy = heat_study.cauchy_rho
    ratios = [a / b for a, b in zip(cauchy, cauchy[1:])]
    assert all(b < a for a, b in zip(cauchy, cauchy[1:]))
    assert all(1.5 <= r <= 4.0 for r in ratios)
    print(f"\n[criterion 10] PASS L1 Cauchy: differences "
          f"{', '.join(f'{c:.3e}' for c in cauchy)}, ratios "
          f"{', '.join(f'{r:.2f}' for r in ratios)} in [1.5, 4]")


def test_criterion_11_oracle_identities(fast_trajs):
    checks = []

    # shift profile against its quadrature oracle at alpha = 1/2, s = 4
    val, _ = quad(lambda z: 1.0 / (z**2 * 0.5 * z**-0.5), 4.0, np.inf,
                  epsabs=1e-12, epsrel=1e-12)
    y_oracle = -4.0 * val
    y_got = float(cd.Nonlinearity(0.5).shift_profile(4.0))
    checks.append(("shift profile y(4)", abs(y_got - y_oracle), 1e-8))
    checks.append(("y(4) closed form -8", abs(y_got + 8.0), 1e-12))

    # pressure from the tail quadrature of its slope
    p_oracle = -quad(lambda z: 0.5 * z**-1.5, 4.0, np.inf,
                     epsabs=1e-12, epsrel=1e-12)[0]
    p_got = float(cd.Nonlinearity(0.5).pressure(4.0))
    checks.append(("pressure f'(4)", abs(p_got - p_oracle), 1e-9))

    # energy density closed forms
    checks.append(("energy density alpha=1",
                   abs(float(cd.Nonlinearity(1.0).energy_density(2.0))
                       - (2 * np.log(2) - 2)), 1e-13))
    checks.append(("energy density alpha=1/2",
                   abs(float(cd.Nonlinearity(0.5).energy_density(2.0))
                       + 2 * np.sqrt(2)), 1e-13))

    # dissipation against adaptive quadrature of the two-point integrand
    traj = fast_trajs[256]
    prob = traj.problem
    got = cd.dissipation_beta(*traj.states[0], prob, 0.5).dissipation
    dx = prob.grid.dx
    S_fun = lambda z: 1.0 + 0.4 * np.cos(2 * np.pi * z)
    oracle = (0.5 * 0.25 / 2.0) * quad(
        lambda z: ((np.log(S_fun(z + dx)) - np.log(S_fun(z))) / dx) ** 2,
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    checks.append(("dissipation beta=1/2", abs(got - oracle), 1e-8))

    # BV sums against brute-force summation
    g = cd.make_grid(256)
    x = g.cell_centers()
    r = np.sin(2 * np.pi * x)
    bv_r, _ = cd.bv_norms(np.exp(r), np.ones(256), prob)
    brute = sum(abs(r[(i + 1) % 256] - r[i]) for i in range(256))
    checks.append(("bv_r brute force", abs(bv_r - brute), 1e-12))
    checks.append(("bv_r analytic TV 4", abs(bv_r - 4.0), 1e-3))

    # omega_space against the closed-form translate of a frozen cosine
    one = np.cos(2 * np.pi * x)
    shell = dataclasses.replace(
        heat_problem(256, snaps=3, t_final=1.0), t_final=1.0,
        snapshot_times=(0.0, 0.5, 1.0))
    frozen = cd.Trajectory(shell, np.array([0.0, 0.5, 1.0]),
                           np.broadcast_to(one, (3, 2, 256)), ())
    (h, om, _), _ = cd.equicontinuity_moduli(frozen)
    idx = int(np.argmin(np.abs(h - 0.25)))
    checks.append(("omega_space closed form",
                   abs(om[idx] - (4 / np.pi) * np.sin(np.pi / 4)), 1e-4))

    for name, dev, tol in checks:
        assert dev <= tol, f"{name}: {dev:.3e} > {tol}"
    worst = max(dev / tol for _, dev, tol in checks)
    print(f"\n[criterion 11] PASS oracle identities: {len(checks)} checks, "
          f"worst margin {worst:.2%} of tolerance")


def test_criterion_12_determinism_round_trip(tmp_path):
    from crossdiff.cli import main
    cfg_text = """
[grid]
n = 64

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
t_final = 0.01
snapshots = 5

[output]
bank_k = 4
"""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(cfg_text)
    out1, out2, rediag = tmp_path / "o1", tmp_path / "o2", tmp_path / "re"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    names = ["scalars.csv", "omega_space.csv", "omega_time.csv", "residuals.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for snap in out1.glob("snapshot_*.csv"):
        assert snap.read_bytes() == (out2 / snap.name).read_bytes()
    assert main(["diagnose", str(out1), "--out", str(rediag)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (rediag / name).read_bytes()
    print("\n[criterion 12] PASS determinism: repeated runs byte-identical; "
          "diagnose reproduces the run report exactly")


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_criterion_13_explicit_steady_state_with_potentials(alpha):
    # the run has relaxed by t = 1 (t = 2 agrees to 4 digits); the scheme's
    # steady state lies O(dx^2) from S_inf, as its drift is V' at the interfaces
    errors = {}
    for n in (32, 64):
        problem = potential_problem(n, alpha)
        s = cd.run(problem).states[-1].sum(axis=0)
        errors[n] = float(np.sum(np.abs(s - steady_sum(problem))) * problem.grid.dx)
    rate = float(np.log2(errors[32] / errors[64]))
    assert 1.9 <= rate <= 2.1
    assert errors[64] <= 5e-4
    print(f"\n[criterion 13] PASS steady state, alpha = {alpha}: L1 error "
          f"{errors[32]:.3e} -> {errors[64]:.3e} at n = 32 -> 64, rate {rate:.3f} in [1.9, 2.1]")
