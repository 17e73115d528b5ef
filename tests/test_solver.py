import dataclasses

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import crossdiff as cd
import crossdiff.solver
from crossdiff.grid import Field, div, grad, integrate
from crossdiff.solver import SolverError

from scenarios import fast_problem, heat_problem, heat_reference, stationary_problem


def _problem(grid, alpha=0.5, modes_V=(), modes_W=(), stepper="explicit",
             eps=0.0, rho0=None, mu0=None, t_final=0.01, cfl=0.5):
    rho0 = rho0 if rho0 is not None else Field.constant(grid, 1.0)
    mu0 = mu0 if mu0 is not None else Field.constant(grid, 1.0)
    return cd.ProblemSpec(
        grid=grid, nonlinearity=cd.Nonlinearity(alpha),
        potentials=cd.build_potentials(modes_V, modes_W, grid),
        u0=np.stack((rho0.values, mu0.values)),
        t_final=t_final, snapshot_times=(0.0, t_final),
        stepper=stepper, eps_viscosity=eps, cfl_safety=cfl)


def _step(rho, mu, t, dt, prob):
    """advance with the velocities of (rho, mu), at a dt of the caller's choosing."""
    u = np.stack((rho, mu))
    u_new, rec = cd.advance(u, cd.cfl_dt(u, prob)[1], t, dt, prob)
    return u_new[0], u_new[1], rec


def test_velocities_vanish_for_constant_data():
    g = cd.make_grid(64)
    prob = _problem(g)
    a_rho, a_mu = cd.cfl_dt(np.stack((np.full(64, 0.4), np.full(64, 0.6))), prob)[1]
    assert np.all(a_rho == 0.0) and np.all(a_mu == 0.0)


def test_velocities_pure_drift():
    g = cd.make_grid(64)
    prob = _problem(g, modes_V=[(1, 0.0, 1.0)])  # V = sin(2 pi x)
    a_rho, a_mu = cd.cfl_dt(np.stack((np.full(64, 0.4), np.full(64, 0.6))), prob)[1]
    assert np.allclose(a_rho, 2 * np.pi * np.cos(2 * np.pi * g.interfaces()),
                       atol=1e-12)
    assert np.all(a_mu == 0.0)
    # the seam interface sits at x = 0
    assert a_rho[-1] == pytest.approx(2 * np.pi, abs=1e-12)


def test_velocities_match_analytic_log_gradient():
    g = cd.make_grid(256)
    x = g.cell_centers()
    half = Field(g, 0.5 * (1 + 0.5 * np.cos(2 * np.pi * x)))
    prob = _problem(g, alpha=1.0, rho0=half, mu0=half)
    a_rho, _ = cd.cfl_dt(np.stack((half.values, half.values)), prob)[1]
    xi = g.interfaces()
    exact = -np.pi * np.sin(2 * np.pi * xi) / (1 + 0.5 * np.cos(2 * np.pi * xi))
    assert np.max(np.abs(a_rho - exact)) <= 2.5e-4


def test_step_explicit_stationary():
    g = cd.make_grid(128)
    x = g.cell_centers()
    rho0 = Field(g, 0.5 + 0.25 * np.cos(2 * np.pi * x))
    mu0 = Field(g, 1.0 - rho0.values)
    prob = _problem(g, alpha=0.5, rho0=rho0, mu0=mu0)
    rho, mu, _ = _step(rho0.values, mu0.values, 0.0, 1e-5, prob)
    assert np.max(np.abs(rho - rho0.values)) <= 1e-15
    assert np.max(np.abs(mu - mu0.values)) <= 1e-15


def test_step_explicit_conserves_mass():
    rng = np.random.default_rng(8)
    g = cd.make_grid(64)
    rho0 = Field(g, rng.uniform(0.3, 2.0, 64))
    mu0 = Field(g, rng.uniform(0.3, 2.0, 64))
    prob = _problem(g, alpha=0.5, modes_V=[(1, 0.2, 0.0)],
                    modes_W=[(2, 0.0, 0.3)], rho0=rho0, mu0=mu0, eps=0.01)
    u0 = np.stack((rho0.values, mu0.values))
    dt, velocities = cd.cfl_dt(u0, prob)
    (rho, mu), _ = cd.advance(u0, velocities, 0.0, dt, prob)
    assert abs(integrate(rho, g.dx) - integrate(rho0.values, g.dx)) <= 1e-14
    assert abs(integrate(mu, g.dx) - integrate(mu0.values, g.dx)) <= 1e-14


def test_step_explicit_positivity_error():
    g = cd.make_grid(32)
    x = g.cell_centers()
    rho0 = Field(g, 0.01 + 0.009 * np.cos(2 * np.pi * x))
    prob = _problem(g, alpha=1.0, modes_V=[(1, 2.0, 0.0)], rho0=rho0)
    with pytest.raises(SolverError, match="positivity violated"):
        _step(rho0.values, np.ones(32), 0.0, 0.5, prob)  # far beyond the CFL bound


def test_heat_scenario_matches_fourier_solution():
    prob = heat_problem(256, snaps=3)
    traj = cd.run(prob)
    assert list(traj.times) == [0.0, 0.025, 0.05]
    xc = prob.grid.cell_centers()
    for t, (rho, mu) in zip(traj.times, traj.states):
        assert np.max(np.abs(rho + mu - heat_reference(t, xc))) <= 5e-3
        # equal species stay equal: log-ratio is identically zero
        assert np.array_equal(rho, mu)
    amp = 0.5 * np.exp(-4 * np.pi**2 * 0.05)
    assert amp == pytest.approx(0.069455, abs=5e-6)


def test_semi_implicit_constant_fixed_point():
    g = cd.make_grid(64)
    prob = _problem(g, alpha=0.5, stepper="semi-implicit")
    rho, mu, _ = _step(np.full(64, 0.7), np.full(64, 0.7), 0.0, 1e-3, prob)
    assert np.max(np.abs(rho - 0.7)) <= 1e-13
    assert np.max(np.abs(mu - 0.7)) <= 1e-13


def test_semi_implicit_agrees_with_explicit_at_small_dt():
    g = cd.make_grid(128)
    x = g.cell_centers()
    f0 = Field(g, 0.5 + 0.2 * np.cos(2 * np.pi * x))
    probE = _problem(g, alpha=0.5, modes_V=[(1, 0.0, 1.0)], modes_W=[(1, 1.0, 0.0)],
                     rho0=f0, mu0=f0, t_final=1.0)
    probI = dataclasses.replace(probE, stepper="semi-implicit")
    dt = g.dx**2 / 8
    rho, mu = f0.values, f0.values
    max_diff = 0.0
    for _ in range(100):
        rho_e, mu_e, _ = _step(rho, mu, 0.0, dt, probE)
        rho_i = _step(rho, mu, 0.0, dt, probI)[0]
        max_diff = max(max_diff, float(np.max(np.abs(rho_e - rho_i))))
        rho, mu = rho_e, mu_e
    c_measured = max_diff / dt**2
    assert np.isfinite(c_measured)
    assert max_diff <= 1e-5  # measured 3.1e-6 at this resolution


def test_semi_implicit_newton_counts():
    prob = fast_problem(128, snaps=3, t_final=0.02, stepper="semi-implicit")
    traj = cd.run(prob)
    iters = [rec.newton_iters for rec in traj.step_log]
    assert max(iters) <= 12
    mass = integrate(traj.states[:, 0], prob.grid.dx)
    assert abs(mass[-1] - mass[0]) <= 1e-13


@pytest.mark.parametrize("s_floor", (1.5, 1.9))
def test_semi_implicit_step_converges_where_s_floor_clamps(s_floor):
    # rho + mu dips below s_floor, where kirchhoff(max(S, s_floor)) is flat;
    # a Newton matrix with diffusivity(S) there ran out of iterations
    g = cd.make_grid(16)
    rho0 = Field(g, 1.0 + 0.8 * np.cos(2 * np.pi * g.cell_centers()))
    prob = dataclasses.replace(
        _problem(g, modes_V=[(1, 0.3, 0.0)], modes_W=[(2, 0.0, 0.2)],
                 stepper="semi-implicit", eps=0.05, rho0=rho0,
                 mu0=Field.constant(g, 0.9)),
        nonlinearity=cd.Nonlinearity(0.5, s_floor))
    u = np.stack((rho0.values, np.full(16, 0.9)))
    assert np.count_nonzero(u[0] + u[1] < s_floor) > 0
    dt, velocities = cd.cfl_dt(u, prob)
    u_new, rec = cd.advance(u, velocities, 0.0, dt, prob)
    assert rec.newton_iters == 4 and rec.clamps > 0
    assert np.all(u_new > 0.0)
    assert np.allclose(integrate(u_new, g.dx), integrate(u, g.dx), rtol=0, atol=1e-14)


def test_semi_implicit_matches_heat_solution():
    prob = heat_problem(128, snaps=9)
    prob = dataclasses.replace(prob, stepper="semi-implicit")
    traj = cd.run(prob)
    xc = prob.grid.cell_centers()
    err = max(np.max(np.abs(rho + mu - heat_reference(t, xc)))
              for t, (rho, mu) in zip(traj.times, traj.states))
    assert err <= 1e-2  # advective dt only: larger splitting error than explicit


def test_cfl_formula():
    g = cd.make_grid(128)
    x = g.cell_centers()
    rho0 = Field(g, 0.5 + 0.25 * np.cos(2 * np.pi * x))
    mu0 = Field(g, 1.0 - rho0.values)
    prob = _problem(g, alpha=1.0, rho0=rho0, mu0=mu0)
    st = np.stack((rho0.values, mu0.values))
    assert cd.cfl_dt(st, prob)[0] == pytest.approx(0.5 * g.dx**2 / 2.0, rel=1e-12)
    assert cd.cfl_dt(st, prob)[0] == pytest.approx(1.526e-5, rel=1e-3)
    # eps = 1 doubles the diffusive denominator
    prob_eps = dataclasses.replace(prob, eps_viscosity=1.0)
    assert cd.cfl_dt(st, prob_eps)[0] == pytest.approx(0.5 * cd.cfl_dt(st, prob)[0],
                                                       rel=1e-12)


def test_cfl_fast_diffusion_scaling():
    # constant S = 1e-4 isolates the diffusive bound (velocities vanish);
    # diffusivity is 0.5 * (1e-4)^(-1/2) = 50 against 1 for alpha = 1
    g = cd.make_grid(128)
    f = Field.constant(g, 5e-5)
    prob_half = _problem(g, alpha=0.5, rho0=f, mu0=f)
    prob_one = _problem(g, alpha=1.0, rho0=f, mu0=f)
    u = np.stack((f.values, f.values))
    ratio = cd.cfl_dt(u, prob_half)[0] / cd.cfl_dt(u, prob_one)[0]
    assert ratio == pytest.approx(1.0 / 50.0, rel=1e-12)


def test_run_zero_horizon():
    g = cd.make_grid(16)
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(0.5),
        potentials=cd.build_potentials([], [], g),
        u0=np.ones((2, 16)), t_final=0.0, snapshot_times=(0.0,))
    traj = cd.run(prob)
    assert traj.states.shape == (1, 2, 16) and list(traj.times) == [0.0]
    assert np.array_equal(traj.states[0], prob.u0)
    assert not traj.states.flags.writeable and not traj.times.flags.writeable


def test_run_stationary_snapshots():
    prob = stationary_problem(128)
    traj = cd.run(prob)
    assert list(traj.times) == list(prob.snapshot_times)
    assert np.max(np.abs(traj.states[:, 0] - prob.u0[0])) <= 1e-12


def test_mass_conserved_along_runs():
    for prob in (heat_problem(64, snaps=5), fast_problem(64, snaps=5),
                 fast_problem(64, snaps=5, stepper="semi-implicit")):
        traj = cd.run(prob)
        mass = integrate(traj.states, prob.grid.dx)  # (T, 2): rho and mu
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
        assert np.min(traj.states) > 0


def test_species_potential_swap_symmetry():
    g = cd.make_grid(64)
    x = g.cell_centers()
    rho0 = Field(g, 0.6 + 0.2 * np.sin(2 * np.pi * x))
    mu0 = Field(g, 0.5 + 0.1 * np.cos(2 * np.pi * x))
    mv, mw = [(1, 0.3, 0.0)], [(2, 0.0, 0.2)]
    t1 = cd.run(_problem(g, modes_V=mv, modes_W=mw, rho0=rho0, mu0=mu0))
    t2 = cd.run(_problem(g, modes_V=mw, modes_W=mv, rho0=mu0, mu0=rho0))
    assert np.array_equal(t1.states, t2.states[:, ::-1])


def test_translation_equivariance_bitwise():
    g = cd.make_grid(64)
    x = g.cell_centers()
    rho0 = Field(g, 0.6 + 0.2 * np.sin(2 * np.pi * x))
    mu0 = Field(g, 0.5 + 0.1 * np.cos(2 * np.pi * x))
    prob = _problem(g, modes_V=[(1, 0.3, 0.0)], modes_W=[(2, 0.0, 0.2)],
                    rho0=rho0, mu0=mu0)
    m = 17
    rolled = {}
    for f in dataclasses.fields(prob.potentials):
        val = getattr(prob.potentials, f.name)
        rolled[f.name] = np.roll(val, m, axis=-1) if isinstance(val, np.ndarray) else val
    prob_r = dataclasses.replace(
        prob, potentials=cd.PotentialPair(**rolled),
        u0=np.roll(prob.u0, m, axis=-1))
    t1, t2 = cd.run(prob), cd.run(prob_r)
    assert np.array_equal(np.roll(t1.states, m, axis=-1), t2.states)


def test_equal_species_preserved_with_equal_potentials():
    g = cd.make_grid(64)
    x = g.cell_centers()
    f0 = Field(g, 0.5 + 0.2 * np.cos(2 * np.pi * x))
    prob = _problem(g, alpha=1.0, modes_V=[(1, 0.0, 0.5)],
                    modes_W=[(1, 0.0, 0.5)], rho0=f0, mu0=f0, t_final=0.02)
    traj = cd.run(prob)
    assert np.max(np.abs(traj.states[:, 0] - traj.states[:, 1])) <= 1e-12


def test_sum_equation_residual_first_order():
    """The two-species update satisfies the aggregate equation
    dS/dt = Lap kirchhoff(S) + div(S v + S h(r) w) to first order."""
    def residual(n):
        prob = fast_problem(n, snaps=41, t_final=0.02)
        traj = cd.run(prob)
        nl, pot = prob.nonlinearity, prob.potentials
        dx = prob.grid.dx
        worst = 0.0
        for j in range(len(traj.times) - 1):
            (rho0, mu0), (rho1, mu1) = traj.states[j], traj.states[j + 1]
            S0 = rho0 + mu0
            S1 = rho1 + mu1
            dt_snap = traj.times[j + 1] - traj.times[j]
            d_dt = (S1 - S0) / dt_snap
            S = 0.5 * (S0 + S1)
            r = 0.5 * (np.log(rho0 / mu0) + np.log(rho1 / mu1))
            lap = div(grad(nl.kirchhoff(S), dx), dx)
            s_int = 0.5 * (S + np.roll(S, -1))
            r_int = 0.5 * (r + np.roll(r, -1))
            h_int = np.tanh(0.5 * r_int)
            v_int = 0.5 * (pot.drift[0] + pot.drift[1])
            w_int = 0.5 * (pot.drift[0] - pot.drift[1])
            flux = s_int * v_int + s_int * h_int * w_int
            drift = div(flux, dx)
            worst = max(worst, float(np.max(np.abs(d_dt - lap - drift))))
        return worst

    r64, r128 = residual(64), residual(128)
    assert r128 < r64
    assert r64 / r128 >= 1.4  # roughly first order in (dt, dx)


def test_run_annotates_solver_errors(monkeypatch):
    g = cd.make_grid(32)
    prob = _problem(g, t_final=0.05)
    real_advance = crossdiff.solver.advance
    original = SolverError("positivity violated: rho at cell 3, t=0.001")
    calls = []

    def advance(*args):
        calls.append(args)
        if len(calls) == 3:
            raise original
        return real_advance(*args)

    monkeypatch.setattr(crossdiff.solver, "advance", advance)
    with pytest.raises(SolverError) as info:
        cd.run(prob)
    assert len(calls) == 3
    assert str(info.value) == f"{original} (while integrating to t=0.05)"
    assert info.value.__cause__ is original


@pytest.mark.parametrize("stepper", ("explicit", "semi-implicit"))
@pytest.mark.parametrize("make", (fast_problem, heat_problem))
def test_hand_stepping_reproduces_run(make, stepper):
    """The public cfl_dt/advance pair, with dt truncated at each snapshot
    time, is exactly what run does."""
    prob = dataclasses.replace(make(64), stepper=stepper)
    traj = cd.run(prob)
    t, u = 0.0, prob.u0
    log = []
    for j, target in enumerate(prob.snapshot_times[1:], 1):
        while t < target:
            dt, velocities = cd.cfl_dt(u, prob)
            landing = dt >= target - t
            if landing:
                dt = target - t
            u, rec = cd.advance(u, velocities, t, dt, prob)
            log.append(rec)
            t = target if landing else t + dt
        assert traj.times[j] == t
        assert np.array_equal(traj.states[j], u)
    assert tuple(log) == traj.step_log


def test_small_alpha_run_stays_positive():
    g = cd.make_grid(64)
    x = g.cell_centers()
    f0 = Field(g, 0.5 + 0.3 * np.cos(2 * np.pi * x))
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(0.25),
        potentials=cd.build_potentials([(1, 0.0, 0.5)], [(2, 0.3, 0.0)], g),
        u0=np.stack((f0.values, f0.values)), t_final=0.01,
        snapshot_times=(0.0, 0.005, 0.01))
    for stepper in ("explicit", "semi-implicit"):
        traj = cd.run(dataclasses.replace(prob, stepper=stepper))
        assert np.min(traj.states[:, 0]) > 0
        mass = integrate(traj.states[:, 0], g.dx)
        assert abs(mass[-1] - mass[0]) <= 1e-13


@pytest.mark.parametrize("bad, message", [
    (np.nan, "positivity violated: non-finite rho at t=0.25"),
    (np.inf, "positivity violated: non-finite rho at t=0.25"),
    (-np.inf, "positivity violated: non-finite rho at t=0.25"),
    (0.0, "positivity violated: rho at cell 3, t=0.25"),
    (-0.0, "positivity violated: rho at cell 3, t=0.25"),
    (-1e-300, "positivity violated: rho at cell 3, t=0.25"),
])
def test_positivity_check_messages(bad, message):
    v = np.linspace(0.5, 1.5, 16)
    v[3] = bad
    v[9] = -1.0  # a later bad cell: the message names the first one
    with pytest.raises(SolverError) as info:
        crossdiff.solver._check_positive(np.stack((v, np.ones(16))), 0.25)
    assert str(info.value) == message


def test_positivity_check_accepts_extreme_positive_values():
    v = np.array([5e-324, 1e-300, 1.0, np.finfo(float).max])
    crossdiff.solver._check_positive(np.stack((v, v)), 0.0)


def _reference_explicit_step(rho, mu, t, prob):
    """cfl_dt followed by one explicit advance, as written with np.roll and
    two velocity evaluations before the slice stencils; kept as the oracle."""
    nl, pot = prob.nonlinearity, prob.potentials
    dx, eps = prob.grid.dx, prob.eps_viscosity

    def grad_(v):
        return (np.roll(v, -1) - v) / dx

    def div_(g):
        return (g - np.roll(g, 1)) / dx

    def velocities():
        dp = grad_(nl.pressure(rho + mu))
        return dp + pot.drift[0], dp + pot.drift[1]

    a_rho, a_mu = velocities()
    amax = max(np.max(np.abs(a_rho)), np.max(np.abs(a_mu)), 1e-30)
    dt = dx / amax
    diff_max = float(np.max(nl.diffusivity(rho + mu))) + eps
    dt = prob.cfl_safety * min(dt, dx * dx / (2.0 * diff_max))
    clamps = nl.clamp_count(rho + mu)
    new = []
    for v, a in zip((rho, mu), velocities()):
        flux = np.where(a < 0.0, v, np.roll(v, -1)) * a + eps * grad_(v)
        new.append(v + dt * div_(flux))
    positive = all(np.all(np.isfinite(v)) and np.all(v > 0.0) for v in new)
    return dt, new[0], new[1], cd.StepRecord(t, dt, clamps, 0), positive


@st.composite
def _explicit_cases(draw):
    n = draw(st.integers(4, 64))
    kmax = n // 4
    coef = st.floats(-1.0, 1.0, allow_subnormal=False)
    modes = st.lists(st.tuples(st.integers(0, kmax), coef, coef), min_size=1, max_size=2)
    density = st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n)
    return dict(n=n, alpha=draw(st.floats(0.01, 1.0, exclude_max=True) | st.just(1.0)),
                eps=draw(st.just(0.0) | st.floats(1e-6, 0.5)),
                s_floor=draw(st.sampled_from((1e-12, 2.0))),
                cfl=draw(st.sampled_from((0.5, 1.0))),
                modes_V=draw(modes), modes_W=draw(modes),
                rho=np.array(draw(density)), mu=np.array(draw(density)),
                t=draw(st.floats(0.0, 1.0)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_explicit_cases())
def test_explicit_step_bitwise_equals_roll_reference(case):
    g = cd.make_grid(case["n"])
    rho, mu = case["rho"], case["mu"]
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(case["alpha"], case["s_floor"]),
        potentials=cd.build_potentials(case["modes_V"], case["modes_W"], g),
        u0=np.stack((rho, mu)),
        t_final=1.0, snapshot_times=(0.0, 1.0), eps_viscosity=case["eps"],
        cfl_safety=case["cfl"])
    dt_ref, rho_ref, mu_ref, rec_ref, positive = _reference_explicit_step(
        rho, mu, case["t"], prob)
    u = np.stack((rho, mu))
    dt, velocities = cd.cfl_dt(u, prob)
    assert dt == dt_ref
    if not positive:
        with pytest.raises(SolverError, match="positivity violated"):
            cd.advance(u, velocities, case["t"], dt, prob)
        return
    (rho_new, mu_new), rec = cd.advance(u, velocities, case["t"], dt, prob)
    assert rho_new.tobytes() == rho_ref.tobytes()
    assert mu_new.tobytes() == mu_ref.tobytes()
    assert rec == rec_ref


def _per_species_check(v, t, name):
    if v.min() > 0.0 and v.max() < np.inf:
        return
    if not np.all(np.isfinite(v)):
        raise SolverError(f"positivity violated: non-finite {name} at t={t:.6g}")
    if np.any(v <= 0.0):
        i = int(np.flatnonzero(v <= 0.0)[0])
        raise SolverError(f"positivity violated: {name} at cell {i}, t={t:.6g}")


def _per_species_donor(v, a):
    up = np.empty_like(v)
    up[:-1] = v[1:]
    up[-1] = v[0]
    np.putmask(up, a < 0.0, v)
    return up


def _per_species_explicit_update(rho, mu, velocities, t_new, dt, problem):
    """The explicit update as written per species, before the (2, n) state;
    kept as the oracle."""
    dx = problem.grid.dx
    eps = problem.eps_viscosity
    clamps = problem.nonlinearity.clamp_count(rho + mu)
    new = []
    for v, a in zip((rho, mu), velocities):
        flux = _per_species_donor(v, a)
        flux *= a
        if eps != 0.0:
            flux += eps * grad(v, dx)
        v_new = div(flux, dx)
        v_new *= dt
        v_new += v
        new.append(v_new)
    _per_species_check(new[0], t_new, "rho")
    _per_species_check(new[1], t_new, "mu")
    return new[0], new[1], clamps, 0


def _per_species_semi_implicit_update(rho, mu, velocities, t_new, dt, problem):
    """The semi-implicit update as written per species, before the (2, n)
    state; kept as the oracle."""
    nl, pot = problem.nonlinearity, problem.potentials
    dx = problem.grid.dx
    donor = _per_species_donor
    rho_s = rho + dt * div(donor(rho, pot.drift[0]) * pot.drift[0], dx)
    mu_s = mu + dt * div(donor(mu, pot.drift[1]) * pot.drift[1], dx)
    _per_species_check(rho_s, t_new, "rho")
    _per_species_check(mu_s, t_new, "mu")
    s_star = rho_s + mu_s
    clamps = nl.clamp_count(s_star)
    _, q_new, iters, nclamps = crossdiff.solver._implicit_diffusion(s_star, dt, problem)
    clamps += nclamps
    g_diff = grad(q_new, dx)
    s_up = donor(s_star, g_diff)
    rho_new = rho_s + dt * div((donor(rho_s, g_diff) / s_up) * g_diff, dx)
    mu_new = mu_s + dt * div((donor(mu_s, g_diff) / s_up) * g_diff, dx)
    _per_species_check(rho_new, t_new, "rho")
    _per_species_check(mu_new, t_new, "mu")
    return rho_new, mu_new, clamps, iters


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_explicit_cases(), st.sampled_from(("explicit", "semi-implicit")),
       st.sampled_from((0.5, 1.0, 4.0)))
@example(dict(n=16, alpha=0.5, eps=0.05, s_floor=1.5, cfl=0.5,
              modes_V=[(1, 0.3, 0.0)], modes_W=[(2, 0.0, 0.2)],
              rho=1.0 + 0.4 * np.cos(np.pi * np.arange(0.5, 16) / 8),
              mu=np.full(16, 0.9), t=0.0),
         "semi-implicit", 1.0)  # eps > 0 with 3 clamps, rare among the draws
@example(dict(n=16, alpha=0.5, eps=0.0, s_floor=2.0, cfl=0.5,
              modes_V=[(1, 0.3, 0.0)], modes_W=[(2, 0.0, 0.2)],
              rho=0.7 + 0.1 * np.cos(np.pi * np.arange(0.5, 16) / 8),
              mu=np.full(16, 0.8), t=0.0),
         "explicit", 1.0)  # every cell clamped, no density below s_floor / 2
def test_stacked_step_bitwise_equals_per_species_reference(case, stepper, stretch):
    """advance on the (2, n) state gives the bits, the record and the
    SolverError message of the per-species update, at dt up to 4x cfl_dt."""
    g = cd.make_grid(case["n"])
    rho, mu = case["rho"], case["mu"]
    prob = cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(case["alpha"], case["s_floor"]),
        potentials=cd.build_potentials(case["modes_V"], case["modes_W"], g),
        u0=np.stack((rho, mu)),
        t_final=1.0, snapshot_times=(0.0, 1.0), eps_viscosity=case["eps"],
        stepper=stepper, cfl_safety=case["cfl"])
    u = np.stack((rho, mu))
    dt, velocities = cd.cfl_dt(u, prob)
    dt *= stretch
    t = case["t"]
    reference = (_per_species_explicit_update if stepper == "explicit"
                 else _per_species_semi_implicit_update)
    try:
        rho_ref, mu_ref, clamps, iters = reference(rho, mu, tuple(velocities),
                                                   t + dt, dt, prob)
    except SolverError as err:
        with pytest.raises(SolverError) as info:
            cd.advance(u, velocities, t, dt, prob)
        assert str(info.value) == str(err)
        return
    (rho_new, mu_new), rec = cd.advance(u, velocities, t, dt, prob)
    assert rho_new.tobytes() == rho_ref.tobytes()
    assert mu_new.tobytes() == mu_ref.tobytes()
    assert rec == cd.StepRecord(t, dt, clamps, iters)


def _dense_cyclic_jacobian(cd_):
    """J[i, i] = 1 + 2 cd[i], J[i, i -+ 1] = -cd[i -+ 1], indices mod n."""
    n = cd_.size
    jac = np.diag(1.0 + 2.0 * cd_)
    for i in range(n):
        jac[i, (i - 1) % n] -= cd_[(i - 1) % n]
        jac[i, (i + 1) % n] -= cd_[(i + 1) % n]
    return jac


def _relative_residual(jac, x, rhs):
    norm = np.linalg.norm
    return norm(jac @ x - rhs, np.inf) / (norm(jac, np.inf) * norm(x, np.inf)
                                          + norm(rhs, np.inf))


@st.composite
def _tridiagonal_cases(draw):
    n = draw(st.integers(4, 64))
    coef = st.just(0.0) | st.floats(-6.0, 10.0).map(lambda e: 10.0**e)
    rhs = st.floats(-1e3, 1e3, allow_subnormal=False)
    return (np.array(draw(st.lists(coef, min_size=n, max_size=n))),
            np.array(draw(st.lists(rhs, min_size=n, max_size=n).filter(any))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_tridiagonal_cases())
@example((np.zeros(4), np.arange(1.0, 5.0)))
@example((np.array([1e10, 0.0, 1e-6, 3.0]), np.array([1.0, -2.0, 0.5, 1e3])))
def test_periodic_tridiagonal_solve_matches_dense(case):
    cd_, rhs = case
    x = crossdiff.solver._solve_periodic_tridiagonal(cd_, rhs)
    jac = _dense_cyclic_jacobian(cd_)
    x_ref = np.linalg.solve(jac, rhs)
    assert _relative_residual(jac, x, rhs) <= 1e-12
    assert _relative_residual(jac, x_ref, rhs) <= 1e-12
    # equal up to the conditioning of J, as two backward-stable solves are
    bound = 1e-12 * np.linalg.cond(jac, np.inf) * np.abs(x_ref).max()
    assert np.abs(x - x_ref).max() <= bound


def _reference_implicit_diffusion(s_rhs, dt, problem):
    """The damped Newton with a COO -> CSR Jacobian and scipy's spsolve per
    iteration, as before the periodic tridiagonal solve; kept as the oracle.
    Its Jacobian takes the slope of q as 0 where s < s_floor, as the solver's."""
    nl = problem.nonlinearity
    eps = problem.eps_viscosity
    dx = problem.grid.dx
    n = s_rhs.size
    c = dt / (dx * dx)
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([(idx - 1) % n, idx, (idx + 1) % n])

    def residual(s):
        q = nl.kirchhoff(s) + eps * s
        q_wrap = np.concatenate((q[-1:], q, q[:1]))
        return s - c * (q_wrap[2:] - 2.0 * q + q_wrap[:-2]) - s_rhs

    s = s_rhs.copy()
    res = residual(s)
    norm = float(np.max(np.abs(res)))
    clamps = 0
    for it in range(crossdiff.solver.NEWTON_MAXIT):
        if norm <= crossdiff.solver.NEWTON_TOL:
            return s, it, clamps
        d = np.where(s < nl.s_floor, 0.0, nl.diffusivity(s)) + eps
        vals = np.concatenate([-c * d[(idx - 1) % n],
                               1.0 + 2.0 * c * d,
                               -c * d[(idx + 1) % n]])
        jac = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        delta = spsolve(jac, -res)
        lam = 1.0
        for _ in range(30):
            trial = s + lam * delta
            clamps += nl.clamp_count(trial)
            res_t = residual(trial)
            norm_t = float(np.max(np.abs(res_t)))
            if norm_t < norm:
                s, res, norm = trial, res_t, norm_t
                break
            lam *= 0.5
        else:
            raise SolverError(
                f"newton stalled, residual {norm:.3e} after {it + 1} iterations")
    raise SolverError(f"newton did not converge, residual {norm:.3e}")


@st.composite
def _newton_cases(draw):
    n = draw(st.integers(4, 64))
    return dict(n=n, alpha=draw(st.floats(0.01, 1.0)),
                eps=draw(st.just(0.0) | st.floats(1e-6, 0.5)),
                s_floor=draw(st.sampled_from((1e-12, 1.0))),
                dt=10.0 ** draw(st.floats(-7.0, 0.0)),
                s_rhs=10.0 ** np.array(draw(st.lists(st.floats(-4.0, 0.7),
                                                     min_size=n, max_size=n))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_newton_cases())
def test_newton_matches_sparse_reference(case):
    g = cd.make_grid(case["n"])
    prob = dataclasses.replace(
        _problem(g, stepper="semi-implicit", eps=case["eps"]),
        nonlinearity=cd.Nonlinearity(case["alpha"], case["s_floor"]))
    s_rhs = case["s_rhs"]
    try:
        s_ref, iters_ref, clamps_ref = _reference_implicit_diffusion(s_rhs, case["dt"], prob)
    except SolverError as err:
        with pytest.raises(SolverError, match=str(err).split(",")[0]):
            crossdiff.solver._implicit_diffusion(s_rhs, case["dt"], prob)
        return
    s, q, iters, clamps = crossdiff.solver._implicit_diffusion(s_rhs, case["dt"], prob)
    assert (iters, clamps) == (iters_ref, clamps_ref)
    assert np.array_equal(q, prob.nonlinearity.kirchhoff(s) + case["eps"] * s)
    assert np.abs(s - s_ref).max() <= 1e-12 * np.abs(s_ref).max()


def test_periodic_tridiagonal_solve_reports_lapack_failure(monkeypatch):
    def failing_gtsv(dl, d, du, b, **_):
        return dl, d, du, b, 2

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", failing_gtsv)
    with pytest.raises(SolverError, match="gtsv info 2"):
        crossdiff.solver._solve_periodic_tridiagonal(np.ones(4), np.ones(4))
