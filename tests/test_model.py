import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import crossdiff as cd
from crossdiff.diagnostics import bv_norms, entropy


def oracle_shift_profile(alpha: float, s: float) -> float:
    """Quadrature oracle: y(s) = -s * int_s^inf dz / (z^2 * diffusivity(z))."""
    val, err = quad(lambda z: 1.0 / (z**2 * alpha * z ** (alpha - 1.0)),
                    s, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return -s * val


def oracle_pressure(alpha: float, s: float) -> float:
    """Quadrature oracle for alpha < 1: pressure(s) = -int_s^inf slope(z) dz."""
    val, err = quad(lambda z: alpha * z ** (alpha - 2.0), s, np.inf,
                    epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return -val


def test_public_names_resolve():
    for name in cd.__all__:
        assert getattr(cd, name) is not None, name


def test_alpha_validation():
    with pytest.raises(ValueError, match=r"alpha out of range \(0,1\]"):
        cd.Nonlinearity(1.5)
    with pytest.raises(ValueError):
        cd.Nonlinearity(0.0)


def test_pressure_examples():
    nl1 = cd.Nonlinearity(1.0)
    assert float(nl1.pressure(1.0)) == 0.0
    nl = cd.Nonlinearity(0.5)
    assert float(nl.pressure(4.0)) == pytest.approx(-0.5, abs=1e-14)
    assert float(nl.pressure(4.0)) == pytest.approx(oracle_pressure(0.5, 4.0),
                                                    abs=1e-9)


def test_shift_profile_examples():
    nl1 = cd.Nonlinearity(1.0)
    assert float(nl1.shift_profile(7.3)) == -1.0
    nl = cd.Nonlinearity(0.5)
    assert float(nl.shift_profile(4.0)) == pytest.approx(-8.0, abs=1e-12)
    assert float(nl.shift_profile(4.0)) == pytest.approx(
        oracle_shift_profile(0.5, 4.0), abs=1e-8)
    for alpha in (0.25, 0.75):
        nl = cd.Nonlinearity(alpha)
        for s in (0.3, 1.0, 5.0):
            assert float(nl.shift_profile(s)) == pytest.approx(
                oracle_shift_profile(alpha, s), rel=1e-9)


def test_diffusivity_pressure_slope_link():
    s = np.linspace(1e-12, 10.0, 2001)[1:]
    for alpha in (0.25, 0.5, 0.75, 1.0):
        nl = cd.Nonlinearity(alpha)
        lhs = nl.diffusivity(s)
        rhs = s * nl.pressure_slope(s)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(lhs)


def test_shift_profile_solves_defining_condition():
    s = np.linspace(0.1, 10.0, 500)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        nl = cd.Nonlinearity(alpha)
        y_prime = -(1.0 - alpha) * s ** (-alpha) / alpha**2
        res = (nl.shift_profile(s) * nl.diffusivity(s) / s
               - y_prime * nl.diffusivity(s) + 1.0 / s)
        assert np.max(np.abs(res)) <= 1e-10


def test_pressure_strictly_increasing():
    s = np.linspace(1e-12, 20.0, 1000)[1:]
    for alpha in (0.3, 0.5, 1.0):
        nl = cd.Nonlinearity(alpha)
        assert np.all(np.diff(nl.pressure(s)) > 0)


def test_alpha_one_reductions():
    nl = cd.Nonlinearity(1.0)
    s = np.array([0.2, 1.0, 3.7, 9.0])
    assert np.array_equal(nl.pressure(s), np.log(s))
    assert np.array_equal(nl.shift_profile(s), -np.ones_like(s))
    assert np.array_equal(nl.kirchhoff(s), s)
    assert np.allclose(nl.energy_density(s), s * np.log(s) - s, rtol=1e-15)


def test_clamp_count():
    nl = cd.Nonlinearity(0.5, s_floor=1e-6)
    assert nl.clamp_count(np.array([1.0, 1e-7, -2.0, 0.1, 1e-6])) == 2  # s_floor itself stays
    assert np.isfinite(float(nl.pressure(-5.0)))


def test_build_potentials_zero():
    g = cd.make_grid(32)
    pot = cd.build_potentials([], [], g)
    for table in (pot.cells, pot.d_cells, pot.d2_cells, pot.drift, pot.w_fd_int):
        assert np.all(table == 0.0)
    assert pot.sup_drift == 0.0


def test_build_potentials_sine():
    g = cd.make_grid(64)
    pot = cd.build_potentials([(1, 0.0, 1.0)], [], g)  # V = sin(2 pi x), W = 0
    xi = g.interfaces()
    w = 2 * np.pi
    assert np.allclose(pot.drift[0], w * np.cos(w * xi), atol=1e-12)
    assert np.all(pot.drift[1] == 0.0)
    # the seam interface sits at x = 0 where V' = 2 pi
    assert pot.drift[0, -1] == pytest.approx(w, abs=1e-14)
    # exact value and derivative tables up to second order, W's rows zero
    xc = g.cell_centers()
    assert np.allclose(pot.cells[0], np.sin(w * xc), atol=1e-14)
    assert np.allclose(pot.d_cells[0], w * np.cos(w * xc), atol=1e-12)
    assert np.allclose(pot.d2_cells[0], -w**2 * np.sin(w * xc), atol=1e-11)
    for table in (pot.cells, pot.d_cells, pot.d2_cells, pot.drift):
        assert table.shape == (2, 64) and not table.flags.writeable
        assert np.all(table[1] == 0.0)
    assert pot.sup_drift == np.max(np.abs(pot.drift[0]))


def test_build_potentials_equal_pair():
    g = cd.make_grid(64)
    pot = cd.build_potentials([(1, 1.0, 0.0)], [(1, 1.0, 0.0)], g)
    assert np.array_equal(pot.drift[0], pot.drift[1])
    assert np.all(pot.w_fd_int == 0.0)
    xi = g.interfaces()
    assert np.allclose(pot.drift[0], -2 * np.pi * np.sin(2 * np.pi * xi), atol=1e-12)


def test_build_potentials_resolution_guard():
    g = cd.make_grid(128)
    with pytest.raises(ValueError, match="mode exceeds n/4"):
        cd.build_potentials([(100, 1.0, 0.0)], [], g)


def _initial_problem(u0, n=16):
    g = cd.make_grid(n)
    return cd.ProblemSpec(grid=g, nonlinearity=cd.Nonlinearity(1.0),
                          potentials=cd.build_potentials([], [], g),
                          u0=u0, t_final=0.0, snapshot_times=(0.0,))


def test_validate_initial_constant():
    # the initial entropy and log-ratio variation are row 0 of the report
    one = np.ones((2, 16))
    prob = _initial_problem(one)
    assert np.array_equal(prob.u0, one) and prob.u0 is not one
    assert prob.u0.dtype == np.float64 and not prob.u0.flags.writeable
    assert entropy(*prob.u0, prob) == pytest.approx(0.0, abs=1e-15)
    assert bv_norms(*prob.u0, prob)[0] == 0.0


def test_validate_initial_closed_form():
    prob = _initial_problem(np.stack((np.full(16, 3.0), np.ones(16))))
    assert entropy(*prob.u0, prob) == pytest.approx(3.0 * np.log(3.0), abs=1e-13)
    assert bv_norms(*prob.u0, prob)[0] == pytest.approx(0.0, abs=1e-15)


def test_validate_initial_rejects_zero_cell():
    u0 = np.ones((2, 16))
    u0[0, 5] = 0.0
    with pytest.raises(ValueError, match="^rho0: nonpositive density at cell 5$"):
        _initial_problem(u0)


@st.composite
def _positive_states(draw):
    n = draw(st.integers(4, 48))
    values = draw(st.lists(st.floats(5e-324, 1e300), min_size=2 * n, max_size=2 * n))
    return np.reshape(values, (2, n))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_positive_states(), st.data())
def test_problem_spec_checks_u0(u0, data):
    """ProblemSpec keeps a read-only copy of a positive (2, n) state, and
    names the species and the cell of a bad entry, or the wrong shape."""
    n = u0.shape[1]
    prob = _initial_problem(u0, n)
    expected = u0.copy()
    assert np.array_equal(prob.u0, expected) and not prob.u0.flags.writeable
    u0 *= 2.0  # the caller's later writes do not reach the problem
    assert np.array_equal(prob.u0, expected)

    row, cell = data.draw(st.integers(0, 1)), data.draw(st.integers(0, n - 1))
    bad = data.draw(st.sampled_from((0.0, -0.0, -5e-324, -2.5, np.nan, np.inf, -np.inf)))
    broken = expected.copy()
    broken[row, cell] = bad
    kind = "nonpositive" if np.isfinite(bad) else "non-finite"
    with pytest.raises(ValueError, match=f"^{('rho0', 'mu0')[row]}: {kind} density "
                                         f"at cell {cell}$"):
        _initial_problem(broken, n)

    for shape in ((2, n - 1), (2, n + 1), (n,)):
        with pytest.raises(ValueError, match=re.escape(
                f"initial state must have shape (2, {n}), got {shape}")):
            _initial_problem(np.ones(shape), n)


def test_problem_spec_validation():
    g = cd.make_grid(16)
    nl = cd.Nonlinearity(1.0)
    pot = cd.build_potentials([], [], g)
    init = np.ones((2, 16))
    with pytest.raises(ValueError, match="snapshot_times must start at 0"):
        cd.ProblemSpec(grid=g, nonlinearity=nl, potentials=pot, u0=init,
                       t_final=1.0, snapshot_times=(0.5, 1.0))
    with pytest.raises(ValueError, match="snapshot_times must end at t_final"):
        cd.ProblemSpec(grid=g, nonlinearity=nl, potentials=pot, u0=init,
                       t_final=1.0, snapshot_times=(0.0, 0.5))
    with pytest.raises(ValueError, match="stepper"):
        cd.ProblemSpec(grid=g, nonlinearity=nl, potentials=pot, u0=init,
                       t_final=1.0, snapshot_times=(0.0, 1.0), stepper="rk4")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_final must be finite"):
            cd.ProblemSpec(grid=g, nonlinearity=nl, potentials=pot, u0=init,
                           t_final=bad, snapshot_times=(0.0,))
        with pytest.raises(ValueError, match="eps_viscosity must be finite"):
            cd.ProblemSpec(grid=g, nonlinearity=nl, potentials=pot, u0=init,
                           t_final=1.0, snapshot_times=(0.0, 1.0), eps_viscosity=bad)



@pytest.mark.parametrize("times, message", [
    ((np.nan, 0.5, 1.0), "must start at 0, got nan"),
    ((0.0, np.nan, 1.0), "must be strictly increasing, got nan after 0.0"),
    ((0.0, 0.5, np.nan), "must end at t_final 1.0, got nan"),
])
def test_problem_spec_rejects_nan_snapshot_time(times, message):
    g = cd.make_grid(16)
    with pytest.raises(ValueError, match=re.escape(f"snapshot_times {message}")):
        cd.ProblemSpec(grid=g, nonlinearity=cd.Nonlinearity(1.0),
                       potentials=cd.build_potentials([], [], g), u0=np.ones((2, 16)),
                       t_final=1.0, snapshot_times=times)
