import numpy as np
import pytest

import crossdiff as cd
from crossdiff.grid import grad
from crossdiff.transforms import shifted_gradient, to_sum_ratio

from scenarios import random_positive_pair


def test_to_sum_ratio_examples():
    S, r = to_sum_ratio(np.ones(8), np.ones(8))
    assert np.all(S == 2.0)
    assert np.all(r == 0.0)
    S, r = to_sum_ratio(np.full(8, 3.0), np.ones(8))
    assert np.all(S == 4.0)
    assert np.allclose(r, np.log(3.0), atol=1e-15)


def test_to_sum_ratio_rejects_nonpositive():
    vals = np.ones(8)
    vals[2] = -1.0
    with pytest.raises(ValueError, match="cell 2"):
        to_sum_ratio(vals, np.ones(8))
    rows = np.ones((3, 8))
    rows[1, 5] = 0.0
    with pytest.raises(ValueError, match="cell 5"):
        to_sum_ratio(np.ones((3, 8)), rows)


def _species(S, r):
    """Inverse of to_sum_ratio: rho = S sigmoid(r), mu = S sigmoid(-r)."""
    return S / (1.0 + np.exp(-r)), S / (1.0 + np.exp(r))


def test_round_trip_both_ways():
    rng = np.random.default_rng(42)
    g = cd.make_grid(32)
    for _ in range(100):
        rho0, mu0 = random_positive_pair(g, rng)
        S, r = to_sum_ratio(rho0, mu0)
        rho, mu = _species(S, r)
        assert np.allclose(rho, rho0, rtol=1e-13)
        assert np.allclose(mu, mu0, rtol=1e-13)
        S2, r2 = to_sum_ratio(rho, mu)
        assert np.allclose(S2, S, rtol=1e-13)
        assert np.allclose(r2, r, rtol=1e-13, atol=1e-13)


def test_species_sum_recovered():
    rng = np.random.default_rng(5)
    g = cd.make_grid(64)
    for _ in range(20):
        rho, mu = random_positive_pair(g, rng)
        S, _ = to_sum_ratio(rho, mu)
        assert np.array_equal(S, rho + mu)


def test_imbalance_identities():
    # rho - mu = S h(r) with h(r) = tanh(r/2)
    rng = np.random.default_rng(9)
    g = cd.make_grid(32)
    rho, mu = random_positive_pair(g, rng)
    S, r = to_sum_ratio(rho, mu)
    h = np.tanh(0.5 * r)
    assert np.allclose(rho - mu, S * h, rtol=1e-13,
                       atol=1e-13)


def test_shifted_gradient_zero_shift():
    g = cd.make_grid(64)
    pot = cd.build_potentials([(1, 0.5, 0.0)], [(1, 0.5, 0.0)], g)  # V = W
    rng = np.random.default_rng(2)
    S, r = to_sum_ratio(*random_positive_pair(g, rng))
    u = shifted_gradient(S, r, pot, cd.Nonlinearity(0.5))
    assert np.array_equal(u, grad(r, g.dx))


def test_shifted_gradient_alpha_one_collapse():
    rng = np.random.default_rng(17)
    g = cd.make_grid(64)
    nl = cd.Nonlinearity(1.0)
    pot = cd.build_potentials([(1, 0.3, -0.2), (2, 0.0, 0.5)],
                              [(1, -0.4, 0.1)], g)
    combined_pot = pot.cells[0] - pot.cells[1]
    for _ in range(100):
        S, r = to_sum_ratio(*random_positive_pair(g, rng))
        u = shifted_gradient(S, r, pot, nl)
        target = grad(r + combined_pot, g.dx)
        assert np.max(np.abs(u - target)) <= 1e-12 * max(1.0, np.max(np.abs(target)))


def test_shifted_gradient_matches_exact_drift_at_alpha_one():
    # with r constant the shift is the whole field; it approximates the
    # analytic V' at interfaces to two-point-stencil accuracy
    g = cd.make_grid(256)
    pot = cd.build_potentials([(1, 0.0, 1.0)], [], g)  # V = sin(2 pi x)
    u = shifted_gradient(np.full(256, 2.0), np.zeros(256), pot, cd.Nonlinearity(1.0))
    exact = 2 * np.pi * np.cos(2 * np.pi * g.interfaces())
    assert np.max(np.abs(u - exact)) <= 1e-3 * 2 * np.pi


def test_shifted_gradient_fast_diffusion_value():
    # S = 4, r = 0, alpha = 1/2: u = -2 w y(4) = 16 w, with y from the
    # quadrature oracle
    from test_model import oracle_shift_profile
    g = cd.make_grid(64)
    pot = cd.build_potentials([(1, 0.0, 1.0)], [], g)
    u = shifted_gradient(np.full(64, 4.0), np.zeros(64), pot, cd.Nonlinearity(0.5))
    assert np.allclose(u, 16.0 * pot.w_fd_int, rtol=1e-14)
    y4 = oracle_shift_profile(0.5, 4.0)
    assert np.max(np.abs(u - (-2.0 * y4) * pot.w_fd_int)) <= 1e-8
