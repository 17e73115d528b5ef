import numpy as np
import pytest

import crossdiff as cd
from crossdiff.grid import Field, cell_mean, div, grad, integrate, interface_mean


def test_make_grid_basic():
    g = cd.make_grid(8)
    assert g.n_cells == 8
    assert g.dx == 0.125
    assert cd.make_grid(256).dx == 1.0 / 256


def test_make_grid_rejects_small():
    with pytest.raises(ValueError):
        cd.make_grid(3)


def test_grid_cell_cap():
    assert cd.GridSpec(2**20).n_cells == 2**20
    with pytest.raises(ValueError, match="n_cells must be <= 1048576, got 1048577"):
        cd.GridSpec(2**20 + 1)


def test_grid_cell_count_is_an_integer():
    assert cd.GridSpec(np.int64(8)).dx == 0.125
    for n in (4.5, 8.0, "8"):
        with pytest.raises(ValueError, match="n_cells must be an integer, got"):
            cd.GridSpec(n)


def test_positions():
    g = cd.make_grid(8)
    assert np.allclose(g.cell_centers(), (np.arange(8) + 0.5) / 8)
    xi = g.interfaces()
    assert xi[0] == 1 / 8 and xi[-1] == 0.0  # seam wraps to x = 0


def test_field_validation():
    g = cd.make_grid(8)
    with pytest.raises(ValueError):
        Field(g, np.ones(7))
    with pytest.raises(ValueError):
        Field(g, [1.0] * 7 + [np.nan])
    f = Field(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # read-only


def test_grad_constant_is_zero():
    g = cd.make_grid(32)
    assert np.all(grad(np.full(32, 3.7), g.dx) == 0.0)


def test_grad_cosine_matches_analytic_derivative():
    g = cd.make_grid(256)
    x = g.cell_centers()
    got = grad(np.cos(2 * np.pi * x), g.dx)
    exact = -2 * np.pi * np.sin(2 * np.pi * g.interfaces())
    assert np.max(np.abs(got - exact)) <= 1e-3 * 2 * np.pi
    # the two-point stencil equals the midpoint derivative damped by
    # sin(pi dx)/(pi dx), exactly
    damp = np.sin(np.pi * g.dx) / (np.pi * g.dx)
    assert np.max(np.abs(got - damp * exact)) <= 1e-12 * 2 * np.pi


def test_grad_two_level_field():
    g = cd.make_grid(16)
    vals = np.where(np.arange(16) < 5, 1.0, 3.0)
    got = grad(vals, g.dx)
    expected = np.zeros(16)
    expected[4] = 2.0 / g.dx    # jump between cells 4 and 5
    expected[15] = -2.0 / g.dx  # wrap jump between cells 15 and 0
    assert np.array_equal(got, expected)


def test_div_constant_flux_is_zero():
    g = cd.make_grid(32)
    assert np.all(div(np.full(32, -2.5), g.dx) == 0.0)


def test_div_telescopes_to_zero():
    rng = np.random.default_rng(7)
    g = cd.make_grid(64)
    for _ in range(20):
        gf = rng.normal(size=64)
        total = integrate(div(gf, g.dx), g.dx)
        assert abs(total) <= 1e-14 * max(1.0, np.max(np.abs(gf)))


def test_div_unit_spike():
    g = cd.make_grid(16)
    spike = np.zeros(16)
    spike[5] = 1.0
    got = div(spike, g.dx)
    assert got[5] == 1.0 / g.dx
    assert got[6] == -1.0 / g.dx
    assert np.count_nonzero(got) == 2


def test_integrate_examples():
    g = cd.make_grid(64)
    x = g.cell_centers()
    assert integrate(np.full(64, 4.2), g.dx) == pytest.approx(4.2, abs=1e-14)
    assert abs(integrate(np.sin(2 * np.pi * x), g.dx)) <= 1e-15
    assert integrate(1 + 0.5 * np.cos(2 * np.pi * x), g.dx) == pytest.approx(
        1.0, abs=1e-14)
    # one value per row, each equal to the row's own quadrature
    rows = np.stack([np.full(64, 4.2), np.sin(2 * np.pi * x)])
    assert np.array_equal(integrate(rows, g.dx),
                          [integrate(rows[0], g.dx), integrate(rows[1], g.dx)])


def test_interface_mean_two_level_field():
    vals = np.where(np.arange(16) < 5, 1.0, 3.0)
    expected = vals.copy()
    expected[4] = expected[15] = 2.0  # the interfaces beside the two jumps
    assert np.array_equal(interface_mean(vals), expected)


def test_summation_by_parts():
    rng = np.random.default_rng(11)
    g = cd.make_grid(48)
    for _ in range(25):
        a = rng.normal(size=48)
        gf = rng.normal(size=48)
        lhs = np.sum(a * div(gf, g.dx)) * g.dx
        rhs = -np.sum(grad(a, g.dx) * gf) * g.dx
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_shift_isometry_and_commutation():
    rng = np.random.default_rng(13)
    g = cd.make_grid(32)
    f = Field(g, rng.normal(size=32))
    for m in (1, 5, 31):
        shifted = Field(g, np.roll(f.values, m))
        assert integrate(np.abs(shifted.values), g.dx) == pytest.approx(
            integrate(np.abs(f.values), g.dx), abs=1e-14)
        assert np.array_equal(grad(shifted.values, g.dx),
                              np.roll(grad(f.values, g.dx), m))


def _grad_roll(v, dx):
    return (np.roll(v, -1) - v) / dx


def _div_roll(g, dx):
    return (g - np.roll(g, 1)) / dx


def _interface_mean_roll(v):
    return 0.5 * (v + np.roll(v, -1))


def _cell_mean_roll(g):
    return 0.5 * (g + np.roll(g, 1))


@pytest.mark.parametrize("n", (4, 5, 512))
def test_slice_stencils_match_roll_formulas_bitwise(n):
    """The slice stencils compute the np.roll formulas above bit for bit,
    the wrap cell and signed zeros included."""
    rng = np.random.default_rng(n)
    dx = cd.make_grid(n).dx
    for v in (rng.normal(size=n), rng.uniform(1e-8, 1e3, n) * 10.0 ** rng.integers(-8, 8, n),
              np.where(rng.random(n) < 0.5, 0.0, -0.0)):
        v.setflags(write=False)  # stencils must not write to their input
        for got, want in ((grad(v, dx), _grad_roll(v, dx)),
                          (div(v, dx), _div_roll(v, dx)),
                          (interface_mean(v), _interface_mean_roll(v)),
                          (cell_mean(v), _cell_mean_roll(v))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", (4, 5, 64))
def test_stencils_act_on_the_last_axis(n):
    """On (T, n) rows, and on the strided rho/mu rows of a (T, 2, n) state
    array, each stencil gives row for row the bits of the 1-D call."""
    rng = np.random.default_rng(100 + n)
    dx = cd.make_grid(n).dx
    states = rng.uniform(0.1, 3.0, (7, 2, n))
    states.setflags(write=False)
    for rows in (states[:, 0], states[:, 1], states.reshape(14, n)):
        for stencil in (lambda v: grad(v, dx), lambda v: div(v, dx),
                        interface_mean, cell_mean):
            got = stencil(rows)
            want = np.stack([stencil(np.ascontiguousarray(r)) for r in rows])
            assert got.shape == rows.shape
            assert got.tobytes() == want.tobytes()
