"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np

import crossdiff as cd


def heat_problem(n: int, snaps: int = 17, t_final: float = 0.05,
                 cfl: float = 0.5) -> cd.ProblemSpec:
    """Equal species, alpha=1, no potentials: S solves the heat equation."""
    g = cd.make_grid(n)
    return cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(1.0),
        potentials=cd.build_potentials([], [], g),
        u0=heat_sampler(g),
        t_final=t_final, snapshot_times=tuple(np.linspace(0.0, t_final, snaps)),
        cfl_safety=cfl)


def heat_reference(t: float, x: np.ndarray) -> np.ndarray:
    """Closed-form total density for heat_problem."""
    return 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t) * np.cos(2.0 * np.pi * x)


def heat_sampler(grid: cd.GridSpec) -> np.ndarray:
    """Initial state [rho0; mu0] of heat_problem on grid."""
    half = 0.5 * (1.0 + 0.5 * np.cos(2 * np.pi * grid.cell_centers()))
    return np.stack((half, half))


def fast_problem(n: int, snaps: int = 21, t_final: float = 0.05,
                 stepper: str = "explicit", eps: float = 0.0) -> cd.ProblemSpec:
    """alpha=1/2, V=sin(2 pi x), W=cos(2 pi x), equal smooth species."""
    g = cd.make_grid(n)
    x = g.cell_centers()
    f0 = 0.5 + 0.2 * np.cos(2 * np.pi * x)
    return cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(0.5),
        potentials=cd.build_potentials([(1, 0.0, 1.0)], [(1, 1.0, 0.0)], g),
        u0=np.stack((f0, f0)),
        t_final=t_final, snapshot_times=tuple(np.linspace(0.0, t_final, snaps)),
        stepper=stepper, eps_viscosity=eps)


def stationary_problem(n: int = 128, t_final: float = 0.1,
                       snaps: int = 11) -> cd.ProblemSpec:
    """Constant-sum pair with no potentials: an exact steady state."""
    g = cd.make_grid(n)
    x = g.cell_centers()
    rho0 = 0.5 + 0.25 * np.cos(2 * np.pi * x)
    return cd.ProblemSpec(
        grid=g, nonlinearity=cd.Nonlinearity(0.5),
        potentials=cd.build_potentials([], [], g),
        u0=np.stack((rho0, 1.0 - rho0)),
        t_final=t_final, snapshot_times=tuple(np.linspace(0.0, t_final, snaps)))


def random_positive_pair(grid: cd.GridSpec, rng: np.random.Generator,
                         lo: float = 0.2, hi: float = 2.0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Cell arrays (rho, mu) drawn uniformly from [lo, hi)."""
    return rng.uniform(lo, hi, grid.n_cells), rng.uniform(lo, hi, grid.n_cells)
