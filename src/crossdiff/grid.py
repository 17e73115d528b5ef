"""Uniform periodic grid on the unit torus and the discrete calculus on it.

Cells are indexed 0..n-1 with centers x_i = (i + 1/2)*dx.  Interface i sits
at x = (i+1)*dx, between cells i and i+1 (indices wrap), so cell-centered
fields and interface fields both hold n values.  The stencils and integrate
act on float64 arrays along the last axis, so one copy serves a species
(n,), the solver's state (2, n) and a trajectory (T, 2, n); each stencil is
one slice operation plus the wrap cell, bitwise equal to the same formula
on a rolled copy.  Field (a validated, read-only copy) is for cell values
given from outside, such as a config's inline values, not for the inner
loop.
grad and div are exact summation-by-parts partners: sum_i a_i div(g)_i dx =
-sum_i grad(a)_i g_i dx up to roundoff, and div telescopes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 1) with dx = 1/n_cells."""

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be >= 4, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    def interfaces(self) -> np.ndarray:
        # interface i is the right edge of cell i; the seam maps to x = 0
        return ((np.arange(self.n_cells) + 1) % self.n_cells) * self.dx


def make_grid(n_cells: int) -> GridSpec:
    return GridSpec(int(n_cells))


@dataclass(frozen=True)
class Field:
    """Cell-averaged (or interface-located) scalar field on a GridSpec.

    Values are stored as a read-only float64 copy and must be finite.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(f"expected {self.grid.n_cells} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))


def grad(v: np.ndarray, dx: float) -> np.ndarray:
    """Two-point gradient at interfaces: (v[i+1] - v[i])/dx at interface i."""
    out = np.empty_like(v)
    np.subtract(v[..., 1:], v[..., :-1], out=out[..., :-1])
    out[..., -1] = v[..., 0] - v[..., -1]
    out /= dx
    return out


def div(g: np.ndarray, dx: float) -> np.ndarray:
    """Conservative divergence: (g[i] - g[i-1])/dx in cell i."""
    out = np.empty_like(g)
    np.subtract(g[..., 1:], g[..., :-1], out=out[..., 1:])
    out[..., 0] = g[..., 0] - g[..., -1]
    out /= dx
    return out


def interface_mean(v: np.ndarray) -> np.ndarray:
    """Mean of the two cells beside interface i: (v[i] + v[i+1])/2."""
    out = np.empty_like(v)
    np.add(v[..., :-1], v[..., 1:], out=out[..., :-1])
    out[..., -1] = v[..., -1] + v[..., 0]
    out *= 0.5
    return out


def cell_mean(g: np.ndarray) -> np.ndarray:
    """Mean of the two interfaces beside cell i: (g[i-1] + g[i])/2."""
    out = np.empty_like(g)
    np.add(g[..., 1:], g[..., :-1], out=out[..., 1:])
    out[..., 0] = g[..., 0] + g[..., -1]
    out *= 0.5
    return out


def integrate(v: np.ndarray, dx: float) -> np.ndarray:
    """Midpoint quadrature over the torus of each row, exact for trig
    polynomials of degree < n."""
    return np.sum(v, axis=-1) * dx
