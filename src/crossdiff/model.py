"""Problem data: the fast-diffusion nonlinearity family, trigonometric
potential pairs with exact derivative tables, and the checked problem
whose initial state is one (2, n) array u0 = [rho0; mu0].

The nonlinearity is the power family with exponent alpha in (0, 1]:

    kirchhoff(s)   = s^alpha            (aggregate diffusion flux potential)
    diffusivity(s) = alpha s^(alpha-1)  (= s * pressure_slope(s))
    pressure(s)    = log s                       for alpha = 1
                   = -(alpha/(1-alpha)) s^(alpha-1)  for alpha < 1
    energy_density(s) = s log s - s     (alpha = 1),  s^alpha/(alpha-1) else
    shift_profile(s)  = -s^(1-alpha)/alpha^2  (constant -1 when alpha = 1)

The pressure integration constant is fixed so pressure(1) = 0 for alpha = 1
and pressure(+inf) = 0 for alpha < 1; only its gradient enters the dynamics.
All evaluations clamp the argument below at s_floor, a numerical guard for
the singular derivatives near zero density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, grad

Mode = tuple[int, float, float]  # (wavenumber k, cosine coeff, sine coeff)


@dataclass(frozen=True)
class Nonlinearity:
    alpha: float
    s_floor: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha out of range (0,1]: got {self.alpha}")
        if not (self.s_floor > 0.0):
            raise ValueError(f"s_floor must be positive, got {self.s_floor}")

    def _clamped(self, s):
        return np.maximum(np.asarray(s, dtype=float), self.s_floor)

    def clamp_count(self, s) -> int:
        """Number of entries that would be clamped up to s_floor."""
        return int(np.count_nonzero(np.asarray(s, dtype=float) < self.s_floor))

    def energy_density(self, s):
        s = self._clamped(s)
        if self.alpha == 1.0:
            return s * np.log(s) - s
        return s**self.alpha / (self.alpha - 1.0)

    def pressure(self, s):
        s = self._clamped(s)
        if self.alpha == 1.0:
            return np.log(s)
        return -(self.alpha / (1.0 - self.alpha)) * s ** (self.alpha - 1.0)

    def pressure_slope(self, s):
        s = self._clamped(s)
        return self.alpha * s ** (self.alpha - 2.0)

    def kirchhoff(self, s):
        s = self._clamped(s)
        return s**self.alpha

    def diffusivity(self, s):
        s = self._clamped(s)
        return self.alpha * s ** (self.alpha - 1.0)

    def shift_profile(self, s):
        s = self._clamped(s)
        if self.alpha == 1.0:
            return np.full_like(s, -1.0)
        return -(s ** (1.0 - self.alpha)) / self.alpha**2


def _trig_eval(modes, x: np.ndarray, order: int) -> np.ndarray:
    """order-th exact derivative of sum_k a cos(2 pi k x) + b sin(2 pi k x)."""
    out = np.zeros_like(x)
    for k, a, b in modes:
        w = 2.0 * np.pi * k
        ca, cb = float(a), float(b)
        for _ in range(order):
            # d/dx [ca cos(wx) + cb sin(wx)] = (cb w) cos(wx) + (-ca w) sin(wx)
            ca, cb = w * cb, -w * ca
        out += ca * np.cos(w * x) + cb * np.sin(w * x)
    return out


def check_modes(modes, grid: GridSpec, name: str) -> tuple[Mode, ...]:
    """Mode triples with wavenumbers in [0, n/4], as (int, float, float)."""
    checked = tuple((int(k), float(a), float(b)) for k, a, b in modes)
    for k, _, _ in checked:
        if k < 0:
            raise ValueError(f"{name}: negative wavenumber {k}")
        if k > grid.n_cells // 4:
            raise ValueError(f"{name}: mode exceeds n/4 (k={k}, n={grid.n_cells})")
    return checked


@dataclass(frozen=True, eq=False)
class PotentialPair:
    """Two potentials given by finite trigonometric sums, with exact value
    and derivative tables.  Each table is one read-only (2, n) array, V in
    row 0 and W in row 1: cells = [V; W], d_cells = [V'; W'] and d2_cells =
    [V''; W''] at cell centers, and drift = [V'; W'] at interfaces, the
    solver's species drift.  sup_drift is the largest |V'| or |W'| in
    d_cells and drift.

    w_fd_int is the two-point gradient of the cell samples of (V - W)/2; it
    is the interface shift used by the shifted log-ratio gradient so that
    the alpha = 1 collapse onto grad(r + V - W) is exact at the discrete
    level.
    """

    grid: GridSpec
    modes_V: tuple[Mode, ...]
    modes_W: tuple[Mode, ...]
    cells: np.ndarray
    d_cells: np.ndarray
    d2_cells: np.ndarray
    drift: np.ndarray
    w_fd_int: np.ndarray
    sup_drift: float


def build_potentials(modes_V, modes_W, grid: GridSpec) -> PotentialPair:
    """Assemble all potential tables by term-wise differentiation (no
    numerical differentiation except the dedicated two-point w_fd_int)."""
    mv = check_modes(modes_V, grid, "V")
    mw = check_modes(modes_W, grid, "W")

    def table(x: np.ndarray, order: int) -> np.ndarray:
        return np.stack((_trig_eval(mv, x, order), _trig_eval(mw, x, order)))

    xc = grid.cell_centers()
    cells, d_cells, d2_cells = table(xc, 0), table(xc, 1), table(xc, 2)
    drift = table(grid.interfaces(), 1)
    w_fd_int = grad(0.5 * (cells[0] - cells[1]), grid.dx)
    sup_drift = float(max(np.max(np.abs(d_cells), initial=0.0),
                          np.max(np.abs(drift), initial=0.0)))
    for arr in (cells, d_cells, d2_cells, drift, w_fd_int):
        arr.setflags(write=False)
    return PotentialPair(grid=grid, modes_V=mv, modes_W=mw, cells=cells,
                         d_cells=d_cells, d2_cells=d2_cells, drift=drift,
                         w_fd_int=w_fd_int, sup_drift=sup_drift)


def check_initial(u0, grid: GridSpec) -> np.ndarray:
    """The initial state [rho0; mu0] as a read-only float64 (2, n) copy;
    every value must be finite and positive."""
    u = np.array(u0, dtype=float)
    if u.shape != (2, grid.n_cells):
        raise ValueError(f"initial state must have shape (2, {grid.n_cells}), "
                         f"got {u.shape}")
    for name, v in zip(("rho0", "mu0"), u):
        bad = np.flatnonzero(~np.isfinite(v) | (v <= 0.0))
        if bad.size:
            i = bad[0]
            kind = "nonpositive" if np.isfinite(v[i]) else "non-finite"
            raise ValueError(f"{name}: {kind} density at cell {i}")
    u.setflags(write=False)
    return u


STEPPERS = ("explicit", "semi-implicit")


def check_time(t_final: float, snapshot_times, stepper: str, cfl_safety: float,
               eps_viscosity: float) -> tuple[float, ...]:
    """Check a problem's time data; return snapshot_times as floats.  They
    must increase from 0 to t_final, the ends within 1e-12 * max(1, t_final)."""
    if not 0.0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if not 0.0 <= eps_viscosity < np.inf:
        raise ValueError(f"eps_viscosity must be finite and nonnegative, got {eps_viscosity}")
    if stepper not in STEPPERS:
        raise ValueError(f"stepper must be one of {STEPPERS}, got {stepper!r}")
    if not (0.0 < cfl_safety <= 1.0):
        raise ValueError(f"cfl_safety must lie in (0, 1], got {cfl_safety}")
    ts = tuple(float(t) for t in snapshot_times)
    if not ts:
        raise ValueError("snapshot_times must be nonempty")
    tol = 1e-12 * max(1.0, t_final)
    if not abs(ts[0]) <= tol:
        raise ValueError(f"snapshot_times must start at 0, got {ts[0]}")
    if not abs(ts[-1] - t_final) <= tol:
        raise ValueError(f"snapshot_times must end at t_final {t_final}, got {ts[-1]}")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise ValueError(f"snapshot_times must be strictly increasing, got {b} after {a}")
    return ts


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A complete, validated problem: grid, model data, the initial state
    u0 = [rho0; mu0] checked by check_initial, horizon and stepper policy,
    the time data checked by check_time."""

    grid: GridSpec
    nonlinearity: Nonlinearity
    potentials: PotentialPair
    u0: np.ndarray
    t_final: float
    snapshot_times: tuple[float, ...]
    eps_viscosity: float = 0.0
    stepper: str = "explicit"
    cfl_safety: float = 0.5

    def __post_init__(self):
        ts = check_time(self.t_final, self.snapshot_times, self.stepper,
                        self.cfl_safety, self.eps_viscosity)
        if self.potentials.grid != self.grid:
            raise ValueError("grid mismatch between problem components")
        object.__setattr__(self, "u0", check_initial(self.u0, self.grid))
        object.__setattr__(self, "snapshot_times", ts)
