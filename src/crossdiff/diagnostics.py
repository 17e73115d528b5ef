"""Functionals controlled by the a priori estimates, weak-form residuals,
and translation-equicontinuity moduli, evaluated on solver trajectories.

Conventions.  Grid total variation sum_i |r_{i+1} - r_i| stands in for the
BV seminorm of the log-ratio (exact for the piecewise-constant
reconstruction).  The dissipation reported by dissipation_beta is the
retained half after absorbing the drift by Young's inequality,

    2 a b (1-b) / (a+b-1)^2 * int |grad S^((a+b-1)/2)|^2      (a+b != 1)
    a b (1-b) / 2           * int |grad log S|^2              (a+b == 1)

with a = alpha, b = beta (the two branches agree in the limit a+b -> 1);
its companion bound is C int S^(b+1-a) with C = b(1-b) M^2 / (2a) and
M = sup_drift, the grid sup of |V'|, |W'|.  The negative H^-1 diagnostic uses the
standard Fourier multiplier with exponent one.

Each functional takes (rho, mu, problem) with cells on the last axis and
returns one value per leading index, bitwise equal to one call per row.
build_report calls each on blocks of max(1, 2^14 // n) of a trajectory's T
snapshots and joins the blocks' values, so its temporaries hold about 2^14
values (128 KiB an array), not T n; the moduli and the weak residual's
pressure gradient work by blocks too.  The size is set by peak memory: at
T = 401, n = 2048 the temporaries take 1.8 MiB, against 2.9 MiB with
blocks of 2^16 and 1.6 MiB with blocks of 2^13.  The residual's matmuls
alone take whole (T, n) operands,
as OpenBLAS gemv is not bitwise stable across row counts (at n = 2048,
blocks of 16 rows differ from the whole call in the last bit), so the
residual holds one (T, n) array, each species' flux in turn, filled block
by block with the pressure gradient formed again for each species.
build_report runs its independent parts on every CPU this process may use
(`_chunks.in_chunks`) once the states hold 2^18 values, each part on all T
rows, so the report holds the same bits on any CPU count and block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._chunks import in_chunks
from .grid import GridSpec, cell_mean, grad, integrate, interface_mean
from .model import ProblemSpec
from .solver import Trajectory
from .transforms import shifted_gradient, to_sum_ratio


# the values (rows x n) of one block of rows that the row-wise parts work on,
# sized for peak memory: 8 rows at n = 2048
_BLOCK_VALUES = 2**14


def _blocks(rows: np.ndarray, start: int = 0) -> list[tuple[int, int]]:
    """(lo, hi) of each block of max(1, _BLOCK_VALUES // n) rows of a (T, n)
    array from row start on, in order; one empty block when T is 0."""
    count, n = rows.shape
    step = max(1, _BLOCK_VALUES // n)
    return [(lo, min(lo + step, count)) for lo in range(start, max(count, 1), step)]


def _by_blocks(fields: Callable, rho: np.ndarray, mu: np.ndarray) -> dict:
    """fields(rho[lo:hi], mu[lo:hi]) on each block, each field concatenated."""
    blocks = [fields(rho[lo:hi], mu[lo:hi]) for lo, hi in _blocks(rho)]
    return {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}


def entropy(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec) -> np.ndarray:
    return integrate(rho * np.log(rho) + mu * np.log(mu), problem.grid.dx)


def energy(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec) -> np.ndarray:
    """Gradient-flow energy int energy_density(S) + rho V + mu W."""
    nl, pot = problem.nonlinearity, problem.potentials
    dens = nl.energy_density(rho + mu) + rho * pot.cells[0] + mu * pot.cells[1]
    return integrate(dens, problem.grid.dx)


class DissipationBeta(NamedTuple):
    beta_entropy: np.ndarray  # -int S^beta, the functional whose rate is bounded
    dissipation: np.ndarray
    rhs_bound: np.ndarray


def dissipation_beta(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec,
                     beta: float) -> DissipationBeta:
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta out of range [0,1]: got {beta}")
    alpha = problem.nonlinearity.alpha
    dx = problem.grid.dx
    S = rho + mu
    beta_entropy = -integrate(S**beta, dx)
    m = alpha + beta - 1.0
    if beta in (0.0, 1.0):
        diss = np.zeros(S.shape[:-1])
    elif m == 0.0:
        g = grad(np.log(S), dx)
        diss = (alpha * beta * (1.0 - beta) / 2.0) * integrate(g * g, dx)
    else:
        g = grad(S ** (m / 2.0), dx)
        diss = (2.0 * alpha * beta * (1.0 - beta) / m**2) * integrate(g * g, dx)
    c_young = beta * (1.0 - beta) * problem.potentials.sup_drift**2 / (2.0 * alpha)
    rhs = c_young * integrate(S ** (beta + 1.0 - alpha), dx)
    return DissipationBeta(beta_entropy, diss, rhs)


def bv_norms(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec
             ) -> tuple[np.ndarray, np.ndarray]:
    """(bv_r, bv_u): total variation of the log-ratio and the L1 norm of the
    shifted log-ratio gradient."""
    S, r = to_sum_ratio(rho, mu)
    bv_r = np.sum(np.abs(grad(r, 1.0)), axis=-1)
    u = shifted_gradient(S, r, problem.potentials, problem.nonlinearity)
    bv_u = integrate(np.abs(u), problem.grid.dx)
    return bv_r, bv_u


class LebesgueNorms(NamedTuple):
    norm_S_2ma: np.ndarray   # int S^(2-alpha)
    sup_S_pow: np.ndarray    # max S^(1-alpha)
    fisher_log: np.ndarray   # int |grad log S|^2
    h_minus_one: np.ndarray  # ||S - mean(S)||_{H^-1}


def lebesgue_norms(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec
                   ) -> LebesgueNorms:
    alpha = problem.nonlinearity.alpha
    dx = problem.grid.dx
    n = problem.grid.n_cells
    S = rho + mu
    norm_2ma = integrate(S ** (2.0 - alpha), dx)
    # a scalar pow per row: numpy's array power can differ from it in the last bit
    sup = np.max(S, axis=-1)
    sup_pow = np.reshape([m ** (1.0 - alpha) for m in sup.ravel().tolist()], sup.shape)
    g = grad(np.log(S), dx)
    fisher = integrate(g * g, dx)
    # Fourier coefficients at the cell centers (phase-corrected rfft)
    k = np.arange(1, n // 2 + 1)
    spec = np.fft.rfft(S, axis=-1)[..., 1:n // 2 + 1] * np.exp(-1j * np.pi * k / n)
    coef_sq = (2.0 * dx) ** 2 * np.abs(spec) ** 2
    if n % 2 == 0:  # the Nyquist bin is one real mode, of amplitude |X_k|/n
        coef_sq[..., -1] *= 0.25
    h_m1 = np.sqrt(np.sum(coef_sq / (2.0 * (2.0 * np.pi * k) ** 2), axis=-1))
    return LebesgueNorms(norm_2ma, sup_pow, fisher, h_m1)


def diss_entropy_rate(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec
                      ) -> np.ndarray:
    """Entropy dissipation int pressure_slope(S) |grad S|^2 with S averaged
    onto interfaces."""
    dx = problem.grid.dx
    S = rho + mu
    g = grad(S, dx)
    return integrate(problem.nonlinearity.pressure_slope(interface_mean(S)) * g * g, dx)


# ---------------------------------------------------------------------------
# weak-form residuals


@dataclass(frozen=True, eq=False)
class PhiSpec:
    phi_id: str
    x_vals: np.ndarray    # spatial factor at cell centers
    dx_vals: np.ndarray   # its exact derivative at cell centers
    chi: Callable[[float], float]


@dataclass(frozen=True)
class TestFunctionBank:
    """Separable test functions phi(t, x) = X(x) chi_j(t) with X a trig mode
    of wavenumber <= k_max and chi_j raised-cosine cutoffs that equal 1 at
    t = 0 and vanish identically on the final eighth of [0, T]."""

    grid: GridSpec
    t_final: float
    k_max: int
    phis: tuple[PhiSpec, ...]


def _raised_cosine(t_on: float, t_off: float) -> Callable[[float], float]:
    def chi(t: float) -> float:
        if t <= t_on:
            return 1.0
        if t >= t_off:
            return 0.0
        return 0.5 * (1.0 + np.cos(np.pi * (t - t_on) / (t_off - t_on)))
    return chi


def default_bank_k(n_cells: int) -> int:
    """Modes in the default test bank of an n-cell grid: 8, capped at n/4."""
    return min(8, n_cells // 4)


def make_test_bank(grid: GridSpec, t_final: float, k_max: int) -> TestFunctionBank:
    if k_max > grid.n_cells // 4:
        raise ValueError(
            f"test bank k_max exceeds n/4 (k_max={k_max}, n={grid.n_cells})")
    if t_final <= 0.0:
        raise ValueError("test bank needs a positive horizon")
    xc = grid.cell_centers()
    profiles = [
        ("chi1", _raised_cosine(0.5 * t_final, 0.875 * t_final)),
        ("chi2", _raised_cosine(0.125 * t_final, 0.5 * t_final)),
    ]
    phis = []
    for tag, chi in profiles:
        phis.append(PhiSpec(f"cos0_{tag}", np.ones_like(xc), np.zeros_like(xc), chi))
        for k in range(1, k_max + 1):
            w = 2.0 * np.pi * k
            phis.append(PhiSpec(f"cos{k}_{tag}", np.cos(w * xc), -w * np.sin(w * xc), chi))
            phis.append(PhiSpec(f"sin{k}_{tag}", np.sin(w * xc), w * np.cos(w * xc), chi))
    return TestFunctionBank(grid, float(t_final), int(k_max), tuple(phis))


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the snapshot times (all zero for one snapshot)."""
    widths = np.diff(times)
    w = np.zeros_like(times)
    w[:-1] += 0.5 * widths
    w[1:] += 0.5 * widths
    return w


class ResidualRow(NamedTuple):
    phi_id: str
    species: str
    residual: float


def weak_residual(traj: Trajectory, bank: TestFunctionBank
                  ) -> tuple[tuple[ResidualRow, ...], float]:
    """Residual of the weak formulation for every test function and species.

    Space: midpoint quadrature with analytic X, X'.  Time: trapezoid weights
    for the flux terms; the time-derivative term pairs interval-averaged
    densities with exact chi increments (discrete integration by parts), so
    a constant zero-flux state telescopes to residual zero exactly.
    """
    times = traj.times
    if len(times) < 2:
        raise ValueError("weak residual needs at least 2 snapshots")
    problem = traj.problem
    nl, pot = problem.nonlinearity, problem.potentials
    dx = problem.grid.dx
    w_trap = _trapezoid_weights(times)

    rho, mu = traj.states[:, 0], traj.states[:, 1]
    chis = [np.array([phi.chi(t) for t in times]) for phi in bank.phis]
    flux = np.empty_like(rho)  # each species' flux in turn
    rows = [None] * (2 * len(chis))  # for each test function, rho then mu
    for k, (species, dens) in enumerate((("rho", rho), ("mu", mu))):
        for lo, hi in _blocks(rho):
            # centered pressure gradient at cells: mean of the two interface values
            dp = cell_mean(grad(nl.pressure(rho[lo:hi] + mu[lo:hi]), dx))
            np.multiply(dens[lo:hi], np.add(dp, pot.d_cells[k], out=dp), out=flux[lo:hi])
        for j, (phi, chi_t) in enumerate(zip(bank.phis, chis)):
            space_mass = dens @ phi.x_vals * dx        # int dens X dx per time
            space_flux = flux @ phi.dx_vals * dx       # int flux X' dx per time
            dchi = np.diff(chi_t)
            dt_term = -float(np.sum(0.5 * (space_mass[:-1] + space_mass[1:]) * dchi))
            flux_term = float(np.sum(w_trap * chi_t * space_flux))
            init_term = float(space_mass[0] * chi_t[0])
            rows[2 * j + k] = ResidualRow(phi.phi_id, species,
                                          dt_term + flux_term - init_term)
    return tuple(rows), max(abs(r.residual) for r in rows)


# ---------------------------------------------------------------------------
# equicontinuity moduli


def _dyadic_lags(limit: int) -> list[int]:
    """1, 2, 4, ... up to limit."""
    return [2**j for j in range(limit.bit_length())]


def equicontinuity_moduli(traj: Trajectory):
    """Time-integrated translation moduli of both species.

    omega_space(h): int_0^T int |rho(t, x+h) - rho(t, x)| dx dt on dyadic
    lags h = dx, 2dx, ..., <= 1/4 (trapezoid in time).  omega_time(k): the
    analogous time-translate integral on dyadic multiples of the snapshot
    spacing; empty when the spacing is not uniform (no interpolation).
    Returns ((h, om_rho, om_mu), (k, om_rho, om_mu)).
    """
    grid = traj.problem.grid
    n, dx = grid.n_cells, grid.dx
    times = traj.times
    rho, mu = traj.states[:, 0], traj.states[:, 1]
    w_trap = _trapezoid_weights(times)

    buf = np.empty((_blocks(rho)[0][1], n))  # one block of translate-minus-state rows

    def l1_rows(dens, lag, m):
        """int |dens(t_j, x + m dx) - dens(t_{j-lag}, x)| dx for j >= lag."""
        out = np.empty(len(dens) - lag)
        for lo, hi in _blocks(dens, lag):
            a, b, d = dens[lo:hi], dens[lo - lag:hi - lag], buf[:hi - lo]
            np.subtract(a[:, m:], b[:, :n - m], out=d[:, :n - m])
            np.subtract(a[:, :m], b[:, n - m:], out=d[:, n - m:])
            out[lo - lag:hi - lag] = np.sum(np.abs(d, out=d), axis=1) * dx
        return out

    space_lags = _dyadic_lags(n // 4)
    om_space = np.empty((2, len(space_lags)))  # rows rho, mu
    for i, m in enumerate(space_lags):
        for om, dens in zip(om_space, (rho, mu)):
            om[i] = np.sum(w_trap * l1_rows(dens, 0, m))

    nt = len(times)
    uniform = nt > 1 and np.allclose(np.diff(times), times[1] - times[0],
                                     rtol=1e-9, atol=1e-12)
    spacing = times[1] - times[0] if uniform else 0.0
    t_lags = _dyadic_lags(nt - 1) if uniform else []
    om_time = np.empty((2, len(t_lags)))
    for i, ell in enumerate(t_lags):
        for om, dens in zip(om_time, (rho, mu)):
            om[i] = np.sum(l1_rows(dens, ell, 0)) * spacing

    return ((np.array([m * dx for m in space_lags]), *om_space),
            (np.array([ell * spacing for ell in t_lags]), *om_time))


# ---------------------------------------------------------------------------
# aggregation


# per-snapshot columns of DiagnosticsReport, in scalars.csv order
SCALAR_COLUMNS = ("mass_rho", "mass_mu", "entropy", "energy", "diss_entropy",
                  "diss_beta_a", "diss_beta_1ma", "fisher_log", "bv_r", "bv_u",
                  "norm_S_2ma", "sup_S_pow", "h_minus_one")
# the fewest state values for which build_report forks: on a 2-vCPU host a
# fork and its copy-on-write faults cost 10-13 ms, which smaller reports lose
_FORK_MIN_VALUES = 2**18
_MODULI_FIELDS = ("omega_space_h", "omega_space_rho", "omega_space_mu",
                 "omega_time_k", "omega_time_rho", "omega_time_mu")


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    times: np.ndarray
    mass_rho: np.ndarray
    mass_mu: np.ndarray
    entropy: np.ndarray
    energy: np.ndarray
    diss_entropy: np.ndarray
    diss_beta_a: np.ndarray
    diss_beta_1ma: np.ndarray
    fisher_log: np.ndarray
    bv_r: np.ndarray
    bv_u: np.ndarray
    norm_S_2ma: np.ndarray
    sup_S_pow: np.ndarray
    h_minus_one: np.ndarray
    omega_space_h: np.ndarray
    omega_space_rho: np.ndarray
    omega_space_mu: np.ndarray
    omega_time_k: np.ndarray
    omega_time_rho: np.ndarray
    omega_time_mu: np.ndarray
    residuals: tuple[ResidualRow, ...]
    residual_max: float


def build_report(traj: Trajectory, bank_k: int | None = None, residuals: bool = True,
                 moduli: bool = True) -> DiagnosticsReport:
    """The diagnostics report of a trajectory: every per-snapshot functional;
    weak residuals against make_test_bank(grid, t_final, bank_k), bank_k
    defaulting to default_bank_k(n), unless residuals is off or the run has
    no horizon (t_final 0 or one snapshot); equicontinuity moduli unless
    moduli is off.  The parts run on every usable CPU (see above)."""
    problem = traj.problem
    alpha = problem.nonlinearity.alpha
    dx = problem.grid.dx
    rho, mu = traj.states[:, 0], traj.states[:, 1]
    fields = {**dict.fromkeys(_MODULI_FIELDS, np.zeros(0)),
              "residuals": (), "residual_max": float("nan")}
    bank = None
    if residuals and problem.t_final > 0.0 and len(traj.times) >= 2:
        if bank_k is None:
            bank_k = default_bank_k(problem.grid.n_cells)
        # the one call that raises on a trajectory, so made before any fork
        bank = make_test_bank(problem.grid, problem.t_final, bank_k)

    def bv(r, m):
        return dict(zip(("bv_r", "bv_u"), bv_norms(r, m, problem)))

    def other_scalars(r, m):
        return dict(
            mass_rho=integrate(r, dx), mass_mu=integrate(m, dx),
            entropy=entropy(r, m, problem), energy=energy(r, m, problem),
            diss_entropy=diss_entropy_rate(r, m, problem),
            diss_beta_a=dissipation_beta(r, m, problem, alpha).dissipation,
            diss_beta_1ma=dissipation_beta(r, m, problem, 1.0 - alpha).dissipation)

    # (weight, part, on), weights in proportion to each part's measured cost: in
    # this order the heaviest of two chunks holds 13/24 of the work.  Parts look
    # their functionals up here when run, so bench/trace_cli.py records the
    # parent's, one span per block: 51 blocks of 8 rows at T = 401, n = 2048,
    # about 4x the spans that blocks of 2^16 values gave (13 of 32 rows).
    parts = [(weight, part) for weight, part, on in (
        (4, lambda: _by_blocks(bv, rho, mu), True),
        (9, lambda: dict(zip(_MODULI_FIELDS, sum(equicontinuity_moduli(traj), ()))), moduli),
        (5, lambda: dict(zip(("residuals", "residual_max"), weak_residual(traj, bank))),
         bank is not None),
        (2, lambda: _by_blocks(lambda r, m: lebesgue_norms(r, m, problem)._asdict(), rho, mu),
         True),
        (4, lambda: _by_blocks(other_scalars, rho, mu), True)) if on]

    def work(lo: int, hi: int) -> list[dict]:
        return [part() for _, part in parts[lo:hi]]

    forks = traj.states.size >= _FORK_MIN_VALUES
    chunks = in_chunks(work, [w for w, _ in parts]) if forks else [work(0, len(parts))]
    for chunk in chunks:
        for part_fields in chunk:
            fields.update(part_fields)
    return DiagnosticsReport(times=traj.times, **fields)
