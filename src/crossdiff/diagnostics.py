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
returns one value per leading index: build_report calls it once on the
(T, n) rows of a trajectory's states, bitwise equal to T per-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridSpec, cell_mean, grad, integrate, interface_mean
from .model import ProblemSpec
from .solver import Trajectory
from .transforms import shifted_gradient, to_sum_ratio


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


@dataclass(frozen=True)
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


def make_test_bank(grid: GridSpec, t_final: float, k_max: int = 8) -> TestFunctionBank:
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
    # centered pressure gradient at cells: mean of the two interface values
    dp_cells = cell_mean(grad(nl.pressure(rho + mu), dx))

    flux_rho = rho * (dp_cells + pot.d_cells[0])
    flux_mu = mu * (dp_cells + pot.d_cells[1])

    rows = []
    for phi in bank.phis:
        chi_t = np.array([phi.chi(t) for t in times])
        dchi = np.diff(chi_t)
        for species, dens, flux in (("rho", rho, flux_rho), ("mu", mu, flux_mu)):
            space_mass = dens @ phi.x_vals * dx        # int dens X dx per time
            space_flux = flux @ phi.dx_vals * dx       # int flux X' dx per time
            dt_term = -float(np.sum(0.5 * (space_mass[:-1] + space_mass[1:]) * dchi))
            flux_term = float(np.sum(w_trap * chi_t * space_flux))
            init_term = float(space_mass[0] * chi_t[0])
            rows.append(ResidualRow(phi.phi_id, species,
                                    dt_term + flux_term - init_term))
    res_max = max(abs(r.residual) for r in rows)
    return tuple(rows), res_max


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

    space_lags = _dyadic_lags(n // 4)
    om_space = np.empty((2, len(space_lags)))  # rows rho, mu
    shifted = np.empty_like(rho)  # dens(x + m dx) - dens(x), one row per time
    for i, m in enumerate(space_lags):
        for om, dens in zip(om_space, (rho, mu)):
            np.subtract(dens[:, m:], dens[:, :n - m], out=shifted[:, :n - m])
            np.subtract(dens[:, :m], dens[:, n - m:], out=shifted[:, n - m:])
            diff = np.sum(np.abs(shifted, out=shifted), axis=1) * dx
            om[i] = np.sum(w_trap * diff)

    nt = len(times)
    uniform = nt > 1 and np.allclose(np.diff(times), times[1] - times[0],
                                     rtol=1e-9, atol=1e-12)
    spacing = times[1] - times[0] if uniform else 0.0
    t_lags = _dyadic_lags(nt - 1) if uniform else []
    om_time = np.empty((2, len(t_lags)))
    for i, ell in enumerate(t_lags):
        for om, dens in zip(om_time, (rho, mu)):
            diff = np.sum(np.abs(dens[ell:] - dens[:-ell]), axis=1) * dx
            om[i] = np.sum(diff) * spacing

    return ((np.array([m * dx for m in space_lags]), *om_space),
            (np.array([ell * spacing for ell in t_lags]), *om_time))


# ---------------------------------------------------------------------------
# aggregation


# per-snapshot columns of DiagnosticsReport, in scalars.csv order
SCALAR_COLUMNS = ("mass_rho", "mass_mu", "entropy", "energy", "diss_entropy",
                  "diss_beta_a", "diss_beta_1ma", "fisher_log", "bv_r", "bv_u",
                  "norm_S_2ma", "sup_S_pow", "h_minus_one")


@dataclass(frozen=True)
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
    moduli is off."""
    problem = traj.problem
    alpha = problem.nonlinearity.alpha
    dx = problem.grid.dx
    rho, mu = traj.states[:, 0], traj.states[:, 1]
    if moduli:
        (h, osr, osm), (k, otr, otm) = equicontinuity_moduli(traj)
    else:
        h = osr = osm = k = otr = otm = np.zeros(0)

    if residuals and problem.t_final > 0.0 and len(traj.times) >= 2:
        if bank_k is None:
            bank_k = default_bank_k(problem.grid.n_cells)
        bank = make_test_bank(problem.grid, problem.t_final, bank_k)
        rows, res_max = weak_residual(traj, bank)
    else:
        rows, res_max = (), float("nan")

    # one call per functional over all rows; each frees its (T, n) temporaries
    bv_r, bv_u = bv_norms(rho, mu, problem)
    leb = lebesgue_norms(rho, mu, problem)
    return DiagnosticsReport(
        times=traj.times,
        mass_rho=integrate(rho, dx), mass_mu=integrate(mu, dx),
        entropy=entropy(rho, mu, problem), energy=energy(rho, mu, problem),
        diss_entropy=diss_entropy_rate(rho, mu, problem),
        diss_beta_a=dissipation_beta(rho, mu, problem, alpha).dissipation,
        diss_beta_1ma=dissipation_beta(rho, mu, problem, 1.0 - alpha).dissipation,
        fisher_log=leb.fisher_log, bv_r=bv_r, bv_u=bv_u,
        norm_S_2ma=leb.norm_S_2ma, sup_S_pow=leb.sup_S_pow,
        h_minus_one=leb.h_minus_one,
        omega_space_h=h, omega_space_rho=osr, omega_space_mu=osm,
        omega_time_k=k, omega_time_rho=otr, omega_time_mu=otm,
        residuals=rows, residual_max=res_max,
    )
