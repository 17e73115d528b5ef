"""Conservative, positivity-preserving time integration of the two-species
cross-diffusion system

    d/dt rho = d/dx(rho d/dx pressure(S)) + d/dx(rho V') + eps rho_xx
    d/dt mu  = d/dx(mu  d/dx pressure(S)) + d/dx(mu  W') + eps mu_xx

with S = rho + mu.  The scheme advances the species pair (conservation and
positivity are then structural); the S and r equations are verified as
diagnostics, not used for stepping.

Flux convention: with velocity a = grad(pressure(S)) + V' at interfaces
(interface_velocities), the update is rho <- rho + dt * div(F),
F = rho_up * a + eps * grad(rho), where rho_up is the donor cell of the
transport direction -a (rho_i when a < 0, rho_{i+1} otherwise); the eps
term is skipped at eps = 0, where it would add +-0.0.  The
semi-implicit stepper keeps only the potential drift explicit and solves
the stiff aggregate diffusion S - dt * Lap(kirchhoff(S) + eps S) = S_drift
by damped Newton, splitting the diffusive interface flux between the
species by their donor-cell mobility fractions (exactly conservative per
species).  Each Newton iteration is one O(n) periodic tridiagonal solve:
LAPACK gtsv on the Jacobian without its corners, plus a Sherman-Morrison
correction for them.

cfl_dt and advance act on plain float64 cell arrays of rho and mu, and a
step evaluates the velocities once: cfl_dt(rho, mu, problem) returns
(dt, velocities), with the same pressure power giving the diffusive bound,
and advance(rho, mu, velocities, t, dt, problem) transports with them.
run calls the pair once per step and copies each snapshot it keeps into
one preallocated (T, 2, n) array, rho in [:, 0] and mu in [:, 1]; the
stencils of grid act on the last axis, so the diagnostics evaluate those
rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import div, grad
from .model import ProblemSpec

NEWTON_TOL = 1e-11
NEWTON_MAXIT = 50
_VEL_FLOOR = 1e-30  # guards the advective CFL division


class SolverError(RuntimeError):
    """Raised on positivity violation or Newton breakdown; carries time."""


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    clamps: int
    newton_iters: int


@dataclass(frozen=True)
class Trajectory:
    """Snapshot times (T,), the read-only (T, 2, n) array of the states at
    those times (rho in [:, 0], mu in [:, 1]) and the log of the steps."""

    problem: ProblemSpec
    times: np.ndarray
    states: np.ndarray
    step_log: tuple[StepRecord, ...]


def _donor(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    # donor cell of the transport direction -a at interface i
    up = np.empty_like(v)
    up[:-1] = v[1:]
    up[-1] = v[0]
    np.putmask(up, a < 0.0, v)
    return up


def _velocities(pressure: np.ndarray, problem: ProblemSpec):
    pot = problem.potentials
    dp = grad(pressure, problem.grid.dx)
    return dp + pot.dV_int, dp + pot.dW_int


def interface_velocities(rho: np.ndarray, mu: np.ndarray,
                         problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Species velocities a_rho = grad(pressure(S)) + V', a_mu likewise with W'."""
    return _velocities(problem.nonlinearity.pressure(rho + mu), problem)


def cfl_dt(rho: np.ndarray, mu: np.ndarray, problem: ProblemSpec
           ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Stable step: advective dx/max|a|, plus the diffusive dx^2 bound for
    the explicit stepper (the semi-implicit one is advectively limited only).

    Returns (dt, velocities), velocities being interface_velocities(rho,
    mu, problem), which advance takes so a step computes them once."""
    nl = problem.nonlinearity
    dx = problem.grid.dx
    pressure, diffusivity = nl.pressure_diffusivity(rho + mu)
    velocities = _velocities(pressure, problem)
    a_rho, a_mu = velocities
    amax = max(np.abs(a_rho).max(), np.abs(a_mu).max(), _VEL_FLOOR)
    dt = dx / amax
    if problem.stepper == "explicit":
        diff_max = float(diffusivity.max()) + problem.eps_viscosity
        dt = min(dt, dx * dx / (2.0 * diff_max))
    return problem.cfl_safety * dt, velocities


def _check_positive(v: np.ndarray, t: float, name: str) -> None:
    if v.min() > 0.0 and v.max() < np.inf:  # NaN fails both: bad data goes on
        return
    if not np.all(np.isfinite(v)):
        raise SolverError(f"positivity violated: non-finite {name} at t={t:.6g}")
    if np.any(v <= 0.0):
        i = int(np.flatnonzero(v <= 0.0)[0])
        raise SolverError(f"positivity violated: {name} at cell {i}, t={t:.6g}")


def _explicit_update(rho, mu, velocities, t_new: float, dt: float,
                     problem: ProblemSpec):
    dx = problem.grid.dx
    eps = problem.eps_viscosity
    clamps = problem.nonlinearity.clamp_count(rho + mu)
    new = []
    for v, a in zip((rho, mu), velocities):
        flux = _donor(v, a)
        flux *= a
        if eps != 0.0:  # at eps = 0 the term is +-0.0 and changes no bit of v
            flux += eps * grad(v, dx)
        v_new = div(flux, dx)
        v_new *= dt
        v_new += v
        new.append(v_new)
    _check_positive(new[0], t_new, "rho")
    _check_positive(new[1], t_new, "mu")
    return new[0], new[1], clamps, 0


def _solve_periodic_tridiagonal(cd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs for the cyclic tridiagonal J[i, i] = 1 + 2 cd[i],
    J[i, i -+ 1] = -cd[i -+ 1] (indices mod n) in O(n).

    J = T + u v^T, u = gamma e_0 + J[n-1, 0] e_{n-1}, v = e_0 + (J[0, n-1] /
    gamma) e_{n-1} with gamma = -J[0, 0], leaves T tridiagonal.  One LAPACK
    gtsv call solves T y = rhs and T z = u, and Sherman-Morrison gives
    x = y - (v.y) / (1 + v.z) z.  With cd >= 0 both J and T are strictly
    diagonally dominant by columns, hence nonsingular."""
    n = cd.size
    diag = 1.0 + 2.0 * cd
    gamma = -diag[0]
    lower, upper = -cd[0], -cd[-1]  # the corners J[n-1, 0] and J[0, n-1]
    diag[0] -= gamma
    diag[-1] -= lower * upper / gamma
    b = np.zeros((n, 2), order="F")
    b[:, 0] = rhs
    b[0, 1] = gamma
    b[-1, 1] = lower
    _, _, _, yz, info = dgtsv(-cd[:-1], diag, -cd[1:], b, overwrite_dl=True,
                              overwrite_d=True, overwrite_du=True, overwrite_b=True)
    if info != 0:
        raise SolverError(f"tridiagonal solve failed, LAPACK gtsv info {info}")
    y, z = yz[:, 0], yz[:, 1]
    ratio = upper / gamma
    return y - (y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1]) * z


def _implicit_diffusion(s_rhs: np.ndarray, dt: float, problem: ProblemSpec):
    """Solve S - dt * Lap(kirchhoff(S) + eps S) = s_rhs by damped Newton.

    Returns S, its q = kirchhoff(S) + eps S, the iterations and the clamps."""
    nl = problem.nonlinearity
    eps = problem.eps_viscosity
    dx = problem.grid.dx
    c = dt / (dx * dx)

    def residual(s):
        q = nl.kirchhoff(s) + eps * s
        q_wrap = np.concatenate((q[-1:], q, q[:1]))  # one periodic ghost cell a side
        return s - c * (q_wrap[2:] - 2.0 * q + q_wrap[:-2]) - s_rhs, q

    s = s_rhs.copy()
    res, q = residual(s)
    norm = float(np.max(np.abs(res)))
    clamps = 0
    for it in range(NEWTON_MAXIT):
        if norm <= NEWTON_TOL:
            return s, q, it, clamps
        delta = _solve_periodic_tridiagonal(c * (nl.diffusivity(s) + eps), -res)
        lam = 1.0
        for _ in range(30):
            trial = s + lam * delta
            clamps += nl.clamp_count(trial)
            res_t, q_t = residual(trial)
            norm_t = float(np.max(np.abs(res_t)))
            if norm_t < norm:
                s, res, q, norm = trial, res_t, q_t, norm_t
                break
            lam *= 0.5
        else:
            raise SolverError(
                f"newton stalled, residual {norm:.3e} after {it + 1} iterations")
    raise SolverError(f"newton did not converge, residual {norm:.3e}")


def _semi_implicit_update(rho, mu, velocities, t_new: float, dt: float,
                          problem: ProblemSpec):
    # velocities go unused: pressure is implicit here, the drift is V', W'
    nl, pot = problem.nonlinearity, problem.potentials
    dx = problem.grid.dx

    # explicit upwind potential drift
    rho_s = rho + dt * div(_donor(rho, pot.dV_int) * pot.dV_int, dx)
    mu_s = mu + dt * div(_donor(mu, pot.dW_int) * pot.dW_int, dx)
    _check_positive(rho_s, t_new, "rho")
    _check_positive(mu_s, t_new, "mu")

    s_star = rho_s + mu_s
    clamps = nl.clamp_count(s_star)
    _, q_new, iters, nclamps = _implicit_diffusion(s_star, dt, problem)
    clamps += nclamps

    # split the aggregate diffusive flux by donor-cell mobility fractions
    g_diff = grad(q_new, dx)
    s_up = _donor(s_star, g_diff)
    rho_new = rho_s + dt * div((_donor(rho_s, g_diff) / s_up) * g_diff, dx)
    mu_new = mu_s + dt * div((_donor(mu_s, g_diff) / s_up) * g_diff, dx)
    _check_positive(rho_new, t_new, "rho")
    _check_positive(mu_new, t_new, "mu")
    return rho_new, mu_new, clamps, iters


def advance(rho: np.ndarray, mu: np.ndarray, velocities, t: float, dt: float,
            problem: ProblemSpec):
    """One step from time t with the problem's stepper; velocities are the
    ones cfl_dt returned for (rho, mu).  Returns the new (rho, mu) arrays
    and the StepRecord."""
    if dt <= 0.0:
        raise SolverError(f"nonpositive dt {dt}")
    update = _explicit_update if problem.stepper == "explicit" else _semi_implicit_update
    rho_new, mu_new, clamps, iters = update(rho, mu, velocities, t + dt, dt, problem)
    return rho_new, mu_new, StepRecord(t, dt, clamps, iters)


def run(problem: ProblemSpec) -> Trajectory:
    """Integrate from t = 0 to t_final with adaptive CFL steps, truncating
    dt to land exactly on every snapshot time (never interpolating)."""
    t, rho, mu = 0.0, problem.initial.rho0.values, problem.initial.mu0.values
    times = np.zeros(len(problem.snapshot_times))
    states = np.empty((times.size, 2, problem.grid.n_cells))
    states[0] = rho, mu
    log: list[StepRecord] = []
    for j, target in enumerate(problem.snapshot_times[1:], 1):
        while t < target:
            remaining = target - t
            dt, velocities = cfl_dt(rho, mu, problem)
            landing = dt >= remaining
            if landing:
                dt = remaining
            try:
                rho, mu, rec = advance(rho, mu, velocities, t, dt, problem)
            except SolverError as err:
                raise SolverError(f"{err} (while integrating to t={target:.6g})") from err
            log.append(rec)
            t = target if landing else t + dt
        times[j] = t
        states[j] = rho, mu
    times.setflags(write=False)
    states.setflags(write=False)
    return Trajectory(problem, times, states, tuple(log))
