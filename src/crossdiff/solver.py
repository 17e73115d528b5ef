"""Conservative, positivity-preserving time integration of the two-species
cross-diffusion system

    d/dt rho = d/dx(rho d/dx pressure(S)) + d/dx(rho V') + eps rho_xx
    d/dt mu  = d/dx(mu  d/dx pressure(S)) + d/dx(mu  W') + eps mu_xx

with S = rho + mu.  The scheme advances the species pair, so each species'
mass is conserved exactly; the S and r equations are verified as
diagnostics, not used for stepping.  Positivity is not structural: an
explicit step can move up to 2 cfl_safety of a cell out through its two
faces (plus 2 eps dt/dx^2 by viscosity), so above cfl_safety = 0.5 a step
can empty a cell, and run raises SolverError.

The state is one float64 array u = [rho; mu] of shape (2, n), and every
stencil acts on its last axis, so each operation of a step runs once for
both species.  Flux convention: with the (2, n) interface velocities a =
grad(pressure(S)) + [V'; W'] (returned by cfl_dt), the update is
u <- u + dt * div(F), F = u_up * a + eps * grad(u), where u_up is the
donor cell of the transport direction -a (u_i when a < 0, u_{i+1}
otherwise); the eps term is skipped at eps = 0, where it would add +-0.0.
The semi-implicit stepper keeps only the potential drift explicit and
solves the stiff aggregate diffusion S - dt * Lap(kirchhoff(S) + eps S) =
S_drift by damped Newton, splitting the diffusive interface flux between
the species by their donor-cell mobility fractions (exactly conservative
per species).  Each Newton iteration is one O(n) periodic tridiagonal solve:
LAPACK gtsv on the Jacobian without its corners, plus a Sherman-Morrison
correction for them; LAPACK is imported by the first such solve, so an
explicit run never loads scipy.

A step evaluates the velocities once: cfl_dt(u, problem) returns (dt,
velocities), with the same pressure power giving the diffusive bound, and
advance(u, velocities, t, dt, problem) transports with them.  run starts
from problem.u0, calls the pair once per step and copies each snapshot it
keeps into one preallocated (T, 2, n) array, rho in [:, 0] and mu in
[:, 1], whose rows the diagnostics evaluate directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _donor(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    # donor cell of the transport direction -a at interface i; an (n,) a
    # serves both rows of a (2, n) u
    up = np.empty_like(u)
    up[..., :-1] = u[..., 1:]
    up[..., -1] = u[..., 0]
    np.copyto(up, u, where=a < 0.0)
    return up


def cfl_dt(u: np.ndarray, problem: ProblemSpec) -> tuple[float, np.ndarray]:
    """Stable step: advective dx/max|a|, plus the diffusive dx^2 bound for
    the explicit stepper (the semi-implicit one is advectively limited only).

    Returns (dt, velocities), velocities being the (2, n) species velocities
    grad(pressure(S)) + [V'; W'], S = rho + mu, which advance takes so a
    step computes them once."""
    dx = problem.grid.dx
    pressure, diffusivity = problem.nonlinearity.pressure_diffusivity(u[0] + u[1])
    velocities = grad(pressure, dx) + problem.potentials.drift
    dt = dx / max(np.abs(velocities).max(), _VEL_FLOOR)
    if problem.stepper == "explicit":
        diff_max = float(diffusivity.max()) + problem.eps_viscosity
        dt = min(dt, dx * dx / (2.0 * diff_max))
    return problem.cfl_safety * dt, velocities


def _check_positive(u: np.ndarray, t: float) -> None:
    if u.min() > 0.0 and u.max() < np.inf:  # NaN fails both: bad data goes on
        return
    for v, name in zip(u, ("rho", "mu")):
        if not np.all(np.isfinite(v)):
            raise SolverError(f"positivity violated: non-finite {name} at t={t:.6g}")
        if np.any(v <= 0.0):
            i = int(np.flatnonzero(v <= 0.0)[0])
            raise SolverError(f"positivity violated: {name} at cell {i}, t={t:.6g}")


def _explicit_update(u, velocities, t_new: float, dt: float, problem: ProblemSpec):
    dx = problem.grid.dx
    eps = problem.eps_viscosity
    nl = problem.nonlinearity
    # rho + mu < s_floor needs a density below s_floor, so S is formed only then
    clamps = nl.clamp_count(u[0] + u[1]) if u.min() < nl.s_floor else 0
    flux = _donor(u, velocities)
    flux *= velocities
    if eps != 0.0:  # at eps = 0 the term is +-0.0 and changes no bit of u
        flux += eps * grad(u, dx)
    u_new = div(flux, dx)
    u_new *= dt
    u_new += u
    _check_positive(u_new, t_new)
    return u_new, clamps, 0


def _solve_periodic_tridiagonal(cd: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs for the cyclic tridiagonal J[i, i] = 1 + 2 cd[i],
    J[i, i -+ 1] = -cd[i -+ 1] (indices mod n) in O(n).

    J = T + u v^T, u = gamma e_0 + J[n-1, 0] e_{n-1}, v = e_0 + (J[0, n-1] /
    gamma) e_{n-1} with gamma = -J[0, 0], leaves T tridiagonal.  One LAPACK
    gtsv call solves T y = rhs and T z = u, and Sherman-Morrison gives
    x = y - (v.y) / (1 + v.z) z.  With cd >= 0 both J and T are strictly
    diagonally dominant by columns, hence nonsingular."""
    from scipy.linalg.lapack import dgtsv

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
        slope = np.where(s < nl.s_floor, 0.0, nl.diffusivity(s))  # q is flat there
        delta = _solve_periodic_tridiagonal(c * (slope + eps), -res)
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


def _semi_implicit_update(u, velocities, t_new: float, dt: float,
                          problem: ProblemSpec):
    # velocities go unused: pressure is implicit here, the drift is [V'; W']
    drift = problem.potentials.drift
    dx = problem.grid.dx

    # explicit upwind potential drift
    u_s = u + dt * div(_donor(u, drift) * drift, dx)
    _check_positive(u_s, t_new)

    s_star = u_s[0] + u_s[1]
    clamps = problem.nonlinearity.clamp_count(s_star)
    _, q_new, iters, nclamps = _implicit_diffusion(s_star, dt, problem)

    # split the aggregate diffusive flux by donor-cell mobility fractions
    g_diff = grad(q_new, dx)
    u_new = u_s + dt * div(_donor(u_s, g_diff) / _donor(s_star, g_diff) * g_diff, dx)
    _check_positive(u_new, t_new)
    return u_new, clamps + nclamps, iters


def advance(u: np.ndarray, velocities: np.ndarray, t: float, dt: float,
            problem: ProblemSpec) -> tuple[np.ndarray, StepRecord]:
    """One step from time t with the problem's stepper; velocities are the
    ones cfl_dt returned for u = [rho; mu].  Returns the new (2, n) state
    and the StepRecord."""
    if dt <= 0.0:
        raise SolverError(f"nonpositive dt {dt}")
    update = _explicit_update if problem.stepper == "explicit" else _semi_implicit_update
    u_new, clamps, iters = update(u, velocities, t + dt, dt, problem)
    return u_new, StepRecord(t, dt, clamps, iters)


def run(problem: ProblemSpec) -> Trajectory:
    """Integrate from t = 0 to t_final with adaptive CFL steps, truncating
    dt to land exactly on every snapshot time (never interpolating)."""
    t, u = 0.0, problem.u0
    times = np.zeros(len(problem.snapshot_times))
    states = np.empty((times.size, 2, problem.grid.n_cells))
    states[0] = u
    log: list[StepRecord] = []
    for j, target in enumerate(problem.snapshot_times[1:], 1):
        while t < target:
            remaining = target - t
            dt, velocities = cfl_dt(u, problem)
            landing = dt >= remaining
            if landing:
                dt = remaining
            try:
                u, rec = advance(u, velocities, t, dt, problem)
            except SolverError as err:
                raise SolverError(f"{err} (while integrating to t={target:.6g})") from err
            log.append(rec)
            t = target if landing else t + dt
        times[j] = t
        states[j] = u
    times.setflags(write=False)
    states.setflags(write=False)
    return Trajectory(problem, times, states, tuple(log))
