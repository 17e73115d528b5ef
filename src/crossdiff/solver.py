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
per species).  Its drift substep (a = [V'; W'], no eps term) and that split
(F = u_up / (rho_up + mu_up) * grad(q), q = kirchhoff(S) + eps S) are the
same update u + dt * div(F) as the explicit step.  Each Newton iteration is
one O(n) periodic tridiagonal solve: LAPACK gtsv on the Jacobian without its
corners, plus a Sherman-Morrison correction for them.  An iterate, or a
drifted state, with no value below s_floor skips the clamp and its count.
That gtsv is numpy's own LAPACK dgtsv, called through ctypes from the
library numpy.linalg already links, so a run loads no second LAPACK; numpy
is the only runtime dependency.

A step evaluates the velocities once: cfl_dt(u, problem) returns (dt,
velocities), with the same pressure power giving the explicit stepper's
diffusive bound (the semi-implicit stepper has none), and advance(u,
velocities, t, dt, problem) steps with them.  run builds that pair once per
run as one kernel for both steppers (_kernel, the only reader of
problem.stepper): two closures over working arrays allocated once (the
Newton solve's gtsv arrays and argument tuple among them), with the
problem's scalars read once.  Every upwind update of both steppers
goes through one closure, and each new state goes into one of two buffers
that the steps alternate, so a state the kernel returned stays valid until
the step after next.  An explicit step goes through no layer of the model
or the grid and, at eps = 0, allocates no array.  Every max and min
of a step is a.item(a.argmax()) or a.item(a.argmin()) (see _kernel).  The
public cfl_dt and advance are the same kernel built for one step, so the
arithmetic exists once; advance alone checks dt > 0, as run's guards never
pass a dt of 0.  run starts from problem.u0 and copies each snapshot it
keeps into one (T, 2, n) array, rho in [:, 0] and mu in [:, 1], whose rows
the diagnostics evaluate directly.  That array is run's own, unless the
private _stream argument (the writers of _stream.stream_snapshots) is
given: then run keeps its states in the stream's shared map and calls its
store(j, t) once row j holds the snapshot at time t, so that writer
processes write each file while the run goes on.  It logs each step's t,
dt, clamps and Newton iterations in four array.array buffers, 32 bytes a
step, which the StepLog views as read-only numpy columns without a copy;
iterating the log builds the StepRecords only then.  A dt that would need
more than 2^32 steps to reach the next snapshot time is a SolverError.
"""

from __future__ import annotations

import ctypes
import functools
from array import array
from dataclasses import dataclass

import numpy as np

from .grid import grad
from .model import ProblemSpec

NEWTON_TOL = 1e-11
NEWTON_MAXIT = 50
_VEL_FLOOR = 1e-30  # guards the advective CFL division
_STEP_BUDGET = 2**32  # most steps of one dt that run may take to reach a snapshot time
_DGTSV = "scipy_dgtsv_64_"  # numpy's wheels build OpenBLAS with ILP64 and this symbol suffix


class SolverError(RuntimeError):
    """Raised on positivity violation, Newton breakdown or a LAPACK without
    dgtsv; carries time."""


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    clamps: int
    newton_iters: int


@dataclass(frozen=True, eq=False)
class StepLog:
    """The steps of a run as four read-only columns, one entry a step: start
    times t and steps dt (float64), clamps and newton_iters (int64).  len()
    counts the steps; iterating yields each step's StepRecord, of Python
    floats and ints."""

    t: np.ndarray
    dt: np.ndarray
    clamps: np.ndarray
    newton_iters: np.ndarray

    @staticmethod
    def buffers() -> tuple[array, array, array, array]:
        """Empty t, dt, clamps and newton_iters buffers to log steps in."""
        return array("d"), array("d"), array("q"), array("q")

    @classmethod
    def of(cls, buffers: tuple[array, array, array, array]) -> StepLog:
        """The log over filled buffers(), each viewed read-only without a
        copy; the buffers can no longer grow."""
        columns = [np.frombuffer(b, b.typecode) for b in buffers]
        for column in columns:
            column.setflags(write=False)
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return map(StepRecord, self.t.tolist(), self.dt.tolist(),
                   self.clamps.tolist(), self.newton_iters.tolist())


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshot times (T,), the read-only (T, 2, n) array of the states at
    those times (rho in [:, 0], mu in [:, 1]) and the log of the steps."""

    problem: ProblemSpec
    times: np.ndarray
    states: np.ndarray
    step_log: StepLog


def _kernel(problem: ProblemSpec):
    """One step of the problem's stepper as two closures over buffers
    allocated once: velocities_dt(u) -> (dt, velocities) and transport(u,
    velocities, t, dt) -> (u_new, clamps, newton_iters), with the problem's
    scalars read here, not per step.  The velocities are the kernel's own
    buffer, valid until the next velocities_dt call.  The semi-implicit
    stepper's dt is the advective bound alone.  Every upwind update of both
    steppers is the closure upwind (u + dt * div(F) into a given buffer,
    with the fluxes of the module docstring, then the positivity check).
    Each transport writes u_new into whichever of two state buffers u is
    not (the drift substep has a third), so the buffers alternate and a
    state that transport returned stays valid until the step after next.
    At eps = 0 an explicit step allocates no array.

    The arithmetic is the reference formulas', bit for bit: the velocities
    are grad(pressure(S)) + [V'; W']; the diffusive bound takes alpha *
    max(power), which rounding (monotone) makes equal to max(alpha * power);
    the donor is the shifted u with u copied in where a < 0, and the donor
    of S = rho + mu is the sum of the species' donors, as both take the
    same cell; the flux sits in [:, 1:] of an (2, n + 1) buffer whose column
    0 repeats its last one, so the divergence is one subtraction, and
    ((F_i - F_{i-1}) / dx) * dt + u is u + dt * ((F_i - F_{i-1}) / dx), as
    IEEE addition and multiplication commute.  Every max and min is
    a.item(a.argmax()) or a.item(a.argmin()): the reduction's value (the
    first NaN if there is one) for less call overhead.  Which of two signed
    zeros it picks never matters: |a| and the power are >= +0, and a zero
    minimum fails positivity either way.  The minimum of the state that
    upwind wrote last, found by its positivity check, is reused as the next
    call's `u.min() < s_floor` clamp test when that same state comes back,
    and it skips clamping S up to s_floor when no density lies below it."""
    n, dx, eps = problem.grid.n_cells, problem.grid.dx, problem.eps_viscosity
    nl, drift, safety = problem.nonlinearity, problem.potentials.drift, problem.cfl_safety
    explicit = problem.stepper == "explicit"
    alpha, s_floor = nl.alpha, nl.s_floor
    exponent = alpha - 1.0
    scale = -(alpha / (1.0 - alpha)) if alpha != 1.0 else 1.0
    s, grad_p = np.empty(n), np.empty(n)
    s_next, s_here, grad_head = s[1:], s[:-1], grad_p[:-1]
    velocities, speed = np.empty((2, n)), np.empty((2, n))
    (v_drift, w_drift), (rho_velocity, mu_velocity) = drift, velocities
    last = None  # the state upwind wrote last, and its minimum
    last_min = 0.0

    def velocities_dt(u):
        np.add(u[0], u[1], out=s)
        if u is not last or last_min < s_floor:  # else S >= every density >= s_floor
            np.maximum(s, s_floor, out=s)
        if alpha == 1.0:
            np.log(s, out=s)  # s is the pressure now; the diffusivity is exactly 1
            diff_max = 1.0 + eps
        else:
            np.power(s, exponent, out=s)
            if explicit:  # the semi-implicit stepper has no diffusive bound
                diff_max = alpha * s.item(s.argmax()) + eps
            np.multiply(s, scale, out=s)
        np.subtract(s_next, s_here, out=grad_head)
        grad_p[-1] = s[0] - s[-1]
        np.divide(grad_p, dx, out=grad_p)
        np.add(grad_p, v_drift, out=rho_velocity)  # row by row: no broadcast buffer
        np.add(grad_p, w_drift, out=mu_velocity)
        np.abs(velocities, out=speed)
        dt = dx / max(speed.item(speed.argmax()), _VEL_FLOOR)
        if explicit:
            dt = min(dt, dx * dx / (2.0 * diff_max))
        return safety * dt, velocities

    padded = np.empty((2, n + 1))  # u, then its first column again; [:, 1:] the donor
    head, tail, donor = padded[:, :-1], padded[:, -1:], padded[:, 1:]
    flux = np.empty((2, n + 1))  # the interface fluxes in [:, 1:], the last again in [:, 0]
    first, last_face, faces, behind = flux[:, :1], flux[:, -1:], flux[:, 1:], flux[:, :-1]
    downwind = np.empty((2, n), dtype=bool)
    state_a, state_b, drifted = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
    viscosity = eps if explicit else 0.0  # the semi-implicit eps is in the Newton solve
    solve = None if explicit else _periodic_solver(n)

    def upwind(u, a, dt, t_new, out, split=False):
        nonlocal last, last_min
        np.copyto(head, u)
        np.copyto(tail, u[:, :1])
        np.less(a, 0.0, out=downwind)  # an (n,) a serves both rows
        np.copyto(donor, u, where=downwind)
        if split:  # each species' donor-cell share of the aggregate flux a
            np.divide(donor, donor[0] + donor[1], out=faces)
            np.multiply(faces, a, out=faces)
        else:
            np.multiply(donor, a, out=faces)
        if viscosity != 0.0:  # at eps = 0 the term is +-0.0 and changes no bit of u
            np.add(faces, viscosity * grad(u, dx), out=faces)
        np.copyto(first, last_face)
        np.subtract(faces, behind, out=out)
        out /= dx
        out *= dt
        out += u
        last, last_min = out, _check_positive(out, t_new)

    def transport(u, a, t, dt):
        u_min = last_min if u is last else u.item(u.argmin())
        # rho + mu < s_floor needs a density below s_floor, so S is formed only then
        clamps = nl.clamp_count(u[0] + u[1]) if u_min < s_floor else 0
        u_new = state_b if u is state_a else state_a
        upwind(u, a, dt, t + dt, u_new)
        return u_new, clamps, 0

    def semi_implicit(u, a, t, dt):  # the pressure is implicit: a goes unused
        upwind(u, drift, dt, t + dt, drifted)
        s_star = drifted[0] + drifted[1]
        clamps = nl.clamp_count(s_star) if last_min < s_floor else 0  # as in transport
        _, q_new, iters, newton_clamps = _implicit_diffusion(s_star, dt, problem, solve)
        u_new = state_b if u is state_a else state_a
        upwind(drifted, grad(q_new, dx), dt, t + dt, u_new, split=True)
        return u_new, clamps + newton_clamps, iters

    return velocities_dt, transport if explicit else semi_implicit


def cfl_dt(u: np.ndarray, problem: ProblemSpec) -> tuple[float, np.ndarray]:
    """Stable step: advective dx/max|a|, plus the diffusive dx^2 bound for
    the explicit stepper (the semi-implicit one is advectively limited only).

    Returns (dt, velocities), velocities being the (2, n) species velocities
    grad(pressure(S)) + [V'; W'], S = rho + mu, which advance takes so a
    step computes them once.  This is the per-run kernel's velocities_dt,
    built for one step."""
    return _kernel(problem)[0](u)


def _check_positive(u: np.ndarray, t: float) -> float:
    """u.min() if every value of u is finite and positive; else SolverError."""
    u_min = u.item(u.argmin())
    if u_min > 0.0 and u.item(u.argmax()) < np.inf:  # NaN fails both: bad data goes on
        return u_min
    for v, name in zip(u, ("rho", "mu")):
        if not np.all(np.isfinite(v)):
            raise SolverError(f"positivity violated: non-finite {name} at t={t:.6g}")
        if np.any(v <= 0.0):
            i = int(np.flatnonzero(v <= 0.0)[0])
            raise SolverError(f"positivity violated: {name} at cell {i}, t={t:.6g}")


@functools.cache
def _dgtsv():
    """numpy's own LAPACK dgtsv(n, nrhs, dl, d, du, b, ldb, info), every
    argument by reference and the integers int64 (ILP64).  The lookup goes
    through the handle of numpy.linalg's own extension module, and dlsym on
    a handle also searches the libraries it links, so nothing new loads.  A
    LAPACK without the symbol is a SolverError that names it."""
    library = np.linalg._umath_linalg.__file__
    try:
        dgtsv = getattr(ctypes.CDLL(library), _DGTSV)
    except AttributeError:
        raise SolverError(f"numpy's LAPACK has no {_DGTSV} (looked up through {library})") from None
    dgtsv.argtypes = [ctypes.c_void_p] * 8
    dgtsv.restype = None
    return dgtsv


def _gtsv(n: int):
    """The (n - 1,) dl, (n,) d, (n - 1,) du and (n, 2) Fortran-ordered b of
    one tridiagonal system, allocated once, and gtsv(): LAPACK dgtsv on them
    in place (b becomes the solution), returning its info.  The argument
    tuple is built once, and its pointers (data_as) keep their arrays alive."""
    dl, d, du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    b = np.empty((n, 2), order="F")
    info = ctypes.c_int64()
    args = (ctypes.byref(ctypes.c_int64(n)), ctypes.byref(ctypes.c_int64(2)),
            *(a.ctypes.data_as(ctypes.c_void_p) for a in (dl, d, du, b)),
            ctypes.byref(ctypes.c_int64(n)), ctypes.byref(info))

    def gtsv():
        _dgtsv()(*args)
        return info.value

    return dl, d, du, b, gtsv


def _periodic_solver(n: int):
    """solve(cd, rhs) -> x, the solution of J x = rhs for the cyclic
    tridiagonal J[i, i] = 1 + 2 cd[i], J[i, i -+ 1] = -cd[i -+ 1] (indices
    mod n), in O(n) over one _gtsv(n); x is a view into its b, valid until
    the next solve.

    J = T + u v^T, u = gamma e_0 + J[n-1, 0] e_{n-1}, v = e_0 + (J[0, n-1] /
    gamma) e_{n-1} with gamma = -J[0, 0], leaves T tridiagonal.  One LAPACK
    gtsv call solves T y = rhs and T z = u, and Sherman-Morrison gives
    x = y - (v.y) / (1 + v.z) z.  With cd >= 0 both J and T are strictly
    diagonally dominant by columns, hence nonsingular."""
    dl, d, du, b, gtsv = _gtsv(n)
    y, z = b[:, 0], b[:, 1]

    def solve(cd, rhs):
        np.multiply(cd, 2.0, out=d)
        np.add(d, 1.0, out=d)
        gamma = -d[0]
        lower, upper = -cd[0], -cd[-1]  # the corners J[n-1, 0] and J[0, n-1]
        d[0] -= gamma
        d[-1] -= lower * upper / gamma
        np.negative(cd[:-1], out=dl)
        np.negative(cd[1:], out=du)
        y[:] = rhs
        z[:] = 0.0
        z[0] = gamma
        z[-1] = lower
        info = gtsv()
        if info != 0:
            raise SolverError(f"tridiagonal solve failed, LAPACK gtsv info {info}")
        ratio = upper / gamma
        np.multiply(z, (y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1]), out=z)
        return np.subtract(y, z, out=y)

    return solve


def _implicit_diffusion(s_rhs: np.ndarray, dt: float, problem: ProblemSpec, solve=None):
    """Solve S - dt * Lap(kirchhoff(S) + eps S) = s_rhs by damped Newton,
    each iteration's linear system by solve, a _periodic_solver of the size
    of s_rhs (a new one if not given).

    Returns S, its q = kirchhoff(S) + eps S, the iterations and the clamps.
    An iterate whose minimum (the argmin its clamp test takes) is at least
    s_floor skips the clamp: its q is s ** alpha and its slope alpha * s **
    (alpha - 1), the bits of kirchhoff and diffusivity, as the `**`
    operator keeps numpy's fast paths for the exponents 0, 0.5, 1 and 2.
    The residual, the slope and the solve's arrays are formed in place."""
    nl = problem.nonlinearity
    eps = problem.eps_viscosity
    dx = problem.grid.dx
    alpha, s_floor = nl.alpha, nl.s_floor
    c = dt / (dx * dx)

    def residual(s, s_min):
        q = nl.kirchhoff(s) if s_min < s_floor else s ** alpha
        lap = np.empty_like(q)  # q[i+1] - 2 q[i] + q[i-1], indices mod n
        if eps != 0.0:  # at eps = 0 the term is +-0.0 and changes no bit of q
            q += np.multiply(s, eps, out=lap)
        np.multiply(q[:-1], 2.0, out=lap[:-1])
        np.subtract(q[1:], lap[:-1], out=lap[:-1])
        lap[-1] = q[0] - 2.0 * q[-1]
        lap[1:] += q[:-1]
        lap[0] += q[-1]
        lap *= c
        res = np.subtract(s, lap, out=lap)
        res -= s_rhs
        size = np.abs(res)
        return res, q, size.item(size.argmax())  # max |res|, NaN if res holds one

    solve = _periodic_solver(s_rhs.size) if solve is None else solve
    s = s_rhs.copy()
    s_min = s.item(s.argmin())
    res, q, norm = residual(s, s_min)
    clamps = 0
    for it in range(NEWTON_MAXIT):
        if norm <= NEWTON_TOL:
            return s, q, it, clamps
        if s_min < s_floor:
            slope = np.where(s < s_floor, 0.0, nl.diffusivity(s))  # q is flat there
        else:
            slope = s ** (alpha - 1.0)
            slope *= alpha
        if eps != 0.0:  # slope is never -0.0, so slope + 0.0 is slope
            slope += eps
        slope *= c
        delta = solve(slope, -res)
        lam = 1.0
        for _ in range(30):
            trial = s + delta if lam == 1.0 else s + lam * delta  # 1.0 * delta is delta
            t_min = trial.item(trial.argmin())
            clamps += nl.clamp_count(trial) if t_min < s_floor else 0
            res_t, q_t, norm_t = residual(trial, t_min)
            if norm_t < norm:
                s, s_min, res, q, norm = trial, t_min, res_t, q_t, norm_t
                break
            lam *= 0.5
        else:
            raise SolverError(
                f"newton stalled, residual {norm:.3e} after {it + 1} iterations")
    raise SolverError(f"newton did not converge, residual {norm:.3e}")


def advance(u: np.ndarray, velocities: np.ndarray, t: float, dt: float,
            problem: ProblemSpec) -> tuple[np.ndarray, StepRecord]:
    """One step from time t with the problem's stepper; velocities are the
    ones cfl_dt returned for u = [rho; mu].  Returns the new (2, n) state
    and the StepRecord.  This is the per-run kernel's transport, built for
    one step; a dt <= 0 raises SolverError."""
    if dt <= 0.0:
        raise SolverError(f"nonpositive dt {dt}")
    u_new, clamps, iters = _kernel(problem)[1](u, velocities, t, dt)
    return u_new, StepRecord(t, dt, clamps, iters)


def run(problem: ProblemSpec, *, _stream=None) -> Trajectory:
    """Integrate from t = 0 to t_final with adaptive CFL steps, truncating
    dt to land exactly on every snapshot time (never interpolating)."""
    buffers = StepLog.buffers()
    log_t, log_dt, log_clamps, log_iters = (b.append for b in buffers)
    velocities_dt, transport = _kernel(problem)
    t, u = 0.0, problem.u0
    times = np.zeros(len(problem.snapshot_times))
    states = np.empty((times.size, 2, problem.grid.n_cells)) if _stream is None else _stream.states
    states[0] = u
    if _stream is not None:
        _stream.store(0, t)
    for j, target in enumerate(problem.snapshot_times[1:], 1):
        while t < target:
            remaining = target - t
            dt, velocities = velocities_dt(u)
            if target - dt == target:  # also dt = 0: steps of dt never reach the target
                raise SolverError(f"CFL step dt={dt:.6g} cannot move t toward t={target:.6g} "
                                  f"(cfl_safety = {problem.cfl_safety!r})")
            if remaining > dt * _STEP_BUDGET:
                raise SolverError(f"CFL step dt={dt:.6g} needs more than {_STEP_BUDGET} steps "
                                  f"to reach t={target:.6g} (cfl_safety = {problem.cfl_safety!r})")
            landing = dt >= remaining
            if landing:
                dt = remaining
            try:
                u, clamps, iters = transport(u, velocities, t, dt)
            except SolverError as err:
                raise SolverError(f"{err} (while integrating to t={target:.6g})") from err
            log_t(t)
            log_dt(dt)
            log_clamps(clamps)
            log_iters(iters)
            t = target if landing else t + dt
        times[j] = t
        states[j] = u
        if _stream is not None:
            _stream.store(j, t)
    times.setflags(write=False)
    states.setflags(write=False)
    return Trajectory(problem, times, states, StepLog.of(buffers))
