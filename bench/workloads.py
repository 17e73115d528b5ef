"""The benchmark's workloads: seeded config generation and output checks.

Seed 0 reproduces the pinned acceptance scenarios of tests/scenarios.py
(fast-diffusion scenario C and heat scenario B).  Any other seed translates
the whole problem by a pseudo-random shift of the torus: every mode of the
potentials and of the initial data is rotated by the same phase, and the
heat reference rotates with them.  A translated problem has the same
physics and nearly the same cost, so every seed passes the same checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASS_DRIFT_MAX = 1e-12        # relative, tests/test_acceptance.py criterion 01
HEAT_LINF_MAX = 5e-3          # criterion 03
CAUCHY_RATIO_RANGE = (1.5, 4.0)   # criterion 10
RESIDUAL_ORDER_MIN = 0.8      # criterion 08
REPORT_CSVS = ("scalars.csv", "omega_space.csv", "omega_time.csv", "residuals.csv")
T_FINAL = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # crossdiff subcommand: run, study or diagnose
    completion: str     # prefix of the line the command prints on success


# Why each workload exists is stated once, in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("explicit-run", "run", "run complete:"),
    Workload("semi-implicit-study", "study", "study complete:"),
    Workload("snapshot-write", "run", "run complete:"),
    Workload("snapshot-read", "diagnose", "diagnose complete:"),
)}


def seed_shift(seed: int) -> float:
    """Translation of the torus for this seed, as a fraction of the period."""
    return 0.0 if seed == 0 else random.Random(seed).random()


def _rotate(modes, shift: float) -> str:
    """Mode triples k:cos:sin of the profile f(x - shift)."""
    out = []
    for k, a, b in modes:
        th = 2.0 * math.pi * k * shift
        c, s = math.cos(th), math.sin(th)
        out.append(f"{k}:{a * c - b * s!r}:{a * s + b * c!r}")
    return ", ".join(out)


def _ini(n, alpha, V, W, offset, amp, snapshots, stepper, shift, levels=2) -> str:
    return "\n".join([
        "[grid]", f"n = {n}",
        "[model]", f"alpha = {alpha}",
        "[potentials]", f"V = {_rotate(V, shift)}", f"W = {_rotate(W, shift)}",
        "[initial]",
        f"rho_offset = {offset}", f"rho_modes = {_rotate([(1, amp, 0.0)], shift)}",
        f"mu_offset = {offset}", f"mu_modes = {_rotate([(1, amp, 0.0)], shift)}",
        "[time]", f"t_final = {T_FINAL}", f"snapshots = {snapshots}",
        f"stepper = {stepper}",
        "[study]", f"levels = {levels}", "",
    ])


def config_text(workload: str, seed: int) -> str:
    """INI config for a run or study workload.  snapshot-read diagnoses the
    output of snapshot-write, so it shares that config."""
    shift = seed_shift(seed)
    fast = dict(alpha=0.5, V=[(1, 0.0, 1.0)], W=[(1, 1.0, 0.0)], offset=0.5, amp=0.2,
                snapshots=21, shift=shift)
    if workload == "explicit-run":
        return _ini(n=512, stepper="explicit", **fast)
    if workload == "semi-implicit-study":
        return _ini(n=256, stepper="semi-implicit", levels=4, **fast)
    if workload in ("snapshot-write", "snapshot-read"):
        return _ini(n=2048, alpha=1, V=[], W=[], offset=0.5, amp=0.25, snapshots=401,
                    stepper="semi-implicit", shift=shift)
    raise KeyError(workload)


def heat_reference(t: float, x: np.ndarray, shift: float) -> np.ndarray:
    """Closed-form total density of the (translated) heat scenario."""
    return 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t) * np.cos(2.0 * np.pi * (x - shift))


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output passes


def _table(path: Path, usecols=None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)


def _snapshot_time(path: Path) -> float:
    return float(path.stem[len("snapshot_"):])


def check_mass(scalars: Path) -> list[str]:
    data = _table(scalars)
    problems = []
    for col, name in ((1, "rho"), (2, "mu")):
        m = data[:, col]
        drift = float(np.max(np.abs(m - m[0])) / abs(m[0]))
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"{scalars.name}: relative mass drift of {name} {drift:.3e}")
    return problems


def check_snapshots(out: Path, shift: float, heat: bool) -> list[str]:
    paths = sorted(out.glob("snapshot_*.csv"), key=_snapshot_time)
    if not paths:
        return [f"no snapshots in {out.name}"]
    problems = []
    for path in paths:
        data = _table(path)
        if not np.all(data[:, 1:] > 0.0):
            problems.append(f"{path.name}: density <= 0 or not finite")
    if heat:
        last = _table(paths[-1])
        ref = heat_reference(_snapshot_time(paths[-1]), last[:, 0], shift)
        err = float(np.max(np.abs(last[:, 1] + last[:, 2] - ref)))
        if not err <= HEAT_LINF_MAX:
            problems.append(f"heat reference Linf error {err:.3e} > {HEAT_LINF_MAX}")
    return problems


def check_study(out: Path) -> list[str]:
    levels = sorted(out.glob("level_*/scalars.csv"))
    if not levels:
        return ["no level_*/scalars.csv"]
    problems = [p for path in levels for p in check_mass(path)]
    cauchy = _table(out / "cauchy_l1.csv", usecols=(1, 2))
    lo, hi = CAUCHY_RATIO_RANGE
    for col, name in ((0, "rho"), (1, "mu")):
        ratios = cauchy[:-1, col] / cauchy[1:, col]
        if not np.all((ratios >= lo) & (ratios <= hi)):
            problems.append(f"L1-Cauchy ratios of {name} {ratios} outside [{lo}, {hi}]")
    rates = dict(line.split(",") for line in
                 (out / "rates.csv").read_text().splitlines()[1:])
    order = float(rates["weak_residual_order"])
    if not order >= RESIDUAL_ORDER_MIN:
        problems.append(f"weak-residual order {order:.3f} < {RESIDUAL_ORDER_MIN}")
    return problems


def check_output(workload: str, out: Path, shift: float, reference: Path | None) -> list[str]:
    """Check one command's output directory.  reference is the snapshot-write
    output that snapshot-read diagnoses."""
    if workload == "semi-implicit-study":
        return check_study(out)
    problems = check_mass(out / "scalars.csv")
    if workload == "snapshot-read":
        for name in REPORT_CSVS:
            if (out / name).read_bytes() != (reference / name).read_bytes():
                problems.append(f"{name} differs from the one snapshot-write wrote")
    else:
        problems += check_snapshots(out, shift, heat=workload == "snapshot-write")
    return problems
