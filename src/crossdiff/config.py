"""Run configuration: a sectioned key-value document parsed into a RunConfig
that every builder accepts, plus builders for ProblemSpec and StudyPlan.

Schema (INI syntax; unknown sections or keys are rejected):

    [grid]        n = 128
    [model]       alpha = 0.5            s_floor = 1e-12
    [potentials]  V = 1:0:1, 2:0.5:0     W =            (mode triples k:cos:sin)
    [initial]     rho_offset = 0.5       rho_modes = 1:0.2:0
                  mu_offset = 0.5        mu_modes =
                  (or rho_values / mu_values = comma list of n cell values,
                  in place of that species' offset and modes)
    [time]        t_final = 0.05         snapshots = 11   (count, or time list)
                  stepper = explicit     cfl_safety = 0.5   eps = 0
    [output]      dir = out   precision = 17   bank_k = 8
                  residuals = true       moduli = true
    [study]       levels = 3   refine_space = true   viscosity = 1e-2,5e-3,...

Defaults: eps=0, cfl_safety=0.5, stepper=explicit, bank_k=min(8, n/4),
s_floor=1e-12, snapshots=11, dir=out, precision=17.

parse_config checks syntax, finiteness, precision in [1, 17], a snapshot
count >= 1, bank_k in [0, n/4] and that no species has both values and
offset or modes.  Each other value rule has one owner,
whose ValueError it re-raises as a ConfigError prefixed with the section:
grid.GridSpec (n), model.Nonlinearity (alpha, s_floor), model.check_modes
(V, W, rho_modes, mu_modes), grid.Field (rho_values, mu_values),
model.check_time ([time]) and study.check_levels ([study]).  build_problem
stacks the initial profiles into u0 = [rho0; mu0] and adds its positivity
(model.check_initial).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import default_bank_k
from .grid import Field, GridSpec, make_grid
from .model import (Mode, Nonlinearity, ProblemSpec, _trig_eval, build_potentials,
                    check_initial, check_modes, check_time)
from .study import StudyPlan, check_levels


class ConfigError(ValueError):
    pass


_SECTION_KEYS = {
    "grid": {"n"},
    "model": {"alpha", "s_floor"},
    "potentials": {"V", "W"},
    "initial": {"rho_offset", "rho_modes", "rho_values",
                "mu_offset", "mu_modes", "mu_values"},
    "time": {"t_final", "snapshots", "stepper", "cfl_safety", "eps"},
    "output": {"dir", "precision", "bank_k", "residuals", "moduli"},
    "study": {"levels", "refine_space", "viscosity"},
}


@dataclass(frozen=True)
class RunConfig:
    """A checked configuration; only parse_config builds one, and it owns
    every default."""

    n_cells: int
    alpha: float
    s_floor: float
    modes_V: tuple[Mode, ...]
    modes_W: tuple[Mode, ...]
    rho_offset: float | None
    rho_modes: tuple[Mode, ...]
    rho_values: tuple[float, ...] | None
    mu_offset: float | None
    mu_modes: tuple[Mode, ...]
    mu_values: tuple[float, ...] | None
    t_final: float
    snapshot_times: tuple[float, ...]
    stepper: str
    cfl_safety: float
    eps: float
    out_dir: str
    precision: int
    bank_k: int
    residuals: bool
    moduli: bool
    study_levels: int
    study_refine_space: bool
    study_viscosity: tuple[float, ...]


def _float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: not a finite number: {raw!r}")
    return value


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from None


def _bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: not a boolean: {raw!r}")


def _modes(raw: str, where: str) -> tuple[Mode, ...]:
    modes = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: mode must be k:cos:sin, got {token!r}")
        modes.append((_int(parts[0], where), _float(parts[1], where),
                      _float(parts[2], where)))
    return tuple(modes)


def _floats(raw: str, where: str) -> tuple[float, ...]:
    return tuple(_float(tok, where) for tok in raw.split(",") if tok.strip())


def _checked(where: str, check, *args):
    """check(*args), its ValueError re-raised as a ConfigError naming where."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(f"{where} {err}") from None


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse a config document into a RunConfig that every builder accepts.
    overrides ({section: {key: raw value}}) is applied to the document
    first, so an override gets exactly the checks of the key it sets."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case
    try:
        cp.read_string(text)
        cp.read_dict(overrides or {})
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from None

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    def need(section: str, key: str) -> str:
        if not cp.has_option(section, key):
            raise ConfigError(f"missing required key [{section}] {key}")
        return cp.get(section, key)

    def opt(section: str, key: str, default=None):
        return cp.get(section, key) if cp.has_option(section, key) else default

    n = _int(need("grid", "n"), "[grid] n")
    grid = _checked("[grid]", GridSpec, n)

    alpha = _float(need("model", "alpha"), "[model] alpha")
    s_floor = _float(opt("model", "s_floor", "1e-12"), "[model] s_floor")
    _checked("[model]", Nonlinearity, alpha, s_floor)

    def modes(section: str, key: str) -> tuple[Mode, ...]:
        return _modes(opt(section, key, ""), f"[{section}] {key}")

    modes_V = _checked("[potentials]", check_modes, modes("potentials", "V"), grid, "V")
    modes_W = _checked("[potentials]", check_modes, modes("potentials", "W"), grid, "W")

    def initial_side(prefix: str):
        values = opt("initial", f"{prefix}_values")
        if values is not None:
            for key in (f"{prefix}_offset", f"{prefix}_modes"):
                if cp.has_option("initial", key):
                    raise ConfigError(
                        f"[initial] {prefix}_values and {key} are both set; give one")
            vals = _floats(values, f"[initial] {prefix}_values")
            _checked(f"[initial] {prefix}_values:", Field, grid, vals)
            return None, (), vals
        offset = opt("initial", f"{prefix}_offset")
        if offset is None:
            raise ConfigError(
                f"missing required key [initial] {prefix}_offset (or {prefix}_values)")
        side_modes = _checked("[initial]", check_modes, modes("initial", f"{prefix}_modes"),
                              grid, f"{prefix}_modes")
        return _float(offset, f"[initial] {prefix}_offset"), side_modes, None

    rho_offset, rho_modes, rho_values = initial_side("rho")
    mu_offset, mu_modes, mu_values = initial_side("mu")

    t_final = _float(need("time", "t_final"), "[time] t_final")
    snap_raw = opt("time", "snapshots", "11")
    if "," in snap_raw or "." in snap_raw:
        times = _floats(snap_raw, "[time] snapshots")
    else:
        count = _int(snap_raw, "[time] snapshots")
        if count < 1:
            raise ConfigError("[time] snapshots count must be >= 1")
        times = tuple(np.linspace(0.0, t_final, count)) if t_final > 0.0 else (0.0,)
    if t_final == 0.0:
        times = (0.0,)
    stepper = opt("time", "stepper", "explicit")
    cfl = _float(opt("time", "cfl_safety", "0.5"), "[time] cfl_safety")
    eps = _float(opt("time", "eps", "0"), "[time] eps")
    times = _checked("[time]", check_time, t_final, times, stepper, cfl, eps)

    precision = _int(opt("output", "precision", "17"), "[output] precision")
    if not (1 <= precision <= 17):
        raise ConfigError("[output] precision must lie in [1, 17]")
    bank_k_raw = opt("output", "bank_k")
    if bank_k_raw is None:
        bank_k = default_bank_k(n)
    else:
        bank_k = _int(bank_k_raw, "[output] bank_k")
        if bank_k < 0 or bank_k > n // 4:
            raise ConfigError(f"[output] bank_k must lie in [0, n/4], got {bank_k}")

    levels = _int(opt("study", "levels", "3"), "[study] levels")
    viscosity = _floats(opt("study", "viscosity", ""), "[study] viscosity")
    viscosity = _checked("[study]", check_levels, levels, viscosity)

    return RunConfig(
        n_cells=n, alpha=alpha, s_floor=s_floor,
        modes_V=modes_V, modes_W=modes_W,
        rho_offset=rho_offset, rho_modes=rho_modes, rho_values=rho_values,
        mu_offset=mu_offset, mu_modes=mu_modes, mu_values=mu_values,
        t_final=t_final, snapshot_times=times,
        stepper=stepper, cfl_safety=cfl, eps=eps,
        out_dir=opt("output", "dir", "out"), precision=precision, bank_k=bank_k,
        residuals=_bool(opt("output", "residuals", "true"), "[output] residuals"),
        moduli=_bool(opt("output", "moduli", "true"), "[output] moduli"),
        study_levels=levels,
        study_refine_space=_bool(opt("study", "refine_space", "true"),
                                 "[study] refine_space"),
        study_viscosity=viscosity,
    )


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def dump_config(cfg: RunConfig) -> str:
    """Canonical, lossless re-serialization (used to make runs reproducible
    from their output directory alone)."""
    def modes(ms):
        return ", ".join(f"{k}:{_g17(a)}:{_g17(b)}" for k, a, b in ms)

    lines = [
        "[grid]", f"n = {cfg.n_cells}", "",
        "[model]", f"alpha = {_g17(cfg.alpha)}", f"s_floor = {_g17(cfg.s_floor)}", "",
        "[potentials]", f"V = {modes(cfg.modes_V)}", f"W = {modes(cfg.modes_W)}", "",
        "[initial]",
    ]
    for prefix, offset, ms, values in (
            ("rho", cfg.rho_offset, cfg.rho_modes, cfg.rho_values),
            ("mu", cfg.mu_offset, cfg.mu_modes, cfg.mu_values)):
        if values is not None:
            lines.append(f"{prefix}_values = " + ",".join(_g17(v) for v in values))
        else:
            lines.append(f"{prefix}_offset = {_g17(offset)}")
            lines.append(f"{prefix}_modes = {modes(ms)}")
    lines += [
        "",
        "[time]",
        f"t_final = {_g17(cfg.t_final)}",
        "snapshots = " + ", ".join(_g17(t) for t in cfg.snapshot_times)
        + ("," if len(cfg.snapshot_times) == 1 else ""),  # a lone time is no count
        f"stepper = {cfg.stepper}",
        f"cfl_safety = {_g17(cfg.cfl_safety)}",
        f"eps = {_g17(cfg.eps)}",
        "",
        "[output]",
        f"dir = {cfg.out_dir}",
        f"precision = {cfg.precision}",
        f"bank_k = {cfg.bank_k}",
        f"residuals = {'true' if cfg.residuals else 'false'}",
        f"moduli = {'true' if cfg.moduli else 'false'}",
        "",
        "[study]",
        f"levels = {cfg.study_levels}",
        f"refine_space = {'true' if cfg.study_refine_space else 'false'}",
        "viscosity = " + ",".join(_g17(e) for e in cfg.study_viscosity),
        "",
    ]
    return "\n".join(lines)


def _initial_state(cfg: RunConfig, grid: GridSpec) -> np.ndarray:
    """[rho0; mu0] on grid: each species' inline values, or its offset plus
    its modes at the cell centers."""
    xc = grid.cell_centers()
    return np.stack([
        np.array(values) if values is not None else offset + _trig_eval(modes, xc, 0)
        for offset, modes, values in ((cfg.rho_offset, cfg.rho_modes, cfg.rho_values),
                                      (cfg.mu_offset, cfg.mu_modes, cfg.mu_values))])


def initial_sampler(cfg: RunConfig):
    """Grid-independent initial-state sampler (None for inline value lists)."""
    if cfg.rho_values is not None or cfg.mu_values is not None:
        return None
    return lambda grid: _initial_state(cfg, grid)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    grid = make_grid(cfg.n_cells)
    return ProblemSpec(
        grid=grid,
        nonlinearity=Nonlinearity(cfg.alpha, cfg.s_floor),
        potentials=build_potentials(cfg.modes_V, cfg.modes_W, grid),
        u0=_checked("[initial]", lambda: check_initial(_initial_state(cfg, grid), grid)),
        t_final=cfg.t_final,
        snapshot_times=cfg.snapshot_times,
        eps_viscosity=cfg.eps,
        stepper=cfg.stepper,
        cfl_safety=cfg.cfl_safety,
    )


def build_plan(cfg: RunConfig) -> StudyPlan:
    return StudyPlan(
        base=build_problem(cfg),
        levels=cfg.study_levels,
        refine_space=cfg.study_refine_space,
        viscosity_schedule=cfg.study_viscosity,
        initial_sampler=initial_sampler(cfg),
    )
