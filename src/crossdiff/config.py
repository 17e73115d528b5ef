"""Run configuration: a sectioned key-value document parsed into a RunConfig
that every builder accepts, plus the builders build_problem and build_plan.

Schema (INI syntax; unknown sections or keys are rejected).  The table KEYS
is where every key and its default live:

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

parse_config checks syntax, finiteness, precision in [1, 17], a snapshot
count >= 1 (>= 2 when t_final > 0), bank_k in [0, n/4], that no species
has both values and offset or modes, and that dump_config can write the
output dir back.  Each other value rule has one owner, whose ValueError it
re-raises as a ConfigError prefixed with the section: grid.GridSpec (n),
grid.check_states (the bytes of the (T, 2, n) states, checked from the
snapshot count before the times are built), model.Nonlinearity (alpha,
s_floor), model.check_modes (V, W, rho_modes, mu_modes), grid.Field
(rho_values, mu_values), model.check_time ([time]) and study.check_levels
([study]).  build_problem stacks the initial
profiles into u0 = [rho0; mu0] and adds its positivity
(model.check_initial).  build_plan calls build_problem once per study
level, so every level is checked before any runs.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import default_bank_k
from .grid import Field, GridSpec, check_states, make_grid
from .model import (Mode, Nonlinearity, ProblemSpec, _trig_eval, build_potentials,
                    check_initial, check_modes, check_time)
from .study import StudyPlan, check_levels, prolong


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A checked configuration; only parse_config builds one.  A species
    has either values or an offset and modes; the others are None."""

    n_cells: int
    alpha: float
    s_floor: float
    modes_V: tuple[Mode, ...]
    modes_W: tuple[Mode, ...]
    rho_offset: float | None
    rho_modes: tuple[Mode, ...] | None
    rho_values: tuple[float, ...] | None
    mu_offset: float | None
    mu_modes: tuple[Mode, ...] | None
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


def _dir(raw: str, where: str) -> str:
    """raw, unless configparser would read it back otherwise from run.cfg:
    stripped, cut at a line break, or cut at a '#' or ';' after whitespace."""
    if raw != raw.strip() or re.search(r"[\r\n]|(^|\s)[#;]", raw):
        raise ConfigError(f"{where}: cannot be written back to run.cfg: {raw!r}")
    return raw


def _g17(x: float) -> str:
    return format(float(x), ".17g")


_STR = (lambda raw, where: raw, str)
_INT = (_int, str)
_FLOAT = (_float, _g17)
_FLOATS = (_floats, lambda xs: ",".join(map(_g17, xs)))
_MODES = (_modes, lambda ms: ", ".join(f"{k}:{_g17(a)}:{_g17(b)}" for k, a, b in ms))
_BOOL = (_bool, lambda b: "true" if b else "false")
# a snapshot count, or a list of times (a value with ',' or '.'); a lone
# time is written with a trailing comma, so it reads back as no count
_TIMES = (lambda raw, where: (_floats if "," in raw or "." in raw else _int)(raw, where),
          lambda ts: ", ".join(map(_g17, ts)) + "," * (len(ts) == 1))

REQUIRED = object()

# (section, key, RunConfig field, (parse, format), default): the default is
# a raw value, REQUIRED, or None, which leaves the field to a rule of
# parse_config.  run.cfg lists the keys in this order.
KEYS = (
    ("grid", "n", "n_cells", _INT, REQUIRED),
    ("model", "alpha", "alpha", _FLOAT, REQUIRED),
    ("model", "s_floor", "s_floor", _FLOAT, "1e-12"),
    ("potentials", "V", "modes_V", _MODES, ""),
    ("potentials", "W", "modes_W", _MODES, ""),
    ("initial", "rho_offset", "rho_offset", _FLOAT, None),
    ("initial", "rho_modes", "rho_modes", _MODES, None),
    ("initial", "rho_values", "rho_values", _FLOATS, None),
    ("initial", "mu_offset", "mu_offset", _FLOAT, None),
    ("initial", "mu_modes", "mu_modes", _MODES, None),
    ("initial", "mu_values", "mu_values", _FLOATS, None),
    ("time", "t_final", "t_final", _FLOAT, REQUIRED),
    ("time", "snapshots", "snapshot_times", _TIMES, "11"),
    ("time", "stepper", "stepper", _STR, "explicit"),
    ("time", "cfl_safety", "cfl_safety", _FLOAT, "0.5"),
    ("time", "eps", "eps", _FLOAT, "0"),
    ("output", "dir", "out_dir", (_dir, str), "out"),
    ("output", "precision", "precision", _INT, "17"),
    ("output", "bank_k", "bank_k", _INT, None),
    ("output", "residuals", "residuals", _BOOL, "true"),
    ("output", "moduli", "moduli", _BOOL, "true"),
    ("study", "levels", "study_levels", _INT, "3"),
    ("study", "refine_space", "study_refine_space", _BOOL, "true"),
    ("study", "viscosity", "study_viscosity", _FLOATS, ""),
)


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

    declared = {(section, key) for section, key, *_ in KEYS}
    sections = {section for section, _ in declared}
    for section in cp.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in declared:
                raise ConfigError(f"unknown key [{section}] {key}")

    v = {}  # RunConfig field -> value
    for section, key, field, (parse, _), default in KEYS:
        raw = cp.get(section, key) if cp.has_option(section, key) else default
        if raw is REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        v[field] = None if raw is None else parse(raw, f"[{section}] {key}")

    n = v["n_cells"]
    grid = _checked("[grid]", GridSpec, n)
    _checked("[model]", Nonlinearity, v["alpha"], v["s_floor"])
    for key in ("V", "W"):
        v[f"modes_{key}"] = _checked("[potentials]", check_modes, v[f"modes_{key}"], grid, key)

    for prefix in ("rho", "mu"):
        offset, modes, values = (f"{prefix}_{part}" for part in ("offset", "modes", "values"))
        if v[values] is not None:
            for key in (offset, modes):
                if v[key] is not None:
                    raise ConfigError(f"[initial] {values} and {key} are both set; give one")
            _checked(f"[initial] {values}:", Field, grid, v[values])
        elif v[offset] is None:
            raise ConfigError(f"missing required key [initial] {offset} (or {values})")
        else:
            v[modes] = _checked("[initial]", check_modes, v[modes] or (), grid, modes)

    t_final, times = v["t_final"], v["snapshot_times"]
    if isinstance(times, int):  # a count
        if times < 1:
            raise ConfigError("[time] snapshots count must be >= 1")
        if times < 2 and t_final > 0.0:
            raise ConfigError(f"[time] snapshots count must be >= 2 when t_final > 0, "
                              f"got {times}")
        if not t_final > 0.0:
            times = (0.0,)
    # the states' size, from the count alone: before linspace builds the times
    _checked("[grid] n and [time] snapshots:", check_states,
             times if isinstance(times, int) else len(times), n)
    if isinstance(times, int):
        times = tuple(np.linspace(0.0, t_final, times))
    v["snapshot_times"] = _checked("[time]", check_time, t_final, times, v["stepper"],
                                   v["cfl_safety"], v["eps"])

    if not 1 <= v["precision"] <= 17:
        raise ConfigError("[output] precision must lie in [1, 17]")
    if v["bank_k"] is None:
        v["bank_k"] = default_bank_k(n)
    elif not 0 <= v["bank_k"] <= n // 4:
        raise ConfigError(f"[output] bank_k must lie in [0, n/4], got {v['bank_k']}")

    v["study_viscosity"] = _checked("[study]", check_levels, v["study_levels"],
                                    v["study_viscosity"])
    return RunConfig(**v)


def dump_config(cfg: RunConfig) -> str:
    """Canonical, lossless re-serialization (used to make runs reproducible
    from their output directory alone): every key whose field is set, in
    KEYS order, one section after another."""
    sections: dict[str, list[str]] = {}
    for section, key, field, (_, fmt), _ in KEYS:
        value = getattr(cfg, field)
        if value is not None:
            sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {fmt(value)}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def _initial_state(cfg: RunConfig, grid: GridSpec) -> np.ndarray:
    """[rho0; mu0] on grid: each species' inline values (repeated onto the
    cells of a finer grid), or its offset plus its modes at the cell centers."""
    xc = grid.cell_centers()
    return np.stack([
        prolong(np.array(values), grid.n_cells // len(values)) if values is not None
        else offset + _trig_eval(modes, xc, 0)
        for offset, modes, values in ((cfg.rho_offset, cfg.rho_modes, cfg.rho_values),
                                      (cfg.mu_offset, cfg.mu_modes, cfg.mu_values))])


def build_problem(cfg: RunConfig) -> ProblemSpec:
    """The problem of cfg; the only code that builds one from a config."""
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
    """The study of cfg.  Level l is build_problem of cfg with n * 2^l cells
    (n when [study] refine_space is off) and eps the l-th entry of [study]
    viscosity, or eps * 2^-l when that schedule is empty.  Every level's
    grid, and the size of all levels' states together, is checked before
    any level is built (so a level over the cell cap or a study over
    grid.MAX_STATE_BYTES allocates nothing), and every level is built and
    its initial state checked before any level runs."""
    grids = [_checked(f"[study] level {level}:", GridSpec,
                      cfg.n_cells * 2**level if cfg.study_refine_space else cfg.n_cells)
             for level in range(cfg.study_levels)]
    # run_study returns every level's states to this process
    _checked("[grid] n, [time] snapshots and [study] levels:", check_states,
             len(cfg.snapshot_times), sum(grid.n_cells for grid in grids))
    problems = []
    for level, grid in enumerate(grids):
        eps = cfg.study_viscosity[level] if cfg.study_viscosity else cfg.eps * 0.5**level
        problems.append(_checked(f"[study] level {level}:", build_problem,
                                 replace(cfg, n_cells=grid.n_cells, eps=eps)))
    return StudyPlan(tuple(problems))
