import contextlib
import dataclasses
import errno
import fcntl
import functools
import io
import math
import mmap
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossdiff
import crossdiff._stream
import crossdiff.cli
import crossdiff.config
import crossdiff.grid
import crossdiff.solver
import crossdiff.study
from crossdiff import _chunks, csvio
from crossdiff.cli import main
from crossdiff.config import (KEYS, ConfigError, RunConfig, build_plan, build_problem,
                              dump_config, parse_config)
from crossdiff.csvio import (read_snapshots, read_table, write_report_csv,
                             write_snapshots, write_study_csv)
from crossdiff.diagnostics import SCALAR_COLUMNS, DiagnosticsReport, ResidualRow
from crossdiff.model import STEPPERS
from crossdiff.study import LevelSummary
from crossdiff.svgplot import emit_plot
from conftest import assert_no_child_left, use_cpus
from scenarios import fast_problem, heat_problem

MINIMAL = """
[grid]
n = 128

[model]
alpha = 1.0

[initial]
rho_offset = 0.5
mu_offset = 0.5

[time]
t_final = 0.05
"""

FAST = """
[grid]
n = 64

[model]
alpha = 0.5

[potentials]
V = 1:0:1
W = 1:1:0

[initial]
rho_offset = 0.5
rho_modes = 1:0.2:0
mu_offset = 0.5
mu_modes = 1:0.2:0

[time]
t_final = 0.01
snapshots = 5

[output]
bank_k = 4
"""


# --------------------------------------------------------------------------
# config parsing


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n_cells == 128
    assert cfg.alpha == 1.0
    assert cfg.eps == 0.0
    assert cfg.cfl_safety == 0.5
    assert cfg.stepper == "explicit"
    assert cfg.bank_k == 8
    assert cfg.s_floor == 1e-12
    assert cfg.precision == 17
    assert len(cfg.snapshot_times) == 11
    assert cfg.snapshot_times[0] == 0.0
    assert cfg.snapshot_times[-1] == 0.05


def test_parse_alpha_range():
    with pytest.raises(ConfigError, match=r"alpha out of range \(0,1\]"):
        parse_config(MINIMAL.replace("alpha = 1.0", "alpha = 1.5"))


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match=r"unknown key \[grid\] m"):
        parse_config(MINIMAL.replace("n = 128", "n = 128\nm = 3"))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_parse_missing_required():
    with pytest.raises(ConfigError, match=r"missing required key \[time\] t_final"):
        parse_config(MINIMAL.replace("t_final = 0.05", "").replace("[time]", "[time]"))


def test_parse_mode_guard():
    bad = MINIMAL + "\n[potentials]\nV = 100:1:0\n"
    with pytest.raises(ConfigError, match="mode exceeds n/4"):
        parse_config(bad)
    # initial modes obey the same rule as V and W
    bad = MINIMAL.replace("rho_offset = 0.5", "rho_offset = 1\nrho_modes = -1:0.2:0")
    with pytest.raises(ConfigError, match=r"\[initial\] rho_modes: negative wavenumber -1"):
        parse_config(bad)


def test_parse_inline_values():
    vals = ",".join(["0.5"] * 16)
    text = MINIMAL.replace("n = 128", "n = 16").replace(
        "rho_offset = 0.5", f"rho_values = {vals}")
    cfg = parse_config(text)
    assert cfg.rho_values is not None and len(cfg.rho_values) == 16
    prob = build_problem(cfg)
    assert np.all(prob.u0[0] == 0.5)


@pytest.mark.parametrize("species, key, line", [
    ("rho", "rho_modes", "rho_modes = 99:1:0"),  # out of range, and used to be dropped
    ("rho", "rho_offset", "rho_offset = 0.5"),
    ("mu", "mu_modes", "mu_modes ="),
    ("mu", "mu_offset", "mu_offset = 0.5"),
])
def test_parse_rejects_values_beside_offset_or_modes(species, key, line):
    vals = ",".join(["0.5"] * 16)
    text = MINIMAL.replace("n = 128", "n = 16").replace(
        f"{species}_offset = 0.5", f"{species}_values = {vals}\n{line}")
    with pytest.raises(ConfigError, match=rf"^\[initial\] {species}_values and {key} "
                                          "are both set; give one$"):
        parse_config(text)


def test_parse_snapshot_list():
    text = MINIMAL.replace("t_final = 0.05",
                           "t_final = 0.05\nsnapshots = 0, 0.02, 0.05")
    cfg = parse_config(text)
    assert cfg.snapshot_times == (0.0, 0.02, 0.05)
    with pytest.raises(ConfigError, match="must end at t_final"):
        parse_config(MINIMAL.replace("t_final = 0.05",
                                     "t_final = 0.05\nsnapshots = 0, 0.02"))


def test_main_snapshot_count_names_the_key(tmp_path, capsys):
    # one snapshot cannot reach t_final > 0; the error used to name only the times
    cfg = _write_cfg(tmp_path, MINIMAL.replace("t_final = 0.05",
                                               "t_final = 0.01\nsnapshots = 1"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: 2: [time] snapshots count must be >= 2 when t_final > 0, got 1\n")
    assert not (tmp_path / "o").exists()
    # with t_final = 0 the one snapshot is the whole run
    zero = parse_config(MINIMAL.replace("t_final = 0.05", "t_final = 0\nsnapshots = 1"))
    assert zero.snapshot_times == (0.0,)


def test_main_snapshot_list_at_t_final_zero_keeps_the_time_rules(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("t_final = 0.05",
                                               "t_final = 0\nsnapshots = 0, 1, 2"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 2: [time] snapshot_times must end at t_final 0.0, got 2.0")
    assert not (tmp_path / "o").exists()


def test_parse_nonpositive_initial_rejected():
    text = MINIMAL.replace("rho_offset = 0.5", "rho_offset = -0.5")
    with pytest.raises(ConfigError, match="nonpositive density"):
        build_problem(parse_config(text))


@pytest.mark.parametrize("study, message", [
    ("levels = 2\nviscosity = 1e-3", r"one entry per level \(2\), got 1"),
    ("levels = 2\nviscosity = 1e-3, 5e-4, 2.5e-4", r"one entry per level \(2\), got 3"),
    ("levels = 2\nviscosity = -1e-3, 1e-3", "must be finite and nonnegative"),
    ("levels = 2\nviscosity = 1e-3, nan", "not a finite number"),
])
def test_parse_rejects_bad_viscosity_schedule(study, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(FAST + "\n[study]\n" + study + "\n")


def test_dump_config_round_trip():
    for text in (MINIMAL, FAST):
        cfg = parse_config(text)
        assert parse_config(dump_config(cfg)) == cfg


def test_dump_config_bytes():
    # inline values, a lone snapshot time and a viscosity list; every
    # default written out, floats with 17 significant digits
    text = """
[grid]
n = 4
[model]
alpha = 0.3
[potentials]
V = 1:0:1
[initial]
rho_values = 0.5, 1, 1.5, 2
mu_offset = 0.5
mu_modes = 1:0.2:0
[time]
t_final = 0
snapshots = 0,
stepper = semi-implicit
[output]
moduli = no
[study]
levels = 2
viscosity = 1e-3, 5e-4
"""
    assert dump_config(parse_config(text)) == """\
[grid]
n = 4

[model]
alpha = 0.29999999999999999
s_floor = 9.9999999999999998e-13

[potentials]
V = 1:0:1
W = 

[initial]
rho_values = 0.5,1,1.5,2
mu_offset = 0.5
mu_modes = 1:0.20000000000000001:0

[time]
t_final = 0
snapshots = 0,
stepper = semi-implicit
cfl_safety = 0.5
eps = 0

[output]
dir = out
precision = 17
bank_k = 1
residuals = true
moduli = false

[study]
levels = 2
refine_space = true
viscosity = 0.001,0.00050000000000000001
"""


def test_every_field_and_flag_is_one_declared_key():
    fields = [field for _, _, field, _, _ in KEYS]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
    declared = {(section, key) for section, key, *_ in KEYS}
    assert len(declared) == len(KEYS)
    assert set(crossdiff.cli._FLAG_KEYS.values()) <= declared


RULES = ("n", "alpha", "s_floor", "V", "W", "rho_modes", "mu_modes", "rho_values",
         "mu_values", "t_final", "snapshots", "stepper", "cfl_safety", "eps", "dir",
         "precision", "bank_k", "levels", "viscosity")


@st.composite
def _config_texts(draw, broken):
    """A config document whose values all sit on or next to the edge of
    their rule, except the one named broken (None for none), which sits
    just across it."""
    def pick(rule, good, bad):
        return draw(st.sampled_from(bad if rule == broken else good))

    n = pick("n", (4, 5, 8, 16), (2, 3))
    t_final = pick("t_final", (0.0, 1e-13, 0.01), (-1e-3, -5e-324))
    tol = 1e-12 * max(1.0, t_final)

    def modes(rule):
        ks = draw(st.lists(st.sampled_from((0, 1, n // 4)), max_size=2))
        if rule == broken:
            ks.append(draw(st.sampled_from((-1, n // 4 + 1))))
        return ", ".join(f"{k}:0.1:0.05" for k in ks)

    lines = ["[grid]", f"n = {n}", "[model]",
             f"alpha = {pick('alpha', (1.0, 0.5, 1e-3, 5e-324), (0.0, -0.5, 1.0 + 2**-52))!r}",
             f"s_floor = {pick('s_floor', (1e-12, 5e-324), (0.0, -1e-12))!r}",
             "[potentials]", f"V = {modes('V')}", f"W = {modes('W')}", "[initial]"]
    for prefix in ("rho", "mu"):
        if draw(st.booleans()):
            count = pick(f"{prefix}_values", (n,), (n - 1, n + 1))
            lines.append(f"{prefix}_values = " + ", ".join(["0.5"] * count))
        else:
            lines += [f"{prefix}_offset = 1", f"{prefix}_modes = {modes(prefix + '_modes')}"]
    if draw(st.booleans()):
        fewest = 2 if t_final > 0.0 else 1  # snapshots a count may ask for
        snapshots = pick("snapshots", (fewest, fewest + 1), (fewest - 1,))
    else:
        times = [pick("snapshots", (0.0, -0.0, -0.5 * tol), (2 * tol,))]
        times += [t_final / 2] * (t_final > 1e-6) * (2 if broken == "snapshots" else 1)
        if t_final > 0.0 or broken == "snapshots":  # at t_final = 0 the start is the end
            times.append(t_final + pick("snapshots", (0.0, 0.5 * tol), (-2 * tol, 2 * tol)))
        snapshots = ", ".join(map(repr, times)) + "," * (len(times) == 1)
    lines += ["[time]", f"t_final = {t_final!r}", f"snapshots = {snapshots}",
              f"stepper = {pick('stepper', STEPPERS, ('rk4', 'Explicit'))}",
              f"cfl_safety = {pick('cfl_safety', (1.0, 0.5, 5e-324), (0.0, 1.0 + 2**-52))!r}",
              f"eps = {pick('eps', (0.0, -0.0, 1e-3, 5e-324), (-5e-324, -1e-3))!r}",
              "[output]", f"precision = {pick('precision', (1, 17), (0, 18))}"]
    # a continuation line puts a line break in dir, which run.cfg cannot hold
    out_dir = pick("dir", (None, "out", "a b", "-dir", "x#y;z", "r #1"), ("a\n  b",))
    bank_k = pick("bank_k", (None, 0, n // 4), (-1, n // 4 + 1))
    for key, value in (("dir", out_dir), ("bank_k", bank_k),
                       ("residuals", draw(st.sampled_from((None, "true", "no")))),
                       ("moduli", draw(st.sampled_from((None, "false", "On"))))):
        if value is not None:
            lines.append(f"{key} = {value}")
    levels = pick("levels", (2, 3), (0, 1))
    viscosity = [draw(st.sampled_from((0.0, -0.0, 1e-3))) for _ in range(levels)]
    if broken == "viscosity":
        viscosity = draw(st.sampled_from((viscosity[1:], viscosity + [1e-3],
                                          viscosity[1:] + [-1e-3])))
    elif draw(st.booleans()):
        viscosity = []
    lines += ["[study]", f"levels = {levels}",
              f"refine_space = {draw(st.sampled_from(('true', 'false', '0')))}",
              "viscosity = " + ", ".join(map(repr, viscosity))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("broken", (None,) + RULES)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_parse_config_is_the_only_gate(broken, data):
    """parse_config accepts a config with every value on the good side of its
    rule's edge; anything it accepts, both builders accept and dump_config
    writes back unchanged."""
    text = data.draw(_config_texts(broken))
    try:
        cfg = parse_config(text)
    except ConfigError:
        assert broken is not None
        return
    build_problem(cfg)
    build_plan(cfg)
    assert parse_config(dump_config(cfg)) == cfg


def test_build_plan():
    plan = build_plan(parse_config(FAST + "\n[study]\nlevels = 3\n"))
    assert [p.grid.n_cells for p in plan.problems] == [64, 128, 256]
    # every level samples the configured modes on its own grid
    fine = build_problem(parse_config(FAST.replace("n = 64", "n = 256")))
    assert np.array_equal(plan.problems[2].u0, fine.u0)
    assert np.array_equal(plan.problems[2].potentials.cells, fine.potentials.cells)
    # inline values repeat onto each refined grid; the other species' modes
    # are sampled on it
    vals = [0.5, 1.0, 1.5, 2.0]
    text = FAST.replace("n = 64", "n = 4").replace("bank_k = 4", "bank_k = 1").replace(
        "rho_offset = 0.5\nrho_modes = 1:0.2:0", "rho_values = 0.5, 1, 1.5, 2")
    plan = build_plan(parse_config(text + "\n[study]\nlevels = 3\n"))
    for level, problem in enumerate(plan.problems):
        assert np.array_equal(problem.u0[0], np.repeat(vals, 2**level))
    mu = build_problem(parse_config(FAST.replace("n = 64", "n = 16"))).u0[1]
    assert np.array_equal(plan.problems[2].u0[1], mu)
    # refine_space off: every level keeps the configured grid
    plan = build_plan(parse_config(text + "\n[study]\nlevels = 2\nrefine_space = false\n"))
    assert [p.grid.n_cells for p in plan.problems] == [4, 4]


# --------------------------------------------------------------------------
# CSV round trips


def _tiny_report(rng):
    nt = 3
    cols = {name: rng.normal(size=nt) for name in (
        "mass_rho", "mass_mu", "entropy", "energy", "diss_entropy",
        "diss_beta_a", "diss_beta_1ma", "fisher_log", "bv_r", "bv_u",
        "norm_S_2ma", "sup_S_pow", "h_minus_one")}
    return DiagnosticsReport(
        times=np.array([0.0, 0.1, 0.2]),
        omega_space_h=np.array([0.25, 0.5]),
        omega_space_rho=rng.random(2), omega_space_mu=rng.random(2),
        omega_time_k=np.array([0.1]),
        omega_time_rho=rng.random(1), omega_time_mu=rng.random(1),
        residuals=(ResidualRow("cos1_chi1", "rho", rng.normal()),
                   ResidualRow("cos1_chi1", "mu", rng.normal())),
        residual_max=0.1, **cols)


def test_write_report_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rep = _tiny_report(rng)
    write_report_csv(rep, tmp_path)
    header, data = read_table(tmp_path / "scalars.csv")
    assert ",".join(header) == ("t,mass_rho,mass_mu,entropy,energy,diss_entropy,"
                                "diss_beta_a,diss_beta_1ma,fisher_log,bv_r,bv_u,"
                                "norm_S_2ma,sup_S_pow,h_minus_one")
    assert data.shape == (3, 14)
    assert np.array_equal(data[:, 0], rep.times)        # 17g is lossless
    assert np.array_equal(data[:, 3], rep.entropy)
    header, data = read_table(tmp_path / "omega_space.csv")
    assert header == ["h", "omega_rho", "omega_mu"]
    assert np.array_equal(data[:, 1], rep.omega_space_rho)
    rows = (tmp_path / "residuals.csv").read_text().strip().split("\n")
    assert rows[0] == "phi_id,species,residual"
    assert len(rows) == 3
    assert float(rows[1].split(",")[2]) == rep.residuals[0].residual


def test_write_report_csv_empty_residuals(tmp_path):
    rng = np.random.default_rng(1)
    rep = _tiny_report(rng)
    rep = DiagnosticsReport(**{**rep.__dict__, "residuals": ()})
    write_report_csv(rep, tmp_path)
    assert (tmp_path / "residuals.csv").read_text() == "phi_id,species,residual\n"


def test_single_row_scalars(tmp_path):
    rng = np.random.default_rng(2)
    rep = _tiny_report(rng)
    one = {k: (v[:1] if isinstance(v, np.ndarray) and v.shape == (3,) else v)
           for k, v in rep.__dict__.items()}
    write_report_csv(DiagnosticsReport(**one), tmp_path)
    assert len((tmp_path / "scalars.csv").read_text().strip().split("\n")) == 2


# Reference copies of the per-value writers and the per-row parser that the
# %-template writers and the flat parser in csvio replaced.  The new code must
# give the same bytes and the same arrays.

def _fmt_ref(x, precision):
    return format(float(x), f".{precision}g")


def _text_ref(lines):
    return "\n".join(lines) + "\n"


def _snapshot_text_ref(xc, rho, mu, precision):
    return _text_ref(["x,rho,mu"] + [",".join(_fmt_ref(v, precision) for v in row)
                                     for row in zip(xc, rho, mu)])


def _report_texts_ref(report, precision):
    lines = ["t," + ",".join(SCALAR_COLUMNS)]
    for i, t in enumerate(report.times):
        row = [t] + [getattr(report, col)[i] for col in SCALAR_COLUMNS]
        lines.append(",".join(_fmt_ref(x, precision) for x in row))
    texts = {"scalars.csv": _text_ref(lines)}
    for name, head, cols in (
            ("omega_space.csv", "h,omega_rho,omega_mu",
             (report.omega_space_h, report.omega_space_rho, report.omega_space_mu)),
            ("omega_time.csv", "k,omega_rho,omega_mu",
             (report.omega_time_k, report.omega_time_rho, report.omega_time_mu))):
        texts[name] = _text_ref([head] + [",".join(_fmt_ref(v, precision) for v in row)
                                          for row in zip(*cols)])
    texts["residuals.csv"] = _text_ref(
        ["phi_id,species,residual"]
        + [f"{r.phi_id},{r.species},{_fmt_ref(r.residual, precision)}"
           for r in report.residuals])
    return texts


def _study_texts_ref(report, precision):
    levels = ["level,n_cells,eps,mass_rho,mass_mu,entropy_min,entropy_max,sup_bv_u,int_diss"]
    for s in report.summaries:
        levels.append(",".join(
            [str(s.level), str(s.n_cells)]
            + [_fmt_ref(v, precision) for v in
               (s.eps, s.mass_rho, s.mass_mu, s.entropy_min, s.entropy_max,
                s.sup_bv_u, s.int_diss)]))
    cauchy = ["pair,cauchy_rho,cauchy_mu"]
    for i, (cr, cm) in enumerate(zip(report.cauchy_rho, report.cauchy_mu)):
        cauchy.append(f"{i}-{i + 1},{_fmt_ref(cr, precision)},{_fmt_ref(cm, precision)}")
    rates = ["name,value",
             f"weak_residual_order,{_fmt_ref(report.rate_weak_residual, precision)}",
             f"reference_error_order,{_fmt_ref(report.rate_reference_error, precision)}"]
    return {"levels.csv": _text_ref(levels), "cauchy_l1.csv": _text_ref(cauchy),
            "rates.csv": _text_ref(rates)}


def _read_table_ref(path):
    rows = Path(path).read_text().strip().split("\n")
    header = rows[0].split(",")
    if len(rows) == 1:
        return header, np.zeros((0, len(header)))
    return header, np.array([[float(v) for v in row.split(",")] for row in rows[1:]])


EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1 / 3,
               np.inf, -np.inf, np.nan)


@st.composite
def _table_cases(draw):
    """(precision, (3, n) array): positive floats mixed with edge values."""
    n = draw(st.integers(1, 64))
    value = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                      st.sampled_from(EDGE_FLOATS))
    values = draw(st.lists(value, min_size=3 * n, max_size=3 * n))
    return draw(st.integers(1, 17)), np.array(values).reshape(3, n)


def _write_case(out, precision, vals):
    """Write two snapshots, a report and a study table from one drawn case."""
    xc, rho, mu = vals
    n = len(xc)
    grid = SimpleNamespace(cell_centers=lambda: xc.copy())
    traj = SimpleNamespace(problem=SimpleNamespace(grid=grid), times=np.array([0.0, 0.5]),
                           states=np.array([[rho, mu], [mu, rho]]))
    snapshots = write_snapshots(traj, out, precision)
    flat = vals.ravel()
    cols = {name: np.roll(flat, k)[:n] for k, name in enumerate(SCALAR_COLUMNS, 1)}
    report = DiagnosticsReport(
        times=xc, omega_space_h=xc, omega_space_rho=rho, omega_space_mu=mu,
        omega_time_k=mu[::2], omega_time_rho=rho[::2], omega_time_mu=xc[::2],
        residuals=tuple(ResidualRow(f"cos{i}_chi1", ("rho", "mu")[i % 2], v)
                        for i, v in enumerate(flat)),
        residual_max=0.0, **cols)
    summaries = tuple(LevelSummary(i, 16 << i, *np.resize(np.roll(flat, i), 7))
                      for i in range(min(n, 4)))
    study = SimpleNamespace(summaries=summaries, cauchy_rho=tuple(rho[1:]),
                            cauchy_mu=tuple(mu[1:]), rate_weak_residual=xc[0],
                            rate_reference_error=rho[0])
    return (snapshots, write_report_csv(report, out, precision),
            write_study_csv(study, out / "study", precision), (traj, report, study))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_table_cases())
def test_writers_match_per_value_reference(case):
    precision, vals = case
    with tempfile.TemporaryDirectory() as tmp:
        snapshots, reports, studies, (traj, report, study) = _write_case(
            Path(tmp), precision, vals)
        assert [p.name for p in snapshots] == ["snapshot_0.csv", "snapshot_0.5.csv"]
        for path, (rho, mu) in zip(snapshots, traj.states):
            assert path.read_text() == _snapshot_text_ref(vals[0], rho, mu, precision)
        expected = {**_report_texts_ref(report, precision),
                    **_study_texts_ref(study, precision)}
        written = {p.name: p.read_text() for p in reports + studies}
        assert written == expected


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_table_cases())
def test_read_table_matches_per_row_reference(case):
    precision, vals = case
    with tempfile.TemporaryDirectory() as tmp:
        snapshots, reports, studies, _ = _write_case(Path(tmp), precision, vals)
        for path in snapshots + reports[:3] + studies[:1]:  # the numeric tables
            header, data = read_table(path)
            ref_header, ref_data = _read_table_ref(path)
            assert header == ref_header
            assert data.shape == ref_data.shape and data.tobytes() == ref_data.tobytes()
        empty = Path(tmp) / "empty.csv"
        for text in ("x,rho,mu\n", "x,rho,mu"):  # header only, as plot may meet it
            empty.write_text(text)
            header, data = read_table(empty)
            assert header == ["x", "rho", "mu"] and data.shape == (0, 3)


# --------------------------------------------------------------------------
# the snapshot text kernel against `%`


def _kernel_texts(values, precision):
    text, done = csvio._format_fixed(np.asarray(values, dtype=np.float64), precision)
    return [row.tobytes().translate(None, b"\0").decode() for row in text], done


def _fixed_with_positive_shift(x, precision):
    """Whether `%.{precision}g` prints x in fixed notation, x > 0, and the
    kernel's shift t = 53 - s - e is positive: the values it must cover."""
    text = format(x, f".{precision}g")
    if not (math.isfinite(x) and x > 0) or "e" in text:
        return False
    scale = precision - 1 - Decimal(text).adjusted()  # s = p - 1 - E
    return 53 - scale - math.frexp(x)[1] >= 1


@st.composite
def _kernel_cases(draw):
    """(precision, values): doubles of every kind the kernel meets or must
    turn down, at one drawn precision."""
    p = draw(st.integers(1, 17))
    bits = draw(st.lists(st.integers(1, 0x7FEFFFFFFFFFFFFF), max_size=24))
    logs = draw(st.lists(st.floats(-5, 18, exclude_max=True), max_size=24))
    odd = draw(st.lists(st.integers(0, 2**p - 1), max_size=24))
    tens = 10.0 ** np.array(draw(st.lists(st.integers(-6, 18), max_size=8)), dtype=float)
    return p, np.concatenate([
        np.array(bits, dtype=np.int64).view(np.float64),  # any positive double
        10.0 ** np.array(logs, dtype=float),  # log-uniform in [1e-5, 1e18)
        (2 * np.array(odd, dtype=float) + 1) / 2.0 ** (p + 1),  # exact ties
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        tens * (1 - 4 * 10.0 ** -(p + 1)),  # rounds up to a power of ten
        [0.99999999999999999, 9.5, *EDGE_FLOATS, -2.5]])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_kernel_cases())
def test_format_fixed_gives_the_bytes_of_percent_g(case):
    precision, values = case
    texts, done = _kernel_texts(values, precision)
    for x, text, covered in zip(values.tolist(), texts, done):
        if covered:
            assert text == format(x, f".{precision}g"), (x, precision)
        else:
            assert not _fixed_with_positive_shift(x, precision), (x, precision)


def test_format_fixed_rounds_ties_to_even():
    assert _kernel_texts([0.25, 0.75], 1)[0] == ["0.2", "0.8"]
    assert _kernel_texts([0.500003814697265625], 17)[0] == ["0.50000381469726562"]


def _duck_trajectory(xc, states):
    grid = SimpleNamespace(cell_centers=lambda: xc.copy())
    return SimpleNamespace(problem=SimpleNamespace(grid=grid),
                           times=np.linspace(0.0, 1.0, len(states)), states=states)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 17), st.integers(1, 48), st.data())
def test_a_snapshot_the_kernel_does_not_cover_is_written_whole_by_percent(precision, n, data):
    # values in fixed notation below 2^40; one snapshot gets one value outside
    top = min(precision - 1, 12)
    logs = data.draw(st.lists(st.floats(-3, top, exclude_max=True), min_size=4 * n,
                              max_size=4 * n))
    states = (10.0 ** np.array(logs)).reshape(2, 2, n)
    at = data.draw(st.integers(0, 2 * n - 1))
    states[1].reshape(-1)[at] = data.draw(st.sampled_from([0.0, 5e-324, 5e-5, 1e300, 1e17]))
    assert csvio._format_fixed(states[0].ravel(), precision)[1].all()
    assert not csvio._format_fixed(states[1].ravel(), precision)[1].all()
    xc = (np.arange(n) + 0.5) / n
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_snapshots(_duck_trajectory(xc, states), tmp, precision)
        for path, (rho, mu) in zip(paths, states):
            assert path.read_text() == _snapshot_text_ref(xc, rho, mu, precision)


@pytest.mark.parametrize("problem", [lambda: fast_problem(512),
                                     lambda: heat_problem(2048, snaps=5, t_final=1e-4)],
                         ids=["fast-512", "heat-2048"])
def test_every_snapshot_of_a_scenario_goes_through_the_kernel(tmp_path, monkeypatch, problem):
    lines = csvio._lines

    def snapshot_rows_refused(row, values, precision):
        assert row != "%s,%g,%g", "a snapshot was written by %"
        return lines(row, values, precision)

    monkeypatch.setattr(csvio, "_lines", snapshot_rows_refused)
    traj = crossdiff.run(problem())
    paths = write_snapshots(traj, tmp_path)
    xc = traj.problem.grid.cell_centers()
    for path, (rho, mu) in zip(paths, traj.states):
        assert path.read_text() == _snapshot_text_ref(xc, rho, mu, 17)


def test_write_snapshots_peak_memory_is_set_by_one_snapshot(tmp_path, monkeypatch):
    # one snapshot's 2n values are formatted at a time: the peak is its text
    # and the kernel's temporaries, about 43 times the snapshot's states
    # whatever the snapshot count; 2^16 values a call read 374 times
    use_cpus(monkeypatch, 1)
    n, snaps = 2048, 64
    states = 0.5 + np.random.default_rng(0).random((snaps, 2, n))
    traj = _duck_trajectory((np.arange(n) + 0.5) / n, states)
    tracemalloc.start()
    try:
        write_snapshots(traj, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(list(tmp_path.iterdir())) == snaps
    assert peak < 64 * states[0].nbytes, peak / states[0].nbytes


def _read_table_float_pass(path):
    """read_table as it was before the numpy tokenizer, verbatim."""
    head, _, body = Path(path).read_text().strip().partition("\n")
    header = head.split(",")
    if not body:
        return header, np.zeros((0, len(header)))
    rows = body.split("\n")
    commas = [row.count(",") for row in rows]
    if commas.count(commas[0]) != len(commas):
        i = next(i for i, c in enumerate(commas) if c != commas[0])
        raise ValueError(f"ragged rows: line {i + 2} holds {commas[i] + 1} values, "
                         f"line 2 holds {commas[0] + 1}")
    data = np.array(list(map(float, body.replace("\n", ",").split(","))))
    return header, data.reshape(len(rows), commas[0] + 1)


def _read_outcome(read, path):
    """(header, shape, bytes) of what `read` returns, or its error text."""
    try:
        header, data = read(path)
    except ValueError as err:
        return str(err)
    return header, data.shape, data.dtype.str, data.tobytes()


_PAD = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003"])
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0", "5e-324", "-4.9e-324", "2.2250738585072009e-308", "1e-400",
                     "1e999", "inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "1.", ".5"]))
_JUNK = st.sampled_from(["1_0", "1__0", "_1", "0x1p3", "0X10", "\u0661\u0662", "\uff11",
                         "", " ", '"1"', "'2'", "abc", "1e", "1 2", "#1", "\x00"])
# loadtxt strips these around a value as whitespace, float rejects them
_SEPARATOR_PAD = st.sampled_from(["", "", "\x1c", "\x1d", "\x1e", "\x1f"])


@st.composite
def _token_tables(draw):
    """CSV text: a header over rows of padded tokens.  A third of the tables
    are clean, a third pad values with \\x1c-\\x1f, and in the rest rows may
    be ragged, hold junk or trailing commas, or be blank.  Lines end in \\n
    or \\r\\n."""
    kind = draw(st.sampled_from(["clean", "separator", "dirty"]))
    token = st.one_of(_NUMBER, _JUNK) if kind == "dirty" else _NUMBER
    pad = _SEPARATOR_PAD if kind == "separator" else _PAD
    defect = st.integers(0, 7).map(lambda i: i == 0) if kind == "dirty" else st.just(False)
    n_cols = draw(st.integers(1, 4))
    ragged = draw(defect)
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(defect):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        k = draw(st.integers(1, 4)) if ragged else n_cols
        line = ",".join(draw(pad) + draw(token) + draw(pad) for _ in range(k))
        lines.append(line + ("," if draw(defect) else ""))
    text = "x,rho,mu\n" + "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                                   for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_token_tables())
def test_read_table_matches_float_pass(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _read_outcome(read_table, path)
        assert outcome == _read_outcome(_read_table_float_pass, path)


def test_read_table_blank_interior_line_keeps_float_pass_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,2\n\n3,4\n")  # loadtxt alone would skip the blank line
    with pytest.raises(ValueError, match="^ragged rows: line 3 holds 1 values, line 2 holds 2$"):
        read_table(path)
    path.write_text("x\n1\n\n3\n")  # one column: the blank is an empty value
    with pytest.raises(ValueError, match="^could not convert string to float: ''$"):
        read_table(path)


# --------------------------------------------------------------------------
# SVG


def test_emit_plot_polyline_count(tmp_path):
    path = emit_plot([("a", [0.0, 1.0], [1.0, 2.0])], tmp_path / "p.svg")
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "<svg" in text and "</svg>" in text


def test_emit_plot_deterministic(tmp_path):
    series = [("a", [0.0, 0.5, 1.0], [1.0, 0.5, 2.0]),
              ("b", [0.0, 0.5, 1.0], [2.0, 2.5, 1.0])]
    p1 = emit_plot(series, tmp_path / "p1.svg")
    p2 = emit_plot(series, tmp_path / "p2.svg")
    assert p1.read_bytes() == p2.read_bytes()


def test_main_plot_escapes_markup_in_names(tmp_path):
    table = tmp_path / "a&b<c>.csv"
    table.write_text("x,rho<mu & y\n0,1\n1,2\n")
    assert main(["plot", str(table), "--out", str(tmp_path)]) == 0
    texts = [el.text for el in ET.parse(tmp_path / "a&b<c>.svg").iter()
             if el.tag.endswith("text")]
    assert texts[0] == "a&b<c>.csv" and texts[-1] == "rho<mu & y"


def test_emit_plot_errors(tmp_path):
    with pytest.raises(ValueError, match="empty series"):
        emit_plot([], tmp_path / "x.svg")
    with pytest.raises(ValueError, match=">= 2"):
        emit_plot([("a", [1.0], [1.0])], tmp_path / "x.svg")
    with pytest.raises(ValueError, match="nonpositive value on log axis"):
        emit_plot([("a", [1.0, 2.0], [0.0, 1.0])], tmp_path / "x.svg", loglog=True)
    with pytest.raises(ValueError, match="non-finite"):
        emit_plot([("a", [1.0, 2.0], [np.nan, 1.0])], tmp_path / "x.svg")


# --------------------------------------------------------------------------
# CLI end to end


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_cli(args, timeout=60, address_limit=None):
    """`python -m crossdiff.cli *args` in a fresh interpreter, killed after
    timeout seconds.  address_limit (bytes) caps the child's address space
    alone, with one BLAS thread, whose pools would reserve address space."""
    env = dict(os.environ, PYTHONPATH=str(Path(crossdiff.__file__).resolve().parents[1]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (address_limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    if address_limit is not None:
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "crossdiff.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout,
                          preexec_fn=limit if address_limit is not None else None)


def test_main_run_stationary(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, data = read_table(out / "scalars.csv")
    assert data.shape[0] == 11
    for j in range(1, data.shape[1]):
        col = data[:, j]
        assert np.max(np.abs(col - col[0])) <= 1e-12 * max(1.0, abs(col[0]))
    assert (out / "run.cfg").exists()
    assert len(list(out.glob("snapshot_*.csv"))) == 11


def test_main_rejects_bad_alpha(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("alpha = 1.0", "alpha = 2"))
    code = main(["run", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "alpha out of range" in captured.err
    assert captured.err.startswith("error: 2:")


def test_main_missing_config(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_main_run_is_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    for name in ("scalars.csv", "omega_space.csv", "omega_time.csv",
                 "residuals.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for snap in out1.glob("snapshot_*.csv"):
        assert snap.read_bytes() == (out2 / snap.name).read_bytes()


def test_main_diagnose_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "run_out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    re_out = tmp_path / "rediag"
    assert main(["diagnose", str(out), "--out", str(re_out)]) == 0
    for name in ("scalars.csv", "omega_space.csv", "omega_time.csv",
                 "residuals.csv"):
        assert (out / name).read_bytes() == (re_out / name).read_bytes()


def test_main_diagnose_builds_problem_once(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "run_out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(crossdiff.cli, "build_problem", counted)
    assert main(["diagnose", str(out), "--out", str(tmp_path / "rediag")]) == 0
    assert len(calls) == 1


def test_module_entry_point(tmp_path):
    proc = _run_cli(["diagnose", str(tmp_path / "absent")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 2:")


def test_cli_import_loads_no_sparse_modules():
    # scipy.sparse costs setup time and resident memory, and crossdiff runs on
    # numpy alone: the Newton solve calls numpy's own LAPACK.  The snapshot
    # I/O forks with os alone: multiprocessing and concurrent.futures would
    # cost setup time too
    src = str(Path(crossdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import crossdiff.cli, sys; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.sparse', 'multiprocessing', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_explicit_pipeline_loads_no_scipy(tmp_path):
    # import, an explicit run, diagnose, plot and a semi-implicit run load no
    # scipy module; the Newton solve's dgtsv is numpy's, so (on Linux) the
    # process maps one OpenBLAS, not a second one from scipy.libs
    src = str(Path(crossdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cfg, out = _write_cfg(tmp_path, FAST), str(tmp_path / "o")
    explicit = [["run", cfg, "--out", out], ["diagnose", out],
                ["plot", out + "/scalars.csv", "--out", out]]
    semi = ["run", cfg, "--out", out + "_si", "--stepper", "semi-implicit"]
    code = "\n".join([
        "import sys",
        "from crossdiff.cli import main",
        "def scipy_modules(): return [m for m in sys.modules if m.startswith('scipy')]",
        "seen = [scipy_modules()]",
        f"codes = [main(argv) for argv in {explicit!r}]",
        "seen.append(scipy_modules())",
        f"codes.append(main({semi!r}))",
        "if sys.platform == 'linux':",
        "    with open('/proc/self/maps') as maps:",
        "        for name in sorted({line.split()[-1] for line in maps if 'openblas' in line}):",
        "            print('mapped', name)",
        "print(repr((codes, seen, scipy_modules())))",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(([0, 0, 0, 0], [[], []], []))
    if sys.platform == "linux":
        mapped = [line for line in proc.stdout.splitlines() if line.startswith("mapped ")]
        assert len(mapped) == 1, mapped


def test_a_lapack_without_dgtsv_fails_the_first_newton_solve_with_one_line(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(crossdiff.solver, "_DGTSV", "no_such_dgtsv_64_")
    monkeypatch.setattr(crossdiff.solver, "_dgtsv",
                        functools.cache(crossdiff.solver._dgtsv.__wrapped__))
    cfg = _write_cfg(tmp_path, FAST)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--stepper", "explicit"]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "si"), "--stepper", "semi-implicit"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 3: numpy's LAPACK has no no_such_dgtsv_64_ ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "si").exists()


def _corrupt_snapshots(traj_dir, defect):
    paths = sorted(traj_dir.glob("snapshot_*.csv"))
    if defect == "header":
        rows = paths[0].read_text().split("\n")
        paths[0].write_text("\n".join(["x,rho,nu"] + rows[1:]))
    elif defect == "rows":
        rows = paths[-1].read_text().strip().split("\n")
        paths[-1].write_text("\n".join(rows[:-1]) + "\n")
    elif defect == "none":
        for path in paths:
            path.unlink()
    elif defect == "columns":  # every row lost its mu value
        rows = paths[-1].read_text().strip().split("\n")
        paths[-1].write_text("\n".join(rows[:1] + [r.rsplit(",", 1)[0] for r in rows[1:]]))
    elif defect == "name":
        (traj_dir / "snapshot_late.csv").write_text(paths[-1].read_text())
    elif defect == "ragged":  # rows of 2 and 4 values, 3 a row on average
        rows = paths[-1].read_text().split("\n")
        rows[1] = rows[1].rsplit(",", 1)[0]
        rows[2] += ",1"
        paths[-1].write_text("\n".join(rows))
    elif defect.startswith("time "):  # a copy named for a non-finite time
        (traj_dir / f"snapshot_{defect[5:]}.csv").write_text(paths[-1].read_text())
    elif defect == "duplicate":  # a second name for t = 0.005
        (traj_dir / "snapshot_0.005.csv").write_text(
            (traj_dir / "snapshot_0.0050000000000000001.csv").read_text())
    else:  # a bad mu value in cell 2 of the last snapshot
        rows = paths[-1].read_text().split("\n")
        x, rho, _ = rows[3].split(",")
        rows[3] = ",".join((x, rho, defect))
        paths[-1].write_text("\n".join(rows))


@pytest.mark.parametrize("defect, message", [
    ("header", "unexpected snapshot header 'x,rho,nu'"),
    ("rows", "expected 128 rows, got 127"),
    ("none", r"no snapshot_\*\.csv files in "),
    ("nan", "non-finite density value"),
    ("inf", "non-finite density value"),
    ("0", "nonpositive density at cell 2"),
    ("-0.1", "nonpositive density at cell 2"),
    ("abc", "could not convert string to float: 'abc'"),
    ("columns", "expected 3 values a row, got 2"),
    ("name", "could not convert string to float: 'late'"),
    ("ragged", "ragged rows: line 3 holds 4 values, line 2 holds 2"),
    ("duplicate", r"duplicate snapshot time 0\.005, also in snapshot_0\.005\.csv"),
    ("time nan", "non-finite snapshot time nan"),
    ("time inf", "non-finite snapshot time inf"),
])
def test_read_snapshots_errors(tmp_path, capsys, defect, message):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 0
    grid = build_problem(parse_config(MINIMAL)).grid
    _corrupt_snapshots(out, defect)
    if defect != "none":  # each per-file error names its file
        message = r"snapshot_[^ ]*\.csv: .*" + message
    with pytest.raises(ValueError, match=message):
        read_snapshots(out, grid)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any diagnostic runs
        assert main(["diagnose", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 3:") and err.count("\n") == 1


@pytest.mark.parametrize("which, message", [
    (0, r"snapshot_times must start at 0, got 0\.005"),
    (-1, r"snapshot_times must end at t_final 0\.05, got 0\.045"),
])
def test_main_diagnose_names_a_missing_end_snapshot(tmp_path, capsys, which, message):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 0
    paths = sorted(out.glob("snapshot_*.csv"), key=lambda p: float(p.stem[9:]))
    paths[which].unlink()
    capsys.readouterr()
    assert main(["diagnose", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: 3: {re.escape(str(out))}: {message}\n", err)


def test_main_diagnose_rejects_a_nan_snapshot_time(tmp_path, capsys):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 0
    (out / "snapshot_nan.csv").write_text((out / "snapshot_0.csv").read_text())
    capsys.readouterr()
    assert main(["diagnose", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: 3: {out / 'snapshot_nan.csv'}: non-finite snapshot time nan\n"


def test_read_snapshots_array(tmp_path):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, FAST), "--out", str(out)]) == 0
    problem = build_problem(parse_config(FAST))
    traj = crossdiff.run(problem)
    times, states = read_snapshots(out, problem.grid)
    assert np.array_equal(times, traj.times)  # 17g is lossless
    assert np.array_equal(states, traj.states)
    assert states.shape == (5, 2, 64) and not states.flags.writeable


def test_snapshot_io_is_bitwise_equal_on_any_cpu_count(tmp_path, monkeypatch):
    traj = crossdiff.run(build_problem(parse_config(FAST)))
    written = {}
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        paths = write_snapshots(traj, tmp_path / str(cpus))
        assert_no_child_left()
        assert [p.name for p in paths] == [csvio.snapshot_filename(t) for t in traj.times]
        written[cpus] = [p.read_bytes() for p in paths]
        assert sorted(p.name for p in (tmp_path / str(cpus)).iterdir()) == sorted(
            p.name for p in paths)  # no temporary file left
    assert written[1] == written[3]
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        times, states = read_snapshots(tmp_path / "1", traj.problem.grid)
        assert_no_child_left()
        assert times.tobytes() == traj.times.tobytes()
        assert states.tobytes() == traj.states.tobytes()
        assert states.shape == traj.states.shape and not states.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            states[0, 0, 0] = 1.0


def test_read_snapshots_raises_the_first_bad_file_on_any_cpu_count(tmp_path, monkeypatch):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, MINIMAL), "--out", str(out)]) == 0
    grid = build_problem(parse_config(MINIMAL)).grid
    paths = sorted(out.glob("snapshot_*.csv"), key=lambda p: float(p.stem[9:]))
    assert len(paths) == 11  # 3 CPUs read files 0-2, 3-6 and 7-10
    messages = {}
    for bad, defect in ((10, "abc"), (5, "-1")):  # last chunk, then the middle one
        rows = paths[bad].read_text().split("\n")
        rows[3] = rows[3].rsplit(",", 1)[0] + "," + defect
        paths[bad].write_text("\n".join(rows))
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as err:
                read_snapshots(out, grid)
            assert_no_child_left()
            messages[bad, cpus] = str(err.value)
        assert messages[bad, 1] == messages[bad, 3]
    assert messages[10, 1] == f"{paths[10]}: could not convert string to float: 'abc'"
    assert messages[5, 1] == f"{paths[5]}: nonpositive density at cell 2"


def test_snapshot_workers_report_every_failure(tmp_path, monkeypatch):
    traj = crossdiff.run(build_problem(parse_config(FAST)))
    out = tmp_path / "o"
    write_snapshots(traj, out)
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    read_table = csvio.read_table

    def killed_in_child(path):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_table(path)

    monkeypatch.setattr(csvio, "read_table", killed_in_child)
    with pytest.raises(RuntimeError, match=f"ended by signal {int(signal.SIGKILL)}, sending no error"):
        read_snapshots(out, traj.problem.grid)
    assert_no_child_left()


def test_failed_writes_leave_no_temporary_file(tmp_path, monkeypatch):
    # a directory where a table goes: the write fails after its .tmp exists
    report_dir = tmp_path / "report"
    (report_dir / "scalars.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        write_report_csv(_tiny_report(np.random.default_rng(0)), report_dir)
    assert [p.name for p in report_dir.iterdir()] == ["scalars.csv"]
    (tmp_path / "plot.svg").mkdir()
    with pytest.raises(IsADirectoryError):
        emit_plot([("a", [1.0, 2.0], [1.0, 2.0])], tmp_path / "plot.svg")
    assert not (tmp_path / "plot.svg.tmp").exists()
    # the same in write_snapshots, which writes in time order on any CPU
    # count: the last snapshot's file is a directory
    traj = crossdiff.run(build_problem(parse_config(FAST)))
    out = tmp_path / "o"
    last = out / csvio.snapshot_filename(traj.times[-1])
    last.mkdir(parents=True)
    use_cpus(monkeypatch, 2)
    with pytest.raises(IsADirectoryError, match=re.escape(str(last))):
        write_snapshots(traj, out)
    assert_no_child_left()
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("command", ["run", "study"])
def test_a_run_cfg_write_that_fails_part_way_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                             command):
    class HalfWritten:  # takes half of the text, then finds the disk full
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return HalfWritten(fh) if Path(path).name == "run.cfg.tmp" else fh

    monkeypatch.setattr(csvio, "open", opener, raising=False)
    text = FAST if command == "run" else STUDIES["fixed"]
    out = tmp_path / "out"
    assert main([command, _write_cfg(tmp_path, text), "--out", str(out)]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert not (out / "run.cfg").exists()
    assert not (out / "run.cfg.tmp").exists()


# explicit steps at cfl_safety = 1.0 on rough data: the run stores the
# snapshots at t = 0 to 4e-6, then an upwind step empties mu in cell 19
ROUGH = """
[grid]
n = 32
[model]
alpha = 0.5
[potentials]
V = 1:-1.2:0
W = 7:0:2.07
[initial]
rho_values = 4.54, 3.94, 0.593, 0.214, 3.97, 2.25, 0.4, 4.41, 0.11, 3.57, 2.62, 2.56, 4.18,
  3.3, 3.11, 4.34, 4.6, 3.18, 4.54, 2.41, 0.509, 0.0943, 0.195, 4.8, 0.711, 0.274, 4.86, 2.03,
  4.78, 3.14, 1.51, 2.48
mu_values = 1.85, 4.73, 1.95, 2.76, 0.28, 0.0549, 2.39, 1.33, 1.94, 1.88, 3.56, 0.792, 4.8,
  0.373, 1.17, 0.714, 2.21, 0.499, 0.669, 1.98, 0.0337, 4.5, 0.625, 1.52, 4.55, 1.99, 2.3,
  3.9, 2.59, 1.28, 3.74, 0.82
[time]
t_final = 0.00025
snapshots = 0, 1e-6, 2e-6, 3e-6, 4e-6, 0.00025
cfl_safety = 1.0
"""


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("where", ["absent", "nested", "existing"])
def test_a_run_that_fails_part_way_leaves_the_output_as_it_was(tmp_path, capsys, monkeypatch,
                                                               cpus, where):
    cfg = _write_cfg(tmp_path, ROUGH, "rough.cfg")
    out = tmp_path / "root" / ("a/b" if where == "nested" else "out")
    (tmp_path / "root").mkdir()
    if where == "existing":  # an earlier run's files, one at a snapshot's name
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / csvio.snapshot_filename(1e-6)).write_text("an older snapshot")
        (out / "scalars.csv").write_text("t\n0\n")
    before = _tree(tmp_path / "root")
    use_cpus(monkeypatch, cpus)
    assert main(["run", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 3: positivity violated: mu at cell 19") and err.count("\n") == 1
    assert_no_child_left()
    assert _tree(tmp_path / "root") == before


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_a_snapshot_that_cannot_be_written_exits_4_with_one_line(tmp_path, capsys, monkeypatch,
                                                                 cpus, index):
    t = build_problem(parse_config(FAST)).snapshot_times[index]
    out = tmp_path / "out"
    blocked = out / csvio.snapshot_filename(t)
    blocked.mkdir(parents=True)  # a directory where a snapshot goes
    use_cpus(monkeypatch, cpus)
    assert main(["run", _write_cfg(tmp_path, FAST), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: 4: [Errno 21] Is a directory") and err.count("\n") == 1
    assert str(blocked) in err
    assert_no_child_left()
    assert not list(out.glob("*.tmp"))
    assert blocked.is_dir() and not any(blocked.iterdir())


# runs whose snapshots go through the formatting kernel, and one whose rho
# lies below 1e-4, so that every snapshot is written whole by %
CPU_RUNS = {
    "explicit": FAST.replace("snapshots = 5", "snapshots = 9"),
    "semi-implicit": FAST.replace("snapshots = 5", "snapshots = 9\nstepper = semi-implicit"),
    "below-1e-4": FAST.replace("rho_offset = 0.5", "rho_offset = 5e-5").replace(
        "rho_modes = 1:0.2:0", "rho_modes = 1:2e-5:0").replace(
        "snapshots = 5", "snapshots = 9\nstepper = semi-implicit"),
}


@pytest.mark.parametrize("name", sorted(CPU_RUNS))
def test_a_run_writes_the_same_files_on_one_and_two_cpus(tmp_path, monkeypatch, name):
    cfg = _write_cfg(tmp_path, CPU_RUNS[name])
    files = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus) / "o"
        out.parent.mkdir()
        monkeypatch.chdir(out.parent)  # a relative --out: run.cfg names it
        assert main(["run", cfg, "--out", "o"]) == 0
        assert_no_child_left()
        files[cpus] = _tree(out)
    assert files[2] == files[1]
    snapshots = [name for name in files[1] if name.startswith("snapshot_")]
    assert len(snapshots) == 9 and len(files[1]) == 9 + 5  # no .tmp left
    below = [b"e-05," in files[1][name] for name in snapshots]
    assert all(below) if name == "below-1e-4" else not any(below)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(text=_config_texts(None))
def test_any_valid_config_runs_the_same_on_one_and_two_cpus(text):
    # each CPU count from its own directory: run.cfg names the relative --out
    codes, errs, trees = {}, {}, {}
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        for cpus in (1, 2):
            use_cpus(mp, cpus)
            (Path(root) / str(cpus)).mkdir()
            mp.chdir(Path(root) / str(cpus))
            Path("case.cfg").write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                codes[cpus] = main(["run", "case.cfg", "--out", "o"])
            assert_no_child_left()
            errs[cpus], trees[cpus] = err.getvalue(), _tree(Path("."))
        assert codes[1] in (0, 3)
        if codes[1] == 3:
            assert errs[1].startswith("error: 3: ") and errs[1].count("\n") == 1
            assert "Traceback" not in errs[1]
        assert (codes[2], errs[2], trees[2]) == (codes[1], errs[1], trees[1])
        assert not any(name.endswith(".tmp") for name in trees[1])
        if codes[1] == 0 and parse_config(text).precision == 17:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["diagnose", "o", "--out", "d"]) == 0
            for name in ("scalars.csv", "omega_space.csv", "omega_time.csv", "residuals.csv"):
                assert (Path("d") / name).read_bytes() == (Path("o") / name).read_bytes()


def _wait_for(predicate, what):
    deadline = time.monotonic() + 20
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.005)


def _count_writer_files(monkeypatch):
    """A list that gets, at each commit, the indices of the files the
    writers wrote and how many snapshots they were sent."""
    counts, finish = [], crossdiff._stream._Writers.finish

    def counted(writers):
        counts.append((sorted(finish(writers)), len(writers.sent)))
        return counts[-1][0]
    monkeypatch.setattr(crossdiff._stream._Writers, "finish", counted)
    return counts


def _one_cpu_files(tmp_path, monkeypatch, cfg):
    use_cpus(monkeypatch, 1)
    (tmp_path / "one").mkdir()
    monkeypatch.chdir(tmp_path / "one")
    assert main(["run", cfg, "--out", "o"]) == 0
    return _tree(tmp_path / "one" / "o")


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_writer_processes_write_every_snapshot_while_the_run_goes_on(tmp_path, monkeypatch,
                                                                         cpus):
    # the report waits for the writers' first three files, so they are
    # written while the run goes on; the commit renames every file
    cfg = _write_cfg(tmp_path, CPU_RUNS["semi-implicit"])
    expected = _one_cpu_files(tmp_path, monkeypatch, cfg)
    counts = _count_writer_files(monkeypatch)
    out = tmp_path / "two" / "o"
    times = build_problem(parse_config(CPU_RUNS["semi-implicit"])).snapshot_times
    tmps = [out / (csvio.snapshot_filename(t) + ".tmp") for t in times[:3]]
    report = crossdiff.cli.build_report

    def waiting_report(*args):
        _wait_for(lambda: all(p.exists() for p in tmps), "three .tmp files")
        return report(*args)
    monkeypatch.setattr(crossdiff.cli, "build_report", waiting_report)
    use_cpus(monkeypatch, cpus)
    out.parent.mkdir()
    monkeypatch.chdir(out.parent)
    assert main(["run", cfg, "--out", "o"]) == 0
    assert_no_child_left()
    assert _tree(out) == expected
    assert counts == [(list(range(9)), 9)]


@pytest.mark.parametrize("where", ["nested", "existing"])
def test_a_run_that_fails_after_the_writer_wrote_leaves_the_output_as_it_was(
        tmp_path, capsys, monkeypatch, where):
    cfg = _write_cfg(tmp_path, CPU_RUNS["explicit"])
    out = tmp_path / "root" / ("a/b" if where == "nested" else "out")
    (tmp_path / "root").mkdir()
    if where == "existing":
        out.mkdir()
        (out / "notes.txt").write_text("kept")
    before = _tree(tmp_path / "root")
    times = build_problem(parse_config(CPU_RUNS["explicit"])).snapshot_times
    tmps = [out / (csvio.snapshot_filename(t) + ".tmp") for t in times]

    def failing_report(*args):
        _wait_for(lambda: all(p.exists() for p in tmps), "every .tmp file")
        raise ValueError("the report failed")
    monkeypatch.setattr(crossdiff.cli, "build_report", failing_report)
    use_cpus(monkeypatch, 2)
    assert main(["run", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: 3: the report failed\n"
    assert_no_child_left()
    assert _tree(tmp_path / "root") == before


def test_a_snapshot_the_writer_cannot_write_fails_the_commit_as_on_one_cpu(
        tmp_path, capsys, monkeypatch):
    # a directory at snapshot 2's .tmp name: the writer that takes it stops
    # there, and the commit's own write of that file fails as on one CPU,
    # after snapshots 0 and 1 and before any later one
    cfg = _write_cfg(tmp_path, CPU_RUNS["explicit"])
    times = build_problem(parse_config(CPU_RUNS["explicit"])).snapshot_times
    counts = _count_writer_files(monkeypatch)
    report = crossdiff.cli.build_report
    errors, trees = {}, {}
    for cpus in (1, 2):
        out = tmp_path / str(cpus) / "o"
        tmps = [out / (csvio.snapshot_filename(t) + ".tmp") for t in times]
        tmps[2].mkdir(parents=True)
        monkeypatch.chdir(out.parent)  # a relative --out: run.cfg names it

        def waiting_report(*args):
            if cpus == 2:
                _wait_for(lambda: tmps[0].exists() and tmps[1].exists(), "two .tmp files")
            return report(*args)
        monkeypatch.setattr(crossdiff.cli, "build_report", waiting_report)
        use_cpus(monkeypatch, cpus)
        assert main(["run", cfg, "--out", "o"]) == 4
        errors[cpus] = capsys.readouterr().err
        assert_no_child_left()
        assert [p.name for p in out.glob("*.tmp")] == [tmps[2].name]
        trees[cpus] = _tree(out)
    assert errors[1] == errors[2]
    assert trees[1] == trees[2]
    assert sorted(trees[1]) == sorted(["run.cfg", tmps[2].name] + [
        csvio.snapshot_filename(t) for t in times[:2]])
    assert errors[1].startswith("error: 4: [Errno 21] Is a directory") and "\n" not in errors[1][:-1]
    (written, sent), = counts
    assert sent == 9 and {0, 1} <= set(written) and 2 not in written


def test_a_run_whose_writers_cannot_be_forked_writes_every_file_itself(tmp_path, monkeypatch):
    # 9 snapshots of 2 x 64 values: too few for build_report to fork
    cfg = _write_cfg(tmp_path, CPU_RUNS["explicit"])
    expected = _one_cpu_files(tmp_path, monkeypatch, cfg)

    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(_chunks.os, "fork", fork)
    use_cpus(monkeypatch, 2)
    (tmp_path / "two").mkdir()
    monkeypatch.chdir(tmp_path / "two")
    assert main(["run", cfg, "--out", "o"]) == 0
    assert _tree(tmp_path / "two" / "o") == expected


def test_a_stream_that_forks_no_writer_is_none_and_leaves_the_run_to_one_cpu(tmp_path,
                                                                          monkeypatch):
    # no directory before write_snapshots, and no state in a shared map
    problem = build_problem(parse_config(CPU_RUNS["explicit"]))
    out = tmp_path / "a" / "o"

    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(_chunks.os, "fork", fork)
    use_cpus(monkeypatch, 2)
    with crossdiff._stream.stream_snapshots(problem, out) as stream:
        assert stream is None and not (tmp_path / "a").exists()
        traj = crossdiff.run(problem, _stream=stream)
        base = traj.states
        while base is not None:  # arrays' .base, then a memoryview's .obj
            assert not isinstance(base, mmap.mmap)
            base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
        assert not (tmp_path / "a").exists()
        paths = write_snapshots(traj, out, _stream=stream)
    assert sorted(out.iterdir()) == sorted(paths) and len(paths) == 9


def test_an_interrupt_between_the_writer_forks_leaves_no_writer_and_no_directory(
        tmp_path, monkeypatch):
    problem = build_problem(parse_config(CPU_RUNS["explicit"]))
    forks, real_fork = [], os.fork

    def fork():  # the first writer is forked, then the run is interrupted
        if forks:
            raise KeyboardInterrupt
        forks.append(real_fork())
        return forks[-1]
    monkeypatch.setattr(_chunks.os, "fork", fork)
    use_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        with crossdiff._stream.stream_snapshots(problem, tmp_path / "a" / "o"):
            pass
    assert_no_child_left()
    assert forks and not (tmp_path / "a").exists()


def test_a_writer_a_pipe_behind_leaves_the_rest_to_the_commit(tmp_path, monkeypatch):
    # each writer waits in its first file until the run is over, and the
    # queue holds 256 snapshots: the run stops sending there, and the
    # commit writes the snapshots that were never sent
    text = (MINIMAL.replace("n = 128", "n = 8").replace("t_final = 0.05",
                                                         "t_final = 0.05\nsnapshots = 600")
            + "[output]\nbank_k = 1\nresiduals = false\nmoduli = false\n")
    cfg = _write_cfg(tmp_path, text)
    expected = _one_cpu_files(tmp_path, monkeypatch, cfg)
    counts = _count_writer_files(monkeypatch)
    parent, ran = os.getpid(), tmp_path / "ran"
    snapshot_text, store = crossdiff._stream._snapshot_text, crossdiff._stream._Writers.store

    def waiting_text(grid, precision):
        text = snapshot_text(grid, precision)

        def first_waits(state):
            if os.getpid() != parent:
                _wait_for(ran.exists, "the end of the run")
            return text(state)
        return first_waits

    def small_pipe(writers, j, t):
        store(writers, j, t)
        if j == 0:
            fcntl.fcntl(writers.pipe, fcntl.F_SETPIPE_SZ, 4096)

    def report(*args):
        ran.touch()
        return build_report(*args)
    build_report = crossdiff.cli.build_report
    monkeypatch.setattr(crossdiff._stream, "_snapshot_text", waiting_text)
    monkeypatch.setattr(crossdiff._stream._Writers, "store", small_pipe)
    monkeypatch.setattr(crossdiff.cli, "build_report", report)
    use_cpus(monkeypatch, 2)
    (tmp_path / "two").mkdir()
    monkeypatch.chdir(tmp_path / "two")
    assert main(["run", cfg, "--out", "o"]) == 0
    assert_no_child_left()
    assert _tree(tmp_path / "two" / "o") == expected
    (written, sent), = counts
    assert 256 <= sent < 600 and written == list(range(sent))


def test_a_stream_without_a_commit_leaves_no_writer_and_no_temporary_file(tmp_path, monkeypatch):
    problem = build_problem(parse_config(CPU_RUNS["explicit"]))
    out = tmp_path / "o"
    use_cpus(monkeypatch, 2)
    with crossdiff._stream.stream_snapshots(problem, out) as stream:
        traj = crossdiff.run(problem, _stream=stream)
        tmps = [out / (csvio.snapshot_filename(t) + ".tmp") for t in traj.times]
        _wait_for(lambda: all(p.exists() for p in tmps), "every .tmp file")
    assert_no_child_left()
    assert list(out.iterdir()) == []
    assert not hasattr(crossdiff.solver, "_stored") and not hasattr(csvio, "_streamed")


# a refining semi-implicit study (weights n^2: on 2 or more CPUs levels 0-2
# run in this process and level 3 in a child) and a fixed-grid one (equal
# weights: one chunk per level on as many CPUs)
STUDIES = {
    "refining": FAST.replace("n = 64", "n = 16").replace(
        "snapshots = 5", "snapshots = 5\nstepper = semi-implicit") + "\n[study]\nlevels = 4\n",
    "fixed": FAST.replace("n = 64", "n = 16") + "\n[study]\nlevels = 4\nrefine_space = false\n"
             "viscosity = 4e-3, 2e-3, 1e-3, 5e-4\n",
}


def _bits(value):
    """value with each array and float replaced by its exact bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def test_study_is_bitwise_equal_on_any_cpu_count(tmp_path, monkeypatch):
    for name, text in STUDIES.items():
        plan = build_plan(parse_config(text))
        cfg = _write_cfg(tmp_path, text, f"{name}.cfg")
        reports, files = {}, {}
        for cpus in (1, 2, 3, 8):
            use_cpus(monkeypatch, cpus)
            report = crossdiff.run_study(
                plan, reference=lambda t, x: 0.5 + 0.2 * np.cos(2.0 * np.pi * x))
            assert_no_child_left()
            reports[cpus] = _bits(report)
            out = tmp_path / f"{name}_{cpus}" / "s"
            out.parent.mkdir()
            monkeypatch.chdir(out.parent)  # a relative --out: run.cfg names it
            assert main(["study", cfg, "--out", "s"]) == 0
            assert_no_child_left()
            files[cpus] = {p.relative_to(out): p.read_bytes()
                           for p in out.rglob("*") if p.is_file()}
        assert len(files[1]) == 3 + 1 + 4 * 4  # tables, run.cfg, 4 reports per level
        for cpus in (2, 3, 8):
            assert reports[cpus] == reports[1], (name, cpus)
            assert files[cpus] == files[1], (name, cpus)
        # one grid gives no reference-error rate, refined grids do
        assert np.isfinite(report.rate_reference_error) == (name == "refining")


@pytest.mark.parametrize("failing", [{1}, {3}, {1, 3}])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_study_raises_the_earliest_failing_level(tmp_path, capsys, monkeypatch, cpus,
                                                 failing):
    # the fixed-grid levels, told apart by eps: on 2 CPUs levels 0-1 run in
    # this process and 2-3 in a child, on 4 CPUs levels 1-3 each in a child
    level_of = {4e-3: 0, 2e-3: 1, 1e-3: 2, 5e-4: 3}
    solver_run = crossdiff.study.run

    def run(problem):
        if level_of[problem.eps_viscosity] in failing:
            raise crossdiff.SolverError("positivity violated")
        return solver_run(problem)
    monkeypatch.setattr(crossdiff.study, "run", run)
    use_cpus(monkeypatch, cpus)
    message = f"study level {min(failing)} failed: positivity violated"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        crossdiff.run_study(build_plan(parse_config(STUDIES["fixed"])))
    assert_no_child_left()
    out = tmp_path / "s"
    assert main(["study", _write_cfg(tmp_path, STUDIES["fixed"]), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: 3: {message}\n"
    assert_no_child_left()
    assert not out.exists()


def test_study_worker_killed_by_a_signal(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    solver_run = crossdiff.study.run

    def killed_in_child(problem):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return solver_run(problem)
    monkeypatch.setattr(crossdiff.study, "run", killed_in_child)
    use_cpus(monkeypatch, 2)
    ended = f"run_study.<locals>.run_levels worker \\d+ ended by signal {int(signal.SIGKILL)}"
    with pytest.raises(RuntimeError, match=f"^{ended}, sending no error$"):
        crossdiff.run_study(build_plan(parse_config(STUDIES["refining"])))
    assert_no_child_left()
    assert main(["study", _write_cfg(tmp_path, STUDIES["refining"]),
                 "--out", str(tmp_path / "s")]) == 3
    assert re.fullmatch(f"error: 3: {ended}, sending no error\n", capsys.readouterr().err)
    assert_no_child_left()


def test_main_stepper_and_eps_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--stepper", "semi-implicit",
                 "--eps", "1e-3"]) == 0
    text = (out / "run.cfg").read_text()
    assert "stepper = semi-implicit" in text
    assert "eps = 0.001" in text


def test_main_study(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, FAST + "\n[study]\nlevels = 2\n")
    out = tmp_path / "study_out"
    assert main(["study", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"study complete: 2 levels, output in {out}\n"
    header, data = read_table(out / "levels.csv")
    assert header[0] == "level" and data.shape[0] == 2
    rows = (out / "cauchy_l1.csv").read_text().strip().split("\n")
    assert rows[0] == "pair,cauchy_rho,cauchy_mu"
    assert len(rows) == 2 and rows[1].startswith("0-1,")
    assert (out / "level_0" / "scalars.csv").exists()


def test_main_plot(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert main(["plot", str(out / "scalars.csv"), "--out", str(tmp_path / "svg")]) == 0
    svg = tmp_path / "svg" / "scalars.svg"
    assert svg.exists()
    assert svg.read_text().count("<polyline") == 13


def test_main_plot_rejects_tables_with_one_svg_name(tmp_path, capsys):
    tables = [tmp_path / "a" / "t.csv", tmp_path / "b" / "u.csv", tmp_path / "c" / "t.csv"]
    for table in tables:
        table.parent.mkdir()
        table.write_text("x,y\n1,2\n2,3\n")
    svg = tmp_path / "svg"
    assert main(["plot", *map(str, tables), "--out", str(svg)]) == 3
    assert capsys.readouterr().err == (f"error: 3: {tables[0]} and {tables[2]} would "
                                       f"both be plotted to {svg / 't.svg'}\n")
    assert not svg.exists()  # rejected before any SVG is written


def test_main_plot_loglog_rejects_zero(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("x,y\n1,0\n2,1\n")
    code = main(["plot", str(table), "--out", str(tmp_path), "--loglog"])
    assert code == 3
    assert "nonpositive value on log axis" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ("x,y\n1,2\n2,abc\n", "could not convert string to float: 'abc'"),
    ("x,y\n1,2\n2,3,4\n", "ragged rows: line 3 holds 3 values, line 2 holds 2"),
    ("x,y,z\n1,2\n3,4\n", "header names 3 columns, rows hold 2 values"),
    ("x,y\n1,2,3\n4,5,6\n", "header names 2 columns, rows hold 3 values"),
    ("x,y\n1,nan\n2,3\n", "curve 'y' has non-finite values"),
])
def test_main_plot_names_unparsable_file(tmp_path, capsys, body, message):
    table = tmp_path / "bad.csv"
    table.write_text(body)
    assert main(["plot", str(table), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: 3: {table}: {message}\n"


def test_main_io_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MINIMAL)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", cfg, "--out", str(blocker)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: 4:")


@pytest.mark.parametrize("alpha, cfl_safety, message", [
    pytest.param("0.001", "5e-324", "cannot move t toward t=1e-14", id="0.001"),
    pytest.param("0.5", "5e-324", "cannot move t toward t=1e-14", id="0.5"),
    pytest.param("0.001", "1e-30", "needs more than 4294967296 steps to reach t=1e-14",
                 id="0.001-budget"),
])
def test_a_cfl_step_that_cannot_move_time_exits_3(tmp_path, alpha, cfl_safety, message):
    # at cfl_safety = 5e-324 the CFL step is 0 (alpha = 0.5) or too small to
    # change t (alpha = 0.001, which used to step without end); at 1e-30 it
    # moves t but would take about 5e15 steps, past the step budget
    text = (MINIMAL.replace("n = 128", "n = 16").replace("alpha = 1.0", f"alpha = {alpha}")
            .replace("t_final = 0.05", f"t_final = 1e-13\ncfl_safety = {cfl_safety}"))
    proc = _run_cli(["run", _write_cfg(tmp_path, text), "--out", str(tmp_path / "o")],
                    timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: 3: CFL step dt=")
    assert f"{message} (cfl_safety = {cfl_safety})" in proc.stderr


def test_a_cfl_step_of_half_an_ulp_of_the_target_meets_the_step_budget(tmp_path, capsys):
    # the diffusive bound 1/32 at cfl_safety = 2^-48 gives dt = 2^-53, half
    # an ulp of t = 1: 1 - dt != 1, so the progress guard lets it through
    # (1 + dt == 1 would not), and the step budget stops it
    text = ("[grid]\nn = 4\n[model]\nalpha = 1\n[initial]\nrho_offset = 0.5\n"
            "mu_offset = 0.5\n[time]\nt_final = 1\nsnapshots = 2\n"
            "cfl_safety = 3.552713678800501e-15\n")
    assert main(["run", _write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error: 3: CFL step dt=1.11022e-16 needs more than 4294967296 steps to reach t=1 "
        "(cfl_safety = 3.552713678800501e-15)\n")


# n at the cell cap; 64 snapshots of it hold exactly MAX_STATE_BYTES of states
HUGE = MINIMAL.replace("n = 128", "n = 1048576").replace("alpha = 1.0", "alpha = 0.5")


def _huge(snapshots, t_final="0.01"):
    return HUGE.replace("t_final = 0.05", f"t_final = {t_final}\nsnapshots = {snapshots}")


@pytest.mark.parametrize("snapshots", [3000000, 100000000])
def test_states_over_the_budget_exit_2_before_anything_is_built(tmp_path, snapshots):
    # both used to fail on an allocation: 3e6 snapshots on the states (45.8
    # TiB, exit 1 with a traceback) and 1e8 in parse_config's linspace; the
    # address limit is below the 800 MB that linspace alone would ask for
    out = tmp_path / "o"
    proc = _run_cli(["run", _write_cfg(tmp_path, _huge(snapshots)), "--out", str(out)],
                    timeout=30, address_limit=2**29)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: 2: [grid] n and [time] snapshots: {snapshots} snapshots "
                           f"of 1048576 cells hold {16 * snapshots * 2**20} bytes of states, "
                           f"more than {2**30}\n")
    assert not out.exists()


def test_states_at_the_budget_parse():
    assert len(parse_config(_huge(64)).snapshot_times) == 64
    with pytest.raises(ConfigError, match=r"^\[grid\] n and \[time\] snapshots: 65 snapshots "
                                          r"of 1048576 cells hold 1090519040 bytes"):
        parse_config(_huge(65))
    # a count at t_final = 0 is one snapshot
    assert parse_config(_huge(10**12, t_final="0")).snapshot_times == (0.0,)


def test_a_study_over_the_budget_builds_no_level(monkeypatch):
    # the parent holds every level's states: 64 snapshots of 2^18 + 2^19 + 2^20 cells
    built = []
    monkeypatch.setattr(crossdiff.config, "build_problem", built.append)
    cfg = parse_config(_huge(64).replace("n = 1048576", "n = 262144"))
    with pytest.raises(ConfigError, match=r"^\[grid\] n, \[time\] snapshots and \[study\] "
                                          r"levels: 64 snapshots of 1835008 cells hold"):
        build_plan(cfg)
    assert built == []


def test_read_snapshots_checks_the_states_size(tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert main(["run", _write_cfg(tmp_path, FAST), "--out", str(out)]) == 0
    grid = build_problem(parse_config(FAST)).grid
    monkeypatch.setattr(crossdiff.grid, "MAX_STATE_BYTES", 16 * 5 * 64)
    assert read_snapshots(out, grid)[1].shape == (5, 2, 64)
    monkeypatch.setattr(crossdiff.grid, "MAX_STATE_BYTES", 16 * 5 * 64 - 1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(out))}: 5 snapshots of 64 cells "
                                         "hold 5120 bytes of states, more than 5119$"):
        read_snapshots(out, grid)


def test_out_of_memory_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    # states at the budget pass parse_config; 1 GiB cannot fit a 512 MiB address space
    proc = _run_cli(["run", _write_cfg(tmp_path, _huge(64)), "--out", str(tmp_path / "o")],
                    timeout=30, address_limit=2**29)
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(r"error: 3: Unable to allocate 1\.00 GiB [^\n]*\n", proc.stderr)
    assert not (tmp_path / "o").exists()

    # a MemoryError without a message is named by its type
    def no_memory(problem, _stream=None):
        raise MemoryError

    monkeypatch.setattr(crossdiff.cli, "run", no_memory)
    assert main(["run", _write_cfg(tmp_path, FAST), "--out", str(tmp_path / "f")]) == 3
    assert capsys.readouterr().err == "error: 3: MemoryError\n"


def test_output_toggles(tmp_path):
    text = FAST.replace("bank_k = 4", "bank_k = 4\nresiduals = false\nmoduli = false")
    cfg = _write_cfg(tmp_path, text, "toggles.cfg")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "residuals.csv").read_text() == "phi_id,species,residual\n"
    assert (out / "omega_space.csv").read_text() == "h,omega_rho,omega_mu\n"


def test_main_study_levels_flag(tmp_path):
    cfg = _write_cfg(tmp_path, FAST + "\n[study]\nlevels = 2\n")
    out = tmp_path / "s"
    assert main(["study", cfg, "--out", str(out), "--levels", "3"]) == 0
    rows = (out / "levels.csv").read_text().strip().split("\n")
    assert len(rows) == 4  # header + 3 levels


@pytest.mark.parametrize("study, args", [
    # both used to fail inside run_study and exit 3 (runtime)
    ("levels = 2\nviscosity = 1e-3", ()),
    ("levels = 2\nviscosity = -1e-3, 1e-3", ()),
    ("levels = 2\nviscosity = 1e-3, 5e-4", ("--levels", "3")),
    ("levels = 2", ("--levels", "1")),
    ("levels = 2", ("--eps", "-1")),
])
def test_main_study_rejects_bad_viscosity_schedule(tmp_path, capsys, study, args):
    cfg = _write_cfg(tmp_path, MINIMAL.replace("n = 128", "n = 16")
                     + "\n[study]\n" + study + "\n")
    code = main(["study", cfg, "--out", str(tmp_path / "s"), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2:") and err.count("\n") == 1
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("args, message", [
    (("--stepper", "rk4"), r"\[time\] stepper must be one of .*, got 'rk4'"),
    (("--eps", "abc"), r"\[time\] eps: not a number: 'abc'"),
    (("--eps", "-0.001"), r"\[time\] eps_viscosity must be finite and nonnegative, got -0\.001"),
    (("--levels", "two"), r"\[study\] levels: not an integer: 'two'"),
    # values that start with '-' but are no plain negative number reach their key too
    (("--eps", "-1e-3"), r"\[time\] eps_viscosity must be finite and nonnegative, got -0\.001"),
    (("--out", "-dir"), None),
])
def test_main_flags_get_the_checks_of_their_keys(tmp_path, capsys, monkeypatch, args,
                                                 message):
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, FAST + "\n[study]\nlevels = 2\n")
    command = "study" if args[0] == "--levels" else "run"
    if message is None:  # --out -dir: a relative output directory named -dir
        assert main([command, cfg, *args]) == 0
        assert parse_config((tmp_path / "-dir" / "run.cfg").read_text()).out_dir == "-dir"
        return
    assert main([command, cfg, "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: 2: " + message + "\n", err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["res #1", "a\nb", "a\rb", " lead", "trail\t", "x ;y",
                                 "#x", ";x"])
def test_main_rejects_an_out_dir_run_cfg_cannot_hold(tmp_path, capsys, monkeypatch, out):
    # run.cfg would read each back as another directory, or not at all
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, FAST)
    assert main(["run", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: 2: [output] dir: cannot be written back to run.cfg: {out!r}\n")
    assert os.listdir(tmp_path) == ["run.cfg"]
    # '#' and ';' inside a name, not after whitespace, stay part of it
    assert main(["run", cfg, "--out", "r#1;x"]) == 0
    assert parse_config((tmp_path / "r#1;x" / "run.cfg").read_text()).out_dir == "r#1;x"


def test_study_levels_are_capped_before_anything_is_built(tmp_path, capsys, monkeypatch):
    # on one grid the cell cap never fires, so the level cap must
    built = []
    monkeypatch.setattr(crossdiff.config, "build_problem", built.append)
    text = FAST + "\n[study]\nlevels = 2\nrefine_space = false\n"
    assert parse_config(text, {"study": {"levels": "19"}}).study_levels == 19
    out = tmp_path / "s"
    for cfg, args in ((_write_cfg(tmp_path, text), ("--levels", "20")),
                      (_write_cfg(tmp_path, text.replace("levels = 2", "levels = 20")), ())):
        assert main(["study", cfg, "--out", str(out), *args]) == 2
        assert capsys.readouterr().err == "error: 2: [study] levels must be at most 19, got 20\n"
    assert built == [] and not out.exists()


@pytest.mark.parametrize("args", [("--ep", "-1e-3"), ("--ep=1e-3",)])
def test_main_rejects_abbreviated_flags(tmp_path, capsys, args):
    cfg = _write_cfg(tmp_path, FAST)
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--out", str(tmp_path / "o"), *args])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: " + " ".join(args) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_run_reports_step_log_counts(tmp_path, capsys, monkeypatch):
    # s_floor above the smallest initial S (0.6), so the step log counts clamps
    cfg = _write_cfg(tmp_path, FAST.replace("alpha = 0.5", "alpha = 0.5\ns_floor = 0.7"))
    trajs = []
    solver_run = crossdiff.cli.run

    def run(problem, _stream=None):
        trajs.append(solver_run(problem, _stream=_stream))
        return trajs[-1]
    monkeypatch.setattr(crossdiff.cli, "run", run)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    log = trajs[0].step_log
    clamps = sum(rec.clamps for rec in log)
    assert clamps > 0
    assert capsys.readouterr().out == (f"run complete: 5 snapshots, {len(log)} steps, "
                                       f"clamp_events={clamps}, output in {out}\n")


def test_main_study_honours_output_keys(tmp_path):
    # every study level gets the report that run gives the same problem:
    # level 0 is the configured problem itself, level 1 the config with n
    # doubled and eps set to the level's, by default halving or by schedule
    toggles = "bank_k = 4\nresiduals = false\nmoduli = false"
    with_eps = FAST.replace("snapshots = 5", "snapshots = 5\neps = 1e-3")
    for name, text, study, eps in (
            ("bank_k", FAST.replace("bank_k = 4", "bank_k = 2"), "", ("0", "0")),
            ("off", FAST.replace("bank_k = 4", toggles), "", ("0", "0")),
            ("halving", with_eps, "", ("0.001", "0.0005")),
            ("schedule", with_eps, "viscosity = 2e-3, 5e-4", ("0.002", "0.0005"))):
        cfg = _write_cfg(tmp_path, text + f"\n[study]\nlevels = 2\n{study}\n",
                         f"{name}.cfg")
        assert main(["study", cfg, "--out", str(tmp_path / name / "study")]) == 0
        for level, n in ((0, 64), (1, 128)):
            run_cfg = _write_cfg(tmp_path, text.replace("n = 64", f"n = {n}"),
                                 f"{name}_{level}.cfg")
            run_dir = tmp_path / name / f"run_{level}"
            assert main(["run", run_cfg, "--out", str(run_dir), "--eps", eps[level]]) == 0
            for table in ("scalars.csv", "omega_space.csv", "omega_time.csv",
                          "residuals.csv"):
                assert ((tmp_path / name / "study" / f"level_{level}" / table).read_bytes()
                        == (run_dir / table).read_bytes()), (name, level, table)
    rows = (tmp_path / "bank_k" / "study" / "level_1" / "residuals.csv").read_text()
    assert rows.count("\n") == 1 + 2 * 2 * (1 + 2 * 2)  # 2 profiles, 2 species, k <= 2
    assert (tmp_path / "off" / "study" / "level_1" / "residuals.csv").read_text() == (
        "phi_id,species,residual\n")
    assert (tmp_path / "off" / "study" / "level_1" / "omega_time.csv").read_text() == (
        "k,omega_rho,omega_mu\n")


# n = 4 keeps rho0 = 0.19 + 0.2 cos(2 pi x) positive at levels 0 and 1, but
# the 16-cell grid of level 2 samples it below zero at x = 7.5/16
REFINED_NONPOSITIVE = (FAST.replace("n = 64", "n = 4").replace("bank_k = 4", "bank_k = 1")
                       .replace("rho_offset = 0.5", "rho_offset = 0.19")
                       + "\n[study]\nlevels = 3\n")


def test_main_study_checks_every_level_before_running(tmp_path, capsys, monkeypatch):
    # used to integrate levels 0 and 1, then exit 3 with "study level 2 failed"
    runs = []
    monkeypatch.setattr(crossdiff.study, "run", lambda problem: runs.append(problem))
    cfg = _write_cfg(tmp_path, REFINED_NONPOSITIVE)
    out = tmp_path / "s"
    assert main(["study", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 2: [study] level 2: [initial] rho0: nonpositive density at cell 7\n")
    assert runs == []
    assert not out.exists()
    # the configured problem itself is fine
    assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 0


def test_main_study_rejects_a_level_over_the_cell_cap(tmp_path, capsys, monkeypatch):
    # every level's grid is checked before any level is built: level 13 of a
    # 256-cell study would hold 2^21 cells
    with pytest.raises(ConfigError, match=r"\[grid\] n_cells must be <= 1048576, got 1048577"):
        parse_config(FAST.replace("n = 64", "n = 1048577"))
    built = []
    monkeypatch.setattr(crossdiff.config, "build_problem", built.append)
    cfg = _write_cfg(tmp_path, FAST.replace("n = 64", "n = 256"))
    out = tmp_path / "s"
    assert main(["study", cfg, "--out", str(out), "--levels", "14"]) == 2
    assert capsys.readouterr().err == (
        "error: 2: [study] level 13: n_cells must be <= 1048576, got 2097152\n")
    assert built == [] and not out.exists()


@pytest.mark.parametrize("edit, args", [
    # t_final = nan with one snapshot used to finish "run complete" with exit 0
    (("t_final = 0.05", "t_final = nan\nsnapshots = 1"), ()),
    # eps = nan used to die at the first step ("non-finite rho"), exit 3
    (("t_final = 0.05", "t_final = 0.05\neps = nan"), ()),
    (None, ("--eps", "nan")),
    # eps = inf used to die with "nonpositive dt 0.0", exit 3
    (("t_final = 0.05", "t_final = 0.05\neps = inf"), ()),
    (None, ("--eps", "inf")),
])
def test_main_rejects_non_finite_floats(tmp_path, capsys, edit, args):
    cfg = _write_cfg(tmp_path, MINIMAL.replace(*edit) if edit else MINIMAL)
    code = main(["run", cfg, "--out", str(tmp_path / "o"), *args])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: 2:") and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", ("nan", "inf", "-inf", "NaN", "Infinity"))
def test_parse_rejects_non_finite_values(raw):
    for old, new in (("alpha = 1.0", f"alpha = {raw}"),
                     ("rho_offset = 0.5", f"rho_offset = {raw}"),
                     ("t_final = 0.05", f"t_final = 0.05\ncfl_safety = {raw}")):
        with pytest.raises(ConfigError, match="not a finite number"):
            parse_config(MINIMAL.replace(old, new))
