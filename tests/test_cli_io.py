import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossdiff
import crossdiff.cli
from crossdiff.cli import main
from crossdiff.config import (ConfigError, build_plan, build_problem,
                              dump_config, parse_config)
from crossdiff.csvio import (read_snapshots, read_table, write_report_csv,
                             write_snapshots, write_study_csv)
from crossdiff.diagnostics import SCALAR_COLUMNS, DiagnosticsReport, ResidualRow
from crossdiff.model import STEPPERS
from crossdiff.study import LevelSummary
from crossdiff.svgplot import emit_plot

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


RULES = ("n", "alpha", "s_floor", "V", "W", "rho_modes", "mu_modes", "rho_values",
         "mu_values", "t_final", "snapshots", "stepper", "cfl_safety", "eps",
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
        snapshots = pick("snapshots", ("2", "3"), ("0",))
    else:
        times = [pick("snapshots", (0.0, -0.0, -0.5 * tol), (2 * tol,))]
        times += [t_final / 2] * (t_final > 1e-6) * (2 if broken == "snapshots" else 1)
        times.append(t_final + pick("snapshots", (0.0, 0.5 * tol), (-2 * tol, 2 * tol)))
        snapshots = ", ".join(map(repr, times))
    lines += ["[time]", f"t_final = {t_final!r}", f"snapshots = {snapshots}",
              f"stepper = {pick('stepper', STEPPERS, ('rk4', 'Explicit'))}",
              f"cfl_safety = {pick('cfl_safety', (1.0, 0.5, 5e-324), (0.0, 1.0 + 2**-52))!r}",
              f"eps = {pick('eps', (0.0, -0.0, 1e-3, 5e-324), (-5e-324, -1e-3))!r}",
              "[output]", f"precision = {pick('precision', (1, 17), (0, 18))}"]
    bank_k = pick("bank_k", (None, 0, n // 4), (-1, n // 4 + 1))
    if bank_k is not None:
        lines.append(f"bank_k = {bank_k}")
    levels = pick("levels", (2, 3), (0, 1))
    viscosity = [draw(st.sampled_from((0.0, -0.0, 1e-3))) for _ in range(levels)]
    if broken == "viscosity":
        viscosity = draw(st.sampled_from((viscosity[1:], viscosity + [1e-3],
                                          viscosity[1:] + [-1e-3])))
    elif draw(st.booleans()):
        viscosity = []
    lines += ["[study]", f"levels = {levels}",
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
    plan = build_plan(parse_config(FAST + "\n[study]\nlevels = 2\n"))
    assert plan.levels == 2
    assert plan.initial_sampler is not None


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
    src = str(Path(crossdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "crossdiff.cli", "diagnose", str(tmp_path / "absent")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 2:")


def test_cli_import_loads_no_sparse_modules():
    # scipy.sparse costs setup time and resident memory; the solver needs only
    # scipy.linalg.lapack
    src = str(Path(crossdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import crossdiff.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_explicit_pipeline_loads_no_scipy(tmp_path):
    # scipy is imported by the first Newton solve; import, an explicit run,
    # diagnose and plot never need it
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
        "print(repr((codes, seen, 'scipy.linalg.lapack' in sys.modules)))",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(([0, 0, 0, 0], [[], []], True))


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


def test_read_snapshots_array(tmp_path):
    out = tmp_path / "run_out"
    assert main(["run", _write_cfg(tmp_path, FAST), "--out", str(out)]) == 0
    problem = build_problem(parse_config(FAST))
    traj = crossdiff.run(problem)
    times, states = read_snapshots(out, problem.grid)
    assert np.array_equal(times, traj.times)  # 17g is lossless
    assert np.array_equal(states, traj.states)
    assert states.shape == (5, 2, 64) and not states.flags.writeable


def test_main_stepper_and_eps_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, FAST)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--stepper", "semi-implicit",
                 "--eps", "1e-3"]) == 0
    text = (out / "run.cfg").read_text()
    assert "stepper = semi-implicit" in text
    assert "eps = 0.001" in text


def test_main_study(tmp_path):
    cfg = _write_cfg(tmp_path, FAST + "\n[study]\nlevels = 2\n")
    out = tmp_path / "study_out"
    assert main(["study", cfg, "--out", str(out)]) == 0
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


def test_main_plot_loglog_rejects_zero(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("x,y\n1,0\n2,1\n")
    code = main(["plot", str(table), "--out", str(tmp_path), "--loglog"])
    assert code == 3
    assert "nonpositive value on log axis" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ("x,y\n1,2\n2,abc\n", "could not convert string to float: 'abc'"),
    ("x,y\n1,2\n2,3,4\n", "ragged rows: line 3 holds 3 values, line 2 holds 2"),
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

    def run(problem):
        trajs.append(solver_run(problem))
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
    # level 0 is the configured problem itself
    toggles = "bank_k = 4\nresiduals = false\nmoduli = false"
    for name, text in (("bank_k", FAST.replace("bank_k = 4", "bank_k = 2")),
                       ("off", FAST.replace("bank_k = 4", toggles))):
        cfg = _write_cfg(tmp_path, text + "\n[study]\nlevels = 2\n", f"{name}.cfg")
        assert main(["run", cfg, "--out", str(tmp_path / name / "run")]) == 0
        assert main(["study", cfg, "--out", str(tmp_path / name / "study")]) == 0
        for table in ("scalars.csv", "omega_space.csv", "omega_time.csv", "residuals.csv"):
            assert ((tmp_path / name / "study" / "level_0" / table).read_bytes()
                    == (tmp_path / name / "run" / table).read_bytes()), (name, table)
    rows = (tmp_path / "bank_k" / "study" / "level_1" / "residuals.csv").read_text()
    assert rows.count("\n") == 1 + 2 * 2 * (1 + 2 * 2)  # 2 profiles, 2 species, k <= 2
    assert (tmp_path / "off" / "study" / "level_1" / "residuals.csv").read_text() == (
        "phi_id,species,residual\n")
    assert (tmp_path / "off" / "study" / "level_1" / "omega_time.csv").read_text() == (
        "k,omega_rho,omega_mu\n")


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
