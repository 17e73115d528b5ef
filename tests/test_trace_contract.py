"""The benchmark's tracer (bench/trace_cli.py) looks up package functions by
name and reads counts from their arguments and results.  These tests keep
that contract: a rename in the package must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import crossdiff as cd

from scenarios import fast_problem

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("trace_cli", ROOT / "bench" / "trace_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for module_name, attr, _, _ in tracer.TRACED:
        module = importlib.import_module(f"crossdiff.{module_name}")
        assert callable(getattr(module, attr, None)), f"crossdiff.{module_name}.{attr}"
    # conversely, every import kept only for bench/ names a traced lookup
    traced = {(module_name, attr) for module_name, attr, _, _ in tracer.TRACED}
    bench_only = re.compile(r"^from \.\w+ import (.+?)\s+# noqa: F401 \(bench/", re.M)
    found = 0
    for path in sorted((ROOT / "src" / "crossdiff").glob("*.py")):
        for names in bench_only.findall(path.read_text()):
            for name in names.split(","):
                found += 1
                assert (path.stem, name.strip()) in traced, f"{path.name}: {name.strip()}"
    assert found > 0


def test_trajectory_counts_match_the_run():
    tracer = _load_tracer()
    prob = fast_problem(32, snaps=3, t_final=0.005, stepper="semi-implicit")
    traj = cd.run(prob)
    counts = tracer._trajectory_counts(None, traj)
    assert counts == {"steps": len(traj.step_log),
                      "newton_iters": sum(r.newton_iters for r in traj.step_log),
                      "clamp_events": sum(r.clamps for r in traj.step_log),
                      "n_cells": 32}
    assert counts["steps"] > 0 and counts["newton_iters"] >= counts["steps"]


CONFIG = """
[grid]
n = 32
[model]
alpha = 0.5
[initial]
rho_offset = 0.5
rho_modes = 1:0.2:0
mu_offset = 0.5
[time]
t_final = 0.002
snapshots = 3
"""


def test_traced_run_and_diagnose_record_their_spans(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = {}
    for command, source, out in (("run", cfg, tmp_path / "out"),
                                 ("diagnose", tmp_path / "out", tmp_path / "diag")):
        path = tmp_path / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "trace_cli.py"), str(path), command,
             str(source), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spans[command] = {s[0]: s for s in json.loads(path.read_text())}
    run_span = spans["run"]["solver.run"]
    assert run_span[4] == 0  # no Field is built while stepping
    assert run_span[5]["steps"] > 0 and run_span[5]["n_cells"] == 32
    assert spans["run"]["csvio.write_snapshots"][5]["bytes"] > 0
    assert spans["diagnose"]["csvio.read_snapshots"][5]["bytes"] > 0
    assert "diagnostics.build_report" in spans["diagnose"]
