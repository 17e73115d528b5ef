"""crossdiff benchmark: the real CLI in fresh processes, on generated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes the workload's INI
config from the seed (see workloads.py), then runs the workload's command,
`crossdiff.cli.main(argv)` in a fresh single-threaded interpreter with src on
PYTHONPATH, again and again until S seconds have passed.  Every command
writes into a fresh directory under .bench_runs/ that is checked and then
deleted, so repeats never overwrite files (which on ext4 forces write-back).
Each command counts as failed when it exits nonzero, does not print its
completion line, or its output fails a check in workloads.py.

--trace 0 reports the end-to-end metrics, medians over the repeats:
  wall_s       process spawn to exit of the command
  setup_s      a fresh interpreter that imports crossdiff.cli and runs
               parse_config and build_problem (plus build_plan or
               make_test_bank, as the command does), with no integration;
               one before each command
  peak_rss_mb  peak resident memory of the command's process

--trace 1 alternates untraced commands with commands run under
trace_cli.py, which records spans around calls into each module, and
reports per-layer metrics derived from the spans (medians over the traced
commands) plus the tracing overhead.  Which end-to-end metric each layer
metric should move:
  cli.*, config.*        setup_s on every workload
  solver.*, grid.*       wall_s on explicit-run and semi-implicit-study,
                         no change on snapshot-read
  diagnostics.*          wall_s on snapshot-read (largest share), snapshot-write
  csvio.write_*          wall_s and peak_rss_mb on snapshot-write
  csvio.read_*           wall_s on snapshot-read
  study.*                wall_s on semi-implicit-study
model and transforms run only inside solver and diagnostics calls and count
toward them.  svgplot (`crossdiff plot`) is outside the run, diagnose and
write pipeline and is not measured.  Every working array holds at most 2048
float64 values, so these workloads measure per-call work, not memory
bandwidth.

The last line of stdout is the result JSON; the line before it holds
information that is not a gate: environment, every timed sample, exact
solver counts (traced runs) and the sha256 of every file the first command
wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, check_output, config_text, seed_shift

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names, units, whys
COMMAND_TIMEOUT_S = 60.0

CLI = "import sys; from crossdiff.cli import main; sys.exit(main(sys.argv[1:]))"

SETUP_PROBE = """
import sys
from pathlib import Path
from crossdiff.cli import build_plan, build_problem, make_test_bank, parse_config
cfg = parse_config(Path(sys.argv[1]).read_text())
if sys.argv[2] == "study":
    build_plan(cfg)
else:
    problem = build_problem(cfg)
    make_test_bank(problem.grid, problem.t_final, cfg.bank_k)
"""

SCALAR_SPANS = {"diagnostics.entropy", "diagnostics.energy", "diagnostics.dissipation_beta",
                "diagnostics.bv_norms", "diagnostics.lebesgue_norms",
                "diagnostics.diss_entropy_rate"}


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    digests: dict[str, str]
    spans: list | None = None


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = WORKLOADS[workload]
        self.shift = seed_shift(seed)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.config = work / "workload.ini"
        self.config.write_text(config_text(workload, seed))
        self.reference = None  # snapshot-write output that snapshot-read diagnoses
        self.runs = 0

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, float, int, str]:
        """Run a fresh interpreter; (wall s, peak RSS MB, exit code, output)."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            output = proc.stdout.read().decode(errors="replace")
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, output

    def cli_args(self, w: Workload) -> list[str]:
        source = self.reference if w.command == "diagnose" else self.config
        return [w.command, str(source), "--out", "out"]

    def command(self, traced: bool, workload: Workload | None = None,
                keep: Path | None = None) -> Outcome:
        """One timed command in a fresh directory, checked, then deleted
        unless keep names where to move its output."""
        w = workload or self.workload
        self.runs += 1
        cwd = self.work / f"cmd{self.runs}"
        cwd.mkdir()
        try:
            spans_path = cwd / "spans.json"
            prefix = ([str(ROOT / "bench" / "trace_cli.py"), str(spans_path)] if traced
                      else ["-c", CLI])
            wall, rss, code, output = self.spawn(prefix + self.cli_args(w), cwd)
            out = cwd / "out"
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {output.strip()[-500:]}")
            elif not any(line.startswith(w.completion)
                         for line in output.splitlines()):
                problems.append(f"no completion line in output: {output.strip()[-500:]}")
            else:
                try:
                    problems = check_output(w.name, out, self.shift, self.reference)
                except Exception as exc:  # missing or malformed output file
                    problems = [f"output check raised {exc!r}"]
            digests = ({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.rglob("*")) if p.is_file()}
                       if out.is_dir() else {})
            spans = None
            if traced and not problems:
                try:
                    spans = json.loads(spans_path.read_text())
                except (OSError, ValueError) as exc:
                    problems = [f"reading spans raised {exc!r}"]
            if keep is not None and not problems:
                out.rename(keep)
            return Outcome(wall, rss, problems, digests, spans)
        finally:
            shutil.rmtree(cwd)

    def prepare(self) -> None:
        """Untimed: fill __pycache__, and for snapshot-read write the
        snapshot-write output it diagnoses."""
        self.spawn(["-c", "import crossdiff.cli"], self.work)
        if self.workload.command == "diagnose":
            outcome = self.command(traced=False, workload=WORKLOADS["snapshot-write"],
                                   keep=self.work / "trajectory")
            if outcome.problems:
                raise RuntimeError("generating the snapshot-write output failed: "
                                   + "; ".join(outcome.problems))
            self.reference = self.work / "trajectory"

    def setup_probe(self) -> Outcome:
        """One fresh-interpreter set-up: import, parse and build, no integration."""
        if self.workload.command == "diagnose":
            config, kind = self.reference / "run.cfg", "run"
        else:
            config, kind = self.config, self.workload.command
        wall, rss, code, output = self.spawn(["-c", SETUP_PROBE, str(config), kind],
                                             self.work)
        problems = [f"set-up probe exit code {code}: {output.strip()[-500:]}"] if code else []
        return Outcome(wall, rss, problems, {})


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _durations(spans, name) -> list[float]:
    return [(s[3] - s[2]) * 1e-9 for s in spans if s[0] == name]


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_s[s[1]] += (s[3] - s[2]) * 1e-9

    def total(name):
        return sum(_durations(spans, name))

    def self_s(name):
        return sum((s[3] - s[2]) * 1e-9 - child_s[i]
                   for i, s in enumerate(spans) if s[0] == name)

    def pct_us(name, q):
        d = _durations(spans, name)
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    runs = [s for s in spans if s[0] == "solver.run"]
    steps = sum(s[5]["steps"] for s in runs)
    newton = sum(s[5]["newton_iters"] for s in runs)
    run_s = total("solver.run")
    written = sum(s[5]["bytes"] for s in spans if s[0] == "csvio.write_snapshots")
    read = sum(s[5]["bytes"] for s in spans if s[0] == "csvio.read_snapshots")
    write_s, read_s = total("csvio.write_snapshots"), total("csvio.read_snapshots")
    return {
        "cli.import_s": total("cli.import"),
        "config.parse_s": total("config.parse_config"),
        "config.build_problem_s": total("config.build_problem"),
        "solver.run_s": run_s,
        "solver.run_self_s": self_s("solver.run"),
        "solver.advance_us_p50": pct_us("solver.advance", 50),
        "solver.advance_us_p99": pct_us("solver.advance", 99),
        "solver.cfl_dt_us_p50": pct_us("solver.cfl_dt", 50),
        "solver.steps": steps,
        "solver.newton_iters": newton,
        "solver.newton_iters_per_step": ratio(newton, steps),
        "solver.clamp_events": sum(s[5]["clamp_events"] for s in runs),
        "solver.cell_steps_per_s": ratio(sum(s[5]["n_cells"] * s[5]["steps"] for s in runs),
                                         run_s),
        "grid.field_inits_per_step": ratio(sum(s[4] for s in runs), steps),
        "diagnostics.build_report_s": total("diagnostics.build_report"),
        "diagnostics.scalars_s": sum((s[3] - s[2]) * 1e-9 for s in spans
                                     if s[0] in SCALAR_SPANS
                                     and (s[1] < 0 or spans[s[1]][0] not in SCALAR_SPANS)),
        "diagnostics.weak_residual_s": total("diagnostics.weak_residual"),
        "diagnostics.moduli_s": total("diagnostics.equicontinuity_moduli"),
        "csvio.write_snapshots_s": write_s,
        "csvio.bytes_written": written,
        "csvio.write_mb_per_s": ratio(written * 1e-6, write_s),
        "csvio.read_snapshots_s": read_s,
        "csvio.read_mb_per_s": ratio(read * 1e-6, read_s),
        "csvio.write_report_s": total("csvio.write_report_csv") + total("csvio.write_study_csv"),
        "study.run_study_s": total("study.run_study"),
        "study.self_s": self_s("study.run_study"),
        "trace.wall_s": wall_s,
    }


# ---------------------------------------------------------------------------


def output_filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                mount, kind = line.split()[1:3]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def environment(work: Path) -> dict:
    return {"python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "output_fs": output_filesystem(work)}


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat the command, each untraced one after a set-up probe, for
    `seconds` (at least once); (result, info).  With trace,
    traced commands alternate with untraced ones and no set-up is probed."""
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    lap = 0.0  # the last iteration's length: start no iteration that would overrun
    while not plain or (trace and not traced) or time.perf_counter() - start + lap < seconds:
        lap_start = time.perf_counter()
        if trace and len(traced) < len(plain):
            traced.append(bench.command(traced=True))
        else:
            if not trace:
                setups.append(bench.setup_probe())
            plain.append(bench.command(traced=False))
        lap = time.perf_counter() - lap_start
    outcomes = setups + plain + traced
    failed = [o for o in outcomes if o.problems]
    ok_plain = [o for o in plain if not o.problems] or plain
    wall = statistics.median(o.wall_s for o in ok_plain)
    if trace:
        ok_traced = [o for o in traced if not o.problems]
        per_cmd = [layer_metrics(o.spans, o.wall_s) for o in ok_traced]
        metrics = {m["name"]: statistics.median(c[m["name"]] for c in per_cmd)
                   if per_cmd else 0.0
                   for m in SPEC["per_layer"] if m["name"] != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        spec = SPEC["per_layer"]
    else:
        metrics = {"wall_s": wall,
                   "setup_s": statistics.median(o.wall_s for o in setups),
                   "peak_rss_mb": statistics.median(o.peak_rss_mb for o in ok_plain)}
        spec = SPEC["end_to_end"]
    first = (plain + traced)[0].digests
    info = {
        "workload": bench.workload.name,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == bench.workload.name),
        "shift": bench.shift, "environment": environment(bench.work),
        "samples": {"wall_s": [o.wall_s for o in plain],
                    "setup_s": [o.wall_s for o in setups],
                    "traced_wall_s": [o.wall_s for o in traced]},
        "problems": sorted({p for o in failed for p in o.problems})[:20],
        "outputs_identical_across_repeats": all(o.digests == first for o in plain + traced),
        "sha256": first,
    }
    if trace:
        info["counts"] = {k: metrics[k] for k in
                          ("solver.steps", "solver.newton_iters", "solver.clamp_events")}
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec}}
    return result, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "crossdiff" / "cli.py").is_file():
        print(f"error: no crossdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        bench.prepare()
        result, info = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
