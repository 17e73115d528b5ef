"""Run the crossdiff CLI with spans recorded around calls into each module.

    PYTHONPATH=src python3 bench/trace_cli.py SPANS.json CLI-ARGS...

Nothing inside the package is changed: each traced public function is
wrapped where its caller looks it up (cli imports its callees by name, so
crossdiff.cli.run and crossdiff.study.run are wrapped as well as
crossdiff.solver.advance).  Spans are kept in memory and written to
SPANS.json when the command ends, as a list of

    [name, parent index or -1, start ns, end ns, Field inits inside, data]

where data holds counts read from the call's arguments or result.  The exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field_inits = 0

    def wrap(self, name: str, fn, data=None):
        """Span around every call of fn; data(args, result) may attach counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1, 0, 0, self.field_inits, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                span[4] = self.field_inits - span[4]
                self.stack.pop()
            if data is not None:
                span[5] = data(args, result)
            return result
        return traced


def _trajectory_counts(args, traj) -> dict:
    log = traj.step_log
    return {"steps": len(log), "newton_iters": sum(r.newton_iters for r in log),
            "clamp_events": sum(r.clamps for r in log),
            "n_cells": traj.problem.grid.n_cells}


def _bytes_written(args, paths) -> dict:
    return {"bytes": sum(p.stat().st_size for p in paths)}


def _bytes_read(args, states) -> dict:
    return {"bytes": sum(p.stat().st_size for p in Path(args[0]).glob("snapshot_*.csv"))}


# (module, attribute, span name, data extractor); the span name is the
# defining module and function, so one function gets one name wherever
# it is looked up
TRACED = (
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "build_problem", "config.build_problem", None),
    ("config", "build_problem", "config.build_problem", None),
    ("cli", "build_plan", "config.build_plan", None),
    ("cli", "run", "solver.run", _trajectory_counts),
    ("study", "run", "solver.run", _trajectory_counts),
    ("solver", "advance", "solver.advance", None),
    ("solver", "cfl_dt", "solver.cfl_dt", None),
    ("cli", "run_study", "study.run_study", None),
    ("cli", "make_test_bank", "diagnostics.make_test_bank", None),
    ("study", "make_test_bank", "diagnostics.make_test_bank", None),
    ("diagnostics", "make_test_bank", "diagnostics.make_test_bank", None),
    ("cli", "build_report", "diagnostics.build_report", None),
    ("study", "build_report", "diagnostics.build_report", None),
    ("diagnostics", "entropy", "diagnostics.entropy", None),
    ("diagnostics", "energy", "diagnostics.energy", None),
    ("diagnostics", "diss_entropy_rate", "diagnostics.diss_entropy_rate", None),
    ("diagnostics", "dissipation_beta", "diagnostics.dissipation_beta", None),
    ("diagnostics", "bv_norms", "diagnostics.bv_norms", None),
    ("diagnostics", "lebesgue_norms", "diagnostics.lebesgue_norms", None),
    ("diagnostics", "weak_residual", "diagnostics.weak_residual", None),
    ("diagnostics", "equicontinuity_moduli", "diagnostics.equicontinuity_moduli", None),
    ("cli", "write_snapshots", "csvio.write_snapshots", _bytes_written),
    ("cli", "read_snapshots", "csvio.read_snapshots", _bytes_read),
    ("cli", "write_report_csv", "csvio.write_report_csv", None),
    ("cli", "write_study_csv", "csvio.write_study_csv", None),
)


def install(tracer: Tracer) -> None:
    import crossdiff.grid

    wrapped = {}
    for module_name, attr, span_name, data in TRACED:
        module = sys.modules[f"crossdiff.{module_name}"]
        fn = getattr(module, attr)
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(span_name, fn, data)
        setattr(module, attr, wrapped[fn])

    init = crossdiff.grid.Field.__post_init__

    def counted_init(field):
        tracer.field_inits += 1
        init(field)
    crossdiff.grid.Field.__post_init__ = counted_init


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    import crossdiff.cli
    tracer.spans.append(["cli.import", -1, start, time.perf_counter_ns(), 0, None])
    install(tracer)
    code = tracer.wrap("cli.main", crossdiff.cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
