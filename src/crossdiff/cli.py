"""Command-line entry points.

    crossdiff run CONFIG [--out DIR] [--stepper S] [--eps X]
        integrate and write snapshot_<t>.csv files, the report CSVs
        (scalars, omega_space, omega_time, residuals) and a canonical
        run.cfg into the output directory
    crossdiff study CONFIG [--out DIR] [--levels N] [--eps X] [--stepper S]
        run the refinement/viscosity campaign and write levels.csv,
        cauchy_l1.csv, rates.csv plus per-level scalars under level_<k>/
    crossdiff diagnose TRAJDIR [--out DIR]
        recompute the diagnostics report from stored snapshots
    crossdiff plot CSV... [--out DIR] [--loglog]
        render each CSV (first column = x) as a standalone SVG

Exit codes: 0 success, 2 config error, 3 runtime error, 4 I/O error.
Failures print a single line `error: <code>: <message>` to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, build_plan, build_problem, dump_config, parse_config
from .csvio import (read_snapshots, read_table, write_report_csv,
                    write_snapshots, write_study_csv)
from .diagnostics import build_report, make_test_bank
from .grid import make_grid
from .model import STEPPERS
from .solver import SolverError, Trajectory, run
from .study import run_study
from .svgplot import emit_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossdiff",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured problem")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--stepper", choices=STEPPERS)
    p_run.add_argument("--eps", type=float, help="artificial viscosity override")

    p_study = sub.add_parser("study", help="refinement / viscosity campaign")
    p_study.add_argument("config")
    p_study.add_argument("--out")
    p_study.add_argument("--levels", type=int)
    p_study.add_argument("--eps", type=float)
    p_study.add_argument("--stepper", choices=STEPPERS)

    p_diag = sub.add_parser("diagnose", help="recompute diagnostics from snapshots")
    p_diag.add_argument("trajdir")
    p_diag.add_argument("--out", help="default: TRAJDIR/diagnose")

    p_plot = sub.add_parser("plot", help="render CSV tables as SVG")
    p_plot.add_argument("csv", nargs="+")
    p_plot.add_argument("--out", default=".")
    p_plot.add_argument("--loglog", action="store_true")
    return parser


def _load_config(path: str, args):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    cfg = parse_config(text)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "stepper", None):
        cfg = replace(cfg, stepper=args.stepper)
    if getattr(args, "eps", None) is not None:
        if not math.isfinite(args.eps):
            raise ConfigError(f"--eps must be a finite number, got {args.eps}")
        if args.eps < 0.0:
            raise ConfigError("--eps must be nonnegative")
        cfg = replace(cfg, eps=args.eps)
    if getattr(args, "levels", None) is not None:
        if args.levels < 2:
            raise ConfigError("--levels must be >= 2")
        if cfg.study_viscosity and len(cfg.study_viscosity) != args.levels:
            raise ConfigError(f"--levels {args.levels} does not match the "
                              f"{len(cfg.study_viscosity)} [study] viscosity entries")
        cfg = replace(cfg, study_levels=args.levels)
    return cfg


def _report(cfg, traj: Trajectory):
    """Diagnostics report of a trajectory, with the outputs cfg asks for."""
    problem = traj.problem
    bank = (make_test_bank(problem.grid, problem.t_final, cfg.bank_k)
            if cfg.residuals and problem.t_final > 0.0 else None)
    return build_report(traj, bank, with_residuals=cfg.residuals and bank is not None,
                        with_moduli=cfg.moduli)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args)
    problem = build_problem(cfg)
    traj = run(problem)
    report = _report(cfg, traj)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(dump_config(cfg))
    write_snapshots(traj, out, cfg.precision)
    write_report_csv(report, out, cfg.precision)
    print(f"run complete: {len(traj.times)} snapshots, "
          f"{len(traj.step_log)} steps, clamp_events={report.clamp_events}, "
          f"output in {out}")
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _load_config(args.config, args)
    plan = build_plan(cfg)
    report = run_study(plan)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(dump_config(cfg))
    write_study_csv(report, out, cfg.precision)
    for summary, level_report in zip(report.summaries, report.reports):
        write_report_csv(level_report, out / f"level_{summary.level}", cfg.precision)
    print(f"study complete: {plan.levels} levels, output in {out}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    traj_dir = Path(args.trajdir)
    cfg_path = traj_dir / "run.cfg"
    if not cfg_path.exists():
        raise ConfigError(f"no run.cfg in {traj_dir}")
    cfg = parse_config(cfg_path.read_text())
    times, states = read_snapshots(traj_dir, make_grid(cfg.n_cells))
    problem = build_problem(cfg, snapshot_times=tuple(times.tolist()))
    report = _report(cfg, Trajectory(problem, times, states, ()))
    out = Path(args.out) if args.out else traj_dir / "diagnose"
    write_report_csv(report, out, cfg.precision)
    print(f"diagnose complete: {len(times)} snapshots, output in {out}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    out_dir = Path(args.out)
    for csv_path in args.csv:
        try:
            header, data = read_table(csv_path)
            if data.shape[0] < 2 or len(header) < 2:
                raise ValueError("plot needs >= 2 rows and >= 2 columns")
        except ValueError as err:
            raise ValueError(f"{csv_path}: {err}") from None
        series = [(name, data[:, 0], data[:, j])
                  for j, name in enumerate(header) if j > 0]
        target = out_dir / (Path(csv_path).stem + ".svg")
        emit_plot(series, target, loglog=args.loglog, title=Path(csv_path).name)
        print(f"wrote {target}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": _cmd_run, "study": _cmd_study,
                "diagnose": _cmd_diagnose, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"error: {EXIT_CONFIG}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {EXIT_IO}: {err}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, ValueError, RuntimeError) as err:
        print(f"error: {EXIT_RUNTIME}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
