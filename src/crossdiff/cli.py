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
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, build_plan, build_problem, dump_config, parse_config
from .csvio import (read_snapshots, read_table, write_report_csv,
                    write_snapshots, write_study_csv)
from .diagnostics import build_report
from .diagnostics import make_test_bank  # noqa: F401 (bench/run.py, bench/trace_cli.py)
from .grid import make_grid
from .solver import SolverError, Trajectory, run
from .study import run_study
from .svgplot import emit_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


# the config key that each flag of run and study sets
_FLAG_KEYS = {"out": ("output", "dir"), "stepper": ("time", "stepper"),
              "eps": ("time", "eps"), "levels": ("study", "levels")}
_VALUE_FLAGS = {f"--{flag}" for flag in _FLAG_KEYS}
_OPTIONS = {"-h", "--help", "--loglog", *_VALUE_FLAGS}


def _attach_values(argv: list[str]) -> list[str]:
    """argv with `--eps -1e-3` written as `--eps=-1e-3`: argparse reads a
    value that starts with '-' (other than a plain negative number) as an
    option, so the flag would get no value and its key no check.  The
    parsers take no abbreviated flags, so a value flag is one of these exact
    names."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and arg.startswith("-") and arg not in _OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossdiff", allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (("run", "integrate a configured problem"),
                               ("study", "refinement / viscosity campaign")):
        p_cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p_cmd.add_argument("config")
        for flag, (section, key) in _FLAG_KEYS.items():
            if flag != "levels" or command == "study":
                p_cmd.add_argument(f"--{flag}", help=f"overrides [{section}] {key}")

    p_diag = sub.add_parser("diagnose", help="recompute diagnostics from snapshots",
                            allow_abbrev=False)
    p_diag.add_argument("trajdir")
    p_diag.add_argument("--out", help="default: TRAJDIR/diagnose")

    p_plot = sub.add_parser("plot", help="render CSV tables as SVG", allow_abbrev=False)
    p_plot.add_argument("csv", nargs="+")
    p_plot.add_argument("--out", default=".")
    p_plot.add_argument("--loglog", action="store_true")
    return parser


def _load_config(path: str, args):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    overrides = {}
    for flag, (section, key) in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            overrides.setdefault(section, {})[key] = getattr(args, flag)
    return parse_config(text, overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args)
    problem = build_problem(cfg)
    traj = run(problem)
    report = build_report(traj, cfg.bank_k, cfg.residuals, cfg.moduli)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.cfg").write_text(dump_config(cfg))
    write_snapshots(traj, out, cfg.precision)
    write_report_csv(report, out, cfg.precision)
    print(f"run complete: {len(traj.times)} snapshots, "
          f"{len(traj.step_log)} steps, "
          f"clamp_events={sum(rec.clamps for rec in traj.step_log)}, "
          f"output in {out}")
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = _load_config(args.config, args)
    plan = build_plan(cfg)
    report = run_study(plan, bank_k=cfg.bank_k, residuals=cfg.residuals,
                       moduli=cfg.moduli)
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
    problem = build_problem(cfg)
    try:
        problem = replace(problem, snapshot_times=tuple(times.tolist()))
    except ValueError as err:  # the stored times break a snapshot rule
        raise ValueError(f"{traj_dir}: {err}") from None
    report = build_report(Trajectory(problem, times, states, ()), cfg.bank_k,
                          cfg.residuals, cfg.moduli)
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
    args = _parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
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
