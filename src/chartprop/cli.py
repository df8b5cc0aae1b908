"""Command-line front end: run one config, emit trajectory and report.

Usage:

    chartprop run CONFIG [--samples N] [--compare-oracle]
                  [--format csv|json] [--output PATH]
                  [--rel-tol X] [--abs-tol X]

The trajectory table goes to --output (default: standard output); the
run report goes to standard error as `key = value` lines, so piping
the table stays clean. Exit codes: 0 success, 1 config, IO or
integration trouble (a run that exhausts its step budget included; its
rows up to the last step are still written), 2 chart singularity (the
math ran off the coordinate chart; the rows up to the blow-up are
still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import three_level, two_level
from .drives import ConfigError, config_to_dict, parse_config
from .integrate import IntegrationError, IntegratorSettings, integrate
from .reference import (compare, integrate_schrodinger, schrodinger_residuals,
                        unitarity_errors)


@dataclass(frozen=True)
class RunRequest:
    """One CLI invocation's worth of work."""

    config_path: str
    samples: int = 200
    compare_oracle: bool = False
    output_format: str = "csv"
    output_path: Optional[str] = None   # None means standard output
    rel_tol: Optional[float] = None     # None means use the config value
    abs_tol: Optional[float] = None

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")


@dataclass(frozen=True)
class RunReport:
    """Summary numbers for one run; all residuals are non-negative."""

    status: str
    max_unitarity_error: float
    max_schrodinger_residual: float
    singularity_time: Optional[float] = None
    max_delta1_residual: Optional[float] = None
    max_delta2_residual: Optional[float] = None
    max_frobenius_error: Optional[float] = None
    time_of_max_error: Optional[float] = None
    oracle_unitarity_drift: Optional[float] = None
    wall_time_s: Optional[float] = None

    def as_lines(self) -> list:
        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)
        keys = ("status", "singularity_time", "max_unitarity_error",
                "max_schrodinger_residual", "max_delta1_residual",
                "max_delta2_residual", "max_frobenius_error",
                "time_of_max_error", "oracle_unitarity_drift", "wall_time_s")
        return [f"{k} = {fmt(getattr(self, k))}"
                for k in keys if getattr(self, k) is not None]


# The one place a chart is chosen; both modules expose the same interface.
_CHARTS = {2: two_level, 3: three_level}


def trajectory_table(trajectory, unitaries, ham) -> tuple:
    """Column names and a (samples x columns) float matrix for emission.

    Columns: t, the chart coordinates, U entries as re/im pairs in
    row-major order, then the residuals (Schrodinger first, then the
    chart's own).
    """
    times = trajectory.times
    dim = ham.dim
    chart = _CHARTS[dim]
    residuals = {"schrodinger": schrodinger_residuals(times, unitaries, ham)}
    residuals.update(chart.extra_residuals(times, trajectory.states, ham))

    flat = unitaries.reshape(len(times), dim * dim)
    interleaved = np.empty((len(times), 2 * dim * dim))
    interleaved[:, 0::2] = flat.real
    interleaved[:, 1::2] = flat.imag

    columns = (["t", *chart.COORD_COLUMNS]
               + [f"u{i}{j}_{p}" for i in range(1, dim + 1)
                  for j in range(1, dim + 1) for p in ("re", "im")]
               + [f"residual_{name}" for name in residuals])
    table = np.hstack([times[:, None], chart.coord_block(trajectory.states),
                       interleaved, np.column_stack(list(residuals.values()))])
    return columns, table


_CSV_BLOCK = 1024  # table rows per write


def _write_csv(columns, table, stream) -> None:
    # Streamed in blocks of rows, each formatted by one %-operation on a
    # prebuilt format; "%.17g" writes every float, nan and the
    # infinities included, as f"{v:.17g}" does.
    stream.write(",".join(columns) + "\n")
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for lo in range(0, len(table), _CSV_BLOCK):
        block = table[lo:lo + _CSV_BLOCK]
        stream.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _json_text(columns, table, config, settings, trajectory) -> str:
    header = {
        "system": config.system,
        "settings": {
            "rel_tol": settings.rel_tol,
            "abs_tol": settings.abs_tol,
            "max_step": settings.max_step,
            "initial_step": settings.initial_step,
            "max_steps": settings.max_steps,
        },
        "config": config_to_dict(config),
        "status": trajectory.status,
        "singularity_time": trajectory.singularity_time,
    }
    # tolist gives Python floats, which json writes in the shortest form
    # that round-trips, the same text as re-parsing f"{v:.17g}" gives.
    samples = [dict(zip(columns, row.tolist())) for row in table]
    return json.dumps({"header": header, "samples": samples}, indent=1) + "\n"


def _write_table(columns, table, trajectory, config, settings,
                 output_format, stream) -> None:
    if output_format == "csv":
        _write_csv(columns, table, stream)
    else:
        stream.write(_json_text(columns, table, config, settings, trajectory))


def emit_trajectory(trajectory, unitaries, config, settings, output_format,
                    stream) -> None:
    """Write the sampled trajectory (complete or partial) to a stream."""
    columns, table = trajectory_table(trajectory, unitaries, config.hamiltonian)
    _write_table(columns, table, trajectory, config, settings, output_format,
                 stream)


def _run_impl(request: RunRequest):
    started = time.perf_counter()
    with open(request.config_path, "r", encoding="utf-8") as fh:
        config = parse_config(fh)

    rel_tol = config.rel_tol if request.rel_tol is None else request.rel_tol
    abs_tol = config.abs_tol if request.abs_tol is None else request.abs_tol
    settings = IntegratorSettings(max_step=config.max_step,
                                  rel_tol=rel_tol, abs_tol=abs_tol)
    ham = config.hamiltonian
    chart = _CHARTS[ham.dim]
    grid = np.linspace(config.t_start, config.t_end, request.samples)

    trajectory = integrate(chart.chart_rhs(ham), np.zeros(chart.STATE_SIZE),
                           config.t_start, config.t_end, settings, grid,
                           escape=chart.escaped)

    unitaries = chart.reconstruct_batch(trajectory.states)
    report_fields = {
        "status": trajectory.status,
        "singularity_time": trajectory.singularity_time,
        "max_unitarity_error": float(np.max(unitarity_errors(unitaries))),
    }

    if request.compare_oracle and len(trajectory.times) >= 2:
        oracle = integrate_schrodinger(ham, trajectory.times[0],
                                       trajectory.times[-1],
                                       settings, trajectory.times)
        oracle_report = compare(trajectory.times, unitaries, oracle)
        report_fields["max_frobenius_error"] = oracle_report.max_frobenius_error
        report_fields["time_of_max_error"] = oracle_report.time_of_max
        report_fields["oracle_unitarity_drift"] = oracle_report.oracle_drift

    # The table carries every residual array; the report takes its maxima
    # from there rather than computing the residuals a second time.
    columns, table = trajectory_table(trajectory, unitaries, ham)
    for name, column in zip(columns, table.T):
        if name.startswith("residual_"):
            key = name.removeprefix("residual_")
            report_fields[f"max_{key}_residual"] = float(np.max(column))

    if request.output_path is None:
        _write_table(columns, table, trajectory, config, settings,
                     request.output_format, sys.stdout)
    else:
        with open(request.output_path, "w", encoding="utf-8") as fh:
            _write_table(columns, table, trajectory, config, settings,
                         request.output_format, fh)

    report_fields["wall_time_s"] = time.perf_counter() - started
    report = RunReport(**report_fields)
    if trajectory.status == "singularity":
        return 2, report, (f"chart singularity near t = "
                           f"{trajectory.singularity_time:.12g}; "
                           f"trajectory truncated")
    if trajectory.status == "step_limit":
        return 1, report, (f"step limit hit at t = "
                           f"{trajectory.times[-1]:.12g}; trajectory truncated")
    return 0, report, None


def run(request: RunRequest) -> int:
    """Execute one run request; returns the process exit code."""
    try:
        code, report, truncation = _run_impl(request)
    except (ConfigError, OSError, IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if truncation is not None:
        print(truncation, file=sys.stderr)
    for line in report.as_lines():
        print(line, file=sys.stderr)
    return code


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; code 2 here is
    # reserved for chart singularities, so route errors to code 1.
    def error(self, message):
        raise _CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chartprop",
                     description="Propagate driven 2- and 3-level evolution "
                                 "operators in chart coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="integrate one config and emit the "
                                      "trajectory")
    runp.add_argument("config", help="path to a YAML/JSON run config")
    runp.add_argument("--samples", type=int, default=200,
                      help="uniform output grid size (default 200)")
    runp.add_argument("--compare-oracle", action="store_true",
                      help="also integrate i dU/dt = HU directly and report "
                           "the difference")
    runp.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="trajectory file format (default csv)")
    runp.add_argument("--output", default=None, metavar="PATH",
                      help="trajectory file path (default: standard output)")
    runp.add_argument("--rel-tol", type=float, default=None, metavar="X",
                      help="override the config's relative tolerance")
    runp.add_argument("--abs-tol", type=float, default=None, metavar="X",
                      help="override the config's absolute tolerance")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        request = RunRequest(config_path=args.config,
                             samples=args.samples,
                             compare_oracle=args.compare_oracle,
                             output_format=args.format,
                             output_path=args.output,
                             rel_tol=args.rel_tol,
                             abs_tol=args.abs_tol)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(request)
