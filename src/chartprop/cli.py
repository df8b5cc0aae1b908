"""Command-line front end: run one config, emit trajectory and report.

Usage:

    chartprop run CONFIG [--samples N] [--compare-oracle]
                  [--format csv|json] [--output PATH]
                  [--rel-tol X] [--abs-tol X]

The trajectory table goes to --output (default: standard output); the
run report goes to standard error as `key = value` lines, so piping
the table stays clean. The report includes the step accounting of the
chart run (`chart_*` lines) and, with --compare-oracle, of the oracle
(`oracle_*` lines). The chart run measures step errors with the chart's
error weights, so the tolerances act on the evolution operator; the
oracle runs unweighted. Exit codes: 0 success, 1 config, IO or
integration trouble (a run that exhausts its step budget included; its
rows up to the last step are still written), 2 chart singularity (the
math ran off the coordinate chart; the rows up to the blow-up are
still written).

With --compare-oracle the oracle runs in a forked child process while
this one builds and writes the table; where os.fork does not exist it
runs inline, before the table. Both paths give the same output and
report. The `oracle_wait_s` report line says how long the run waited
for the oracle after writing the table. The rows are always written
first: when the oracle fails (for instance by exhausting the step
budget) the run still writes them and any truncation notice, then exits
1 with an `error:` line naming the oracle failure. Python 3.12 and later
warn (DeprecationWarning) when a process with threads forks, and numpy's
BLAS may have started threads; that one warning is ignored at the fork,
since the child only integrates, pickles its outcome and leaves through
os._exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import three_level, two_level
from .drives import ConfigError, config_to_dict, parse_config
from .integrate import (IntegrationError, IntegrationStats,
                        IntegratorSettings, integrate)
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
    """Summary numbers for one run; all residuals are non-negative.

    chart_stats and oracle_stats are the step accounting of the chart
    integration and of the direct-matrix oracle; each field becomes a
    line of its own, prefixed with chart_ or oracle_. oracle_wait_s and
    wall_time_s are wall-clock seconds: how long the run waited for the
    oracle after writing the table, and the whole run.
    """

    status: str
    max_unitarity_error: float
    max_schrodinger_residual: float
    singularity_time: Optional[float] = None
    max_delta1_residual: Optional[float] = None
    max_delta2_residual: Optional[float] = None
    max_frobenius_error: Optional[float] = None
    time_of_max_error: Optional[float] = None
    oracle_unitarity_drift: Optional[float] = None
    chart_stats: Optional[IntegrationStats] = None
    oracle_stats: Optional[IntegrationStats] = None
    oracle_wait_s: Optional[float] = None
    wall_time_s: Optional[float] = None

    def as_lines(self) -> list:
        def fmt(v):
            return f"{v:.17g}" if isinstance(v, float) else str(v)
        keys = ("status", "singularity_time", "max_unitarity_error",
                "max_schrodinger_residual", "max_delta1_residual",
                "max_delta2_residual", "max_frobenius_error",
                "time_of_max_error", "oracle_unitarity_drift")
        fields = [(k, getattr(self, k)) for k in keys]
        for prefix in ("chart", "oracle"):
            stats = getattr(self, f"{prefix}_stats")
            if stats is not None:
                fields += [(f"{prefix}_{k}", v)
                           for k, v in vars(stats).items()]
        fields += [("oracle_wait_s", self.oracle_wait_s),
                   ("wall_time_s", self.wall_time_s)]
        return [f"{k} = {fmt(v)}" for k, v in fields if v is not None]


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


_JSON_BLOCK = 256  # table rows per write; a JSON row is ~1.7x a CSV row


def _json_header(config, settings, trajectory) -> dict:
    return {
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


def _json_float(value) -> str:
    # The text json.dumps gives a float, non-finite values included.
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _write_json(columns, table, header, stream) -> None:
    # Writes json.dumps({"header": header, "samples": rows}, indent=1)
    # plus a newline, rows being one {column: value} object per table
    # row, streamed in blocks of rows like the CSV. A row is one
    # %-operation on a prebuilt template; str of a Python float is the
    # shortest text that round-trips, which is what json writes.
    # A table has at least the row of the start time.
    head = json.dumps({"header": header}, indent=1)   # ends in "\n}"
    stream.write(head[:-2] + ',\n "samples": [\n')
    row_format = ("  {\n"
                  + ",\n".join(f"   {json.dumps(name)}: %s" for name in columns)
                  + "\n  }")
    for lo in range(0, len(table), _JSON_BLOCK):
        block = table[lo:lo + _JSON_BLOCK]
        values = block.ravel().tolist()
        if not np.isfinite(block).all():
            values = [_json_float(v) for v in values]
        if lo:
            stream.write(",\n")
        stream.write(",\n".join([row_format] * len(block)) % tuple(values))
    stream.write("\n ]\n}\n")


def _write_table(columns, table, trajectory, config, settings,
                 output_format, stream) -> None:
    if output_format == "csv":
        _write_csv(columns, table, stream)
    else:
        _write_json(columns, table,
                    _json_header(config, settings, trajectory), stream)


def emit_trajectory(trajectory, unitaries, config, settings, output_format,
                    stream) -> None:
    """Write the sampled trajectory (complete or partial) to a stream."""
    columns, table = trajectory_table(trajectory, unitaries, config.hamiltonian)
    _write_table(columns, table, trajectory, config, settings, output_format,
                 stream)


def _oracle_outcome(ham, settings, times, unitaries) -> tuple:
    """Integrate the direct-matrix oracle on the chart run's sample times
    and compare: (the report fields it fills, None), or (None, the
    exception it raised)."""
    try:
        oracle = integrate_schrodinger(ham, times[0], times[-1], settings,
                                       times)
        oracle_report = compare(times, unitaries, oracle)
    except Exception as exc:
        return None, exc
    return {"max_frobenius_error": oracle_report.max_frobenius_error,
            "time_of_max_error": oracle_report.time_of_max,
            "oracle_unitarity_drift": oracle_report.oracle_drift,
            "oracle_stats": oracle.stats}, None


def _oracle_result(outcome) -> dict:
    fields, exc = outcome
    if exc is not None:
        raise IntegrationError(f"direct-matrix oracle failed: {exc}") from exc
    return fields


# Where fork exists, the oracle runs in a child process while this one
# writes the table; elsewhere it runs inline, before the table.
_CAN_FORK = hasattr(os, "fork")
# The DeprecationWarning of Python 3.12 and later for a fork in a
# process with threads, as a `warnings.filterwarnings` message pattern.
_FORK_WITH_THREADS = (r"This process \(pid=\d+\) is multi-threaded, "
                      r"use of fork\(\) may lead to deadlocks in the child\.")


class _OracleCheck:
    """The oracle comparison of one run, started before the table is
    written; result() waits for it and returns its report fields or
    raises IntegrationError, close() ends a child still running.

    The child gets a copy of the inputs by fork, runs the same functions
    the inline path runs, and sends back only the pickled outcome: the
    report fields or the exception, a few hundred bytes. It writes
    nothing to standard output or error and leaves through os._exit, so
    no buffered output, atexit handler or test teardown runs twice.
    """

    def __init__(self, ham, settings, times, unitaries):
        args = (ham, settings, times, unitaries)
        self._pid = None
        if not _CAN_FORK:
            self._outcome = _oracle_outcome(*args)
            return
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WITH_THREADS,
                                        DeprecationWarning)
                pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                # Nothing the child might print (a warning) reaches the
                # streams the parent is writing.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.dup2(devnull, 2)
                payload = pickle.dumps(_oracle_outcome(*args))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self._pid = pid
        self._pipe = os.fdopen(read_fd, "rb")

    def result(self) -> dict:
        if self._pid is None:
            return _oracle_result(self._outcome)
        with self._pipe:
            payload = self._pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if not payload:
            raise IntegrationError(
                f"direct-matrix oracle worker ended without a result "
                f"(exit status {os.waitstatus_to_exitcode(status)})")
        return _oracle_result(pickle.loads(payload))

    def close(self) -> None:
        if self._pid is not None:
            import signal   # only a failed run gets here; keeps import lean
            self._pipe.close()
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


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
                           escape=chart.escaped,
                           error_weight=chart.error_weight)

    unitaries = chart.reconstruct_batch(trajectory.states)
    report_fields = {
        "status": trajectory.status,
        "singularity_time": trajectory.singularity_time,
        "max_unitarity_error": float(np.max(unitarity_errors(unitaries))),
        "chart_stats": trajectory.stats,
    }

    oracle = None
    if request.compare_oracle and len(trajectory.times) >= 2:
        oracle = _OracleCheck(ham, settings, trajectory.times, unitaries)
    try:
        # The table carries every residual array; the report takes its
        # maxima from there rather than computing the residuals again.
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

        if trajectory.status == "singularity":
            code, truncation = 2, (f"chart singularity near t = "
                                   f"{trajectory.singularity_time:.12g}; "
                                   f"trajectory truncated")
        elif trajectory.status == "step_limit":
            code, truncation = 1, (f"step limit hit at t = "
                                   f"{trajectory.times[-1]:.12g}; "
                                   f"trajectory truncated")
        else:
            code, truncation = 0, None
        # The notice goes out with the rows, before an oracle failure.
        if truncation is not None:
            print(truncation, file=sys.stderr)

        if oracle is not None:
            waited = time.perf_counter()
            report_fields.update(oracle.result())
            report_fields["oracle_wait_s"] = time.perf_counter() - waited
    finally:
        if oracle is not None:
            oracle.close()

    report_fields["wall_time_s"] = time.perf_counter() - started
    return code, RunReport(**report_fields)


def run(request: RunRequest) -> int:
    """Execute one run request; returns the process exit code."""
    try:
        code, report = _run_impl(request)
    except (ConfigError, OSError, IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
