"""Command-line front end: run one config, emit trajectory and report.

Usage:

    chartprop run CONFIG [--samples N] [--compare-oracle]
                  [--format csv|json] [--output PATH]
                  [--rel-tol X] [--abs-tol X]

The trajectory table goes to --output (default: standard output); the
run report goes to standard error as `key = value` lines, so piping
the table stays clean. The report includes the step accounting of the
chart run (`chart_*` lines) and, with --compare-oracle, of the oracle
(`oracle_*` lines). The chart run is `charts.propagate`, which measures
step errors with the chart's error weights, so the tolerances act on
the evolution operator; the oracle runs unweighted. Exit codes: 0
success, 1 config, IO or integration trouble (a run that exhausts its
step budget included; its rows up to the last step are still written),
2 chart singularity (the math ran off the coordinate chart; the rows up
to the blow-up are still written).

With --compare-oracle the direct-matrix oracle starts in a forked child
process right after the config is read, on the requested sample grid,
and integrates while this process runs the chart; the child sends back
the oracle trajectory and this process compares. A chart run that stops
early (a singularity or the step limit) ends on a prefix of the grid
plus its closing time, so the oracle then starts again on those times.
Where os.fork does not exist the oracle runs inline, after the table.
Both paths give the same output and report. The rows are always
written first: when the oracle fails (for instance by exhausting the
step budget) the run still writes them and any truncation notice, then
exits 1 with an `error:` line naming the oracle failure.

A table of 4096 rows or more is formatted in two shares when os.fork
exists and the process may use more than one CPU (see `_write_rows`).
So a run may fork twice or three times; each child writes nothing to
standard output or error and leaves through os._exit.

The report's keys and their order are stated once, in _REPORT_KEYS;
`main` prints the fields `_run_impl` returns in that order. The report
ends in wall-clock lines: `parse_s` (reading the config), `chart_s`
(`propagate`: the chart integration and the reconstruction of U),
`table_s` (the residuals and the table), `emit_s` (writing it),
`oracle_wait_s` (how long the run then waited for the oracle) and
`wall_time_s`. Python 3.12 and later warn (DeprecationWarning) when a
process with threads forks, and numpy's BLAS may have started threads;
that one warning is ignored at each fork.
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
from typing import Optional

import numpy as np

from .charts import CHARTS, propagate
from .drives import ConfigError, config_to_dict, parse_config
from .integrate import IntegrationError, IntegrationStats, IntegratorSettings
from .reference import (compare, integrate_schrodinger, schrodinger_residuals,
                        unitarity_errors)


# The report's lines, in this order. "chart" and "oracle" stand for the
# step accounting of that run, an IntegrationStats whose fields each
# become a line of their own, prefixed with chart_ or oracle_. The keys
# from parse_s on are the wall-clock lines of the module docstring.
_REPORT_KEYS = ("status", "singularity_time", "max_unitarity_error",
                "max_schrodinger_residual", "max_delta1_residual",
                "max_delta2_residual", "max_frobenius_error",
                "time_of_max_error", "oracle_unitarity_drift",
                "chart", "oracle", "parse_s", "chart_s", "table_s", "emit_s",
                "oracle_wait_s", "wall_time_s")


def _print_report(report) -> None:
    """Print a run's report fields to standard error as `key = value`
    lines in _REPORT_KEYS order, a float as %.17g; a field that is
    missing or None prints no line."""
    for key in _REPORT_KEYS:
        value = report.get(key)
        lines = ([(f"{key}_{name}", v) for name, v in vars(value).items()]
                 if isinstance(value, IntegrationStats) else [(key, value)])
        for name, v in lines:
            if v is not None:
                text = f"{v:.17g}" if isinstance(v, float) else str(v)
                print(f"{name} = {text}", file=sys.stderr)


def trajectory_table(trajectory, unitaries, ham) -> tuple:
    """Column names and a (samples x columns) float matrix for emission.

    Columns: t, the chart coordinates, U entries as re/im pairs in
    row-major order, then the residuals (Schrodinger first, then the
    chart's own).
    """
    times = trajectory.times
    dim = ham.dim
    chart = CHARTS[dim]
    residuals = {"schrodinger": schrodinger_residuals(times, unitaries, ham)}
    residuals.update(chart.extra_residuals(times, trajectory.states, ham))

    # a complex array viewed as floats holds re, im pairs
    interleaved = np.ascontiguousarray(unitaries, dtype=complex).reshape(
        len(times), dim * dim).view(float)

    columns = (["t", *chart.COORD_COLUMNS]
               + [f"u{i}{j}_{p}" for i in range(1, dim + 1)
                  for j in range(1, dim + 1) for p in ("re", "im")]
               + [f"residual_{name}" for name in residuals])
    table = np.hstack([times[:, None], chart.coord_block(trajectory.states),
                       interleaved, np.column_stack(list(residuals.values()))])
    return columns, table


_CSV_BLOCK = 1024  # table rows per write
_JSON_BLOCK = 256  # table rows per write; a JSON row is ~1.7x a CSV row
_PIPE_CHUNK = 1 << 16  # bytes per read from a child process


def _csv_rows(width):
    # One block of rows as one %-operation on a prebuilt format; "%.17g"
    # writes every float, nan and the infinities included, as
    # f"{v:.17g}" does.
    row_format = ",".join(["%.17g"] * width) + "\n"

    def text(block):
        return (row_format * len(block)) % tuple(block.ravel().tolist())
    return text


def _write_csv(columns, table, stream) -> None:
    stream.write(",".join(columns) + "\n")
    _write_rows(table, _csv_rows(table.shape[1]), _CSV_BLOCK, "", stream)


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


def _json_rows(columns):
    # One block of rows as one %-operation on a prebuilt row template;
    # str of a Python float is the shortest text that round-trips, which
    # is what json writes.
    row_format = ("  {\n"
                  + ",\n".join(f"   {json.dumps(name)}: %s" for name in columns)
                  + "\n  }")

    def text(block):
        values = block.ravel().tolist()
        if not np.isfinite(block).all():
            values = [_json_float(v) for v in values]
        return ",\n".join([row_format] * len(block)) % tuple(values)
    return text


def _write_json(columns, table, header, stream) -> None:
    # Writes json.dumps({"header": header, "samples": rows}, indent=1)
    # plus a newline, rows being one {column: value} object per table
    # row, streamed in blocks of rows like the CSV. A table has at least
    # the row of the start time.
    head = json.dumps({"header": header}, indent=1)   # ends in "\n}"
    stream.write(head[:-2] + ',\n "samples": [\n')
    _write_rows(table, _json_rows(columns), _JSON_BLOCK, ",\n", stream)
    stream.write("\n ]\n}\n")


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# The fewest rows a table needs before a forked helper formats half of
# it. Measured on the three-level benchmark config with the oracle child
# running (BENCH_12.json, helper_threshold): at 2049 rows the helper's
# fork and pipe cost about what the half it takes over saves, and from
# 4097 rows on it shortens the write of CSV and JSON alike.
_SHARE_MIN_ROWS = 4096


def _helper_start(rows) -> Optional[int]:
    """The first row of the formatter helper's share, or None when this
    process formats every row: without fork, on one CPU, or for a table
    of fewer than _SHARE_MIN_ROWS rows."""
    if not _CAN_FORK or rows < _SHARE_MIN_ROWS or _cpus() < 2:
        return None
    return rows // 2


def _share_pieces(text, table, block, separator) -> list:
    """The formatter helper's share: the text of its rows as ASCII
    bytes, one piece per block of rows, each led by the separator,
    since the share follows the rows this process writes."""
    return [(separator + text(table[lo:lo + block])).encode("ascii")
            for lo in range(0, len(table), block)]


def _write_rows(table, text, block, separator, stream) -> None:
    """Write the table's rows as text(block) per block of rows, with
    the separator between blocks. From _SHARE_MIN_ROWS rows up the
    helper of _helper_start formats the second half meanwhile; its text
    follows in reads of at most _PIPE_CHUNK bytes, so no write holds
    more than a block or a read."""
    start = _helper_start(len(table))
    helper = None
    if start is not None:
        helper = _Forked("table formatter worker", _share_pieces, text,
                         table[start:], block, separator)
        table = table[:start]
    try:
        for lo in range(0, len(table), block):
            piece = text(table[lo:lo + block])
            stream.write(separator + piece if lo else piece)
        if helper is not None:
            for chunk in helper.chunks():
                stream.write(chunk.decode("ascii"))
    finally:
        if helper is not None:
            helper.close()


def _write_table(columns, table, trajectory, config, settings,
                 output_format, stream) -> None:
    if output_format == "csv":
        _write_csv(columns, table, stream)
    else:
        _write_json(columns, table,
                    _json_header(config, settings, trajectory), stream)


def emit_trajectory(trajectory, unitaries, config, settings, output_format,
                    stream) -> None:
    """Write the sampled trajectory (complete or partial) to a stream.

    Where fork exists, a table of _SHARE_MIN_ROWS rows or more is
    formatted in two processes (see `_write_rows`)."""
    columns, table = trajectory_table(trajectory, unitaries, config.hamiltonian)
    _write_table(columns, table, trajectory, config, settings, output_format,
                 stream)


# Where fork exists, the oracle and the formatter helper run in child
# processes; elsewhere the oracle runs inline and this process formats
# the whole table.
_CAN_FORK = hasattr(os, "fork")
# The DeprecationWarning of Python 3.12 and later for a fork in a
# process with threads, as a `warnings.filterwarnings` message pattern.
_FORK_WITH_THREADS = (r"This process \(pid=\d+\) is multi-threaded, "
                      r"use of fork\(\) may lead to deadlocks in the child\.")


class _Forked:
    """fn(*args) run in a forked child process, which writes the bytes
    pieces fn returns to a pipe.

    chunks() yields that result as it arrives, in reads of at most
    _PIPE_CHUNK bytes, then reaps the child; a child that ends with a
    nonzero status (fn raised, or the child was killed) raises
    IntegrationError naming the worker. result() returns the whole
    result, and close() kills and reaps a child still running. Where
    fork does not exist, fn runs inline, at the first chunks() call, and
    its pieces come back as they are.

    The child gets its inputs by fork. Its file descriptors 1 and 2
    point at os.devnull, so nothing it might print (a warning) reaches
    the streams this process writes, and it leaves through os._exit, so
    no buffered output, atexit handler or test teardown runs twice.
    """

    def __init__(self, name, fn, *args):
        self._name = name
        self._pid = self._fd = self._inline = None
        if not _CAN_FORK:
            self._inline = (fn, args)
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
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.dup2(devnull, 2)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.writelines(fn(*args))
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self._pid, self._fd = pid, read_fd

    def chunks(self):
        if self._inline is not None:
            fn, args = self._inline
            self._inline = None
            yield from fn(*args)
            return
        while chunk := os.read(self._fd, _PIPE_CHUNK):
            yield chunk
        os.close(self._fd)
        self._fd = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise IntegrationError(f"{self._name} ended without a result "
                                   f"(exit status {code})")

    def result(self) -> bytes:
        return b"".join(self.chunks())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._pid is not None:
            import signal   # only a failed run gets here; keeps import lean
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _oracle_pieces(ham, settings, times) -> list:
    """The direct-matrix oracle on the sample times, pickled in one
    piece: (the OracleTrajectory, None) or (None, the exception)."""
    try:
        outcome = integrate_schrodinger(ham, times[0], times[-1], settings,
                                        times), None
    except Exception as exc:
        outcome = None, exc
    return [pickle.dumps(outcome)]


def _start_oracle(ham, settings, times) -> _Forked:
    return _Forked("direct-matrix oracle worker", _oracle_pieces, ham,
                   settings, times)


def _oracle_fields(oracle, times, unitaries) -> dict:
    """Wait for the oracle and compare: the report fields it fills."""
    trajectory, exc = pickle.loads(oracle.result())
    if exc is not None:
        raise IntegrationError(f"direct-matrix oracle failed: {exc}") from exc
    report = compare(times, unitaries, trajectory)
    return {"max_frobenius_error": report.max_frobenius_error,
            "time_of_max_error": report.time_of_max,
            "oracle_unitarity_drift": trajectory.drift,
            "oracle": trajectory.stats}


# The exit code of a chart run by its status.
_EXIT_CODES = {"completed": 0, "step_limit": 1, "singularity": 2}


def _run_impl(args):
    """Run the parsed `chartprop run` arguments; returns the exit code
    and the report fields, keyed as in _REPORT_KEYS."""
    started = time.perf_counter()
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh)

    rel_tol = config.rel_tol if args.rel_tol is None else args.rel_tol
    abs_tol = config.abs_tol if args.abs_tol is None else args.abs_tol
    settings = IntegratorSettings(max_step=config.max_step,
                                  rel_tol=rel_tol, abs_tol=abs_tol)
    ham = config.hamiltonian
    grid = np.linspace(config.t_start, config.t_end, args.samples)
    report = {"parse_s": time.perf_counter() - started}

    oracle = None
    if args.compare_oracle:
        oracle = _start_oracle(ham, settings, grid)
    try:
        lap = time.perf_counter()
        trajectory, unitaries, _ = propagate(ham, config.t_start,
                                             config.t_end, settings, grid)
        report["chart_s"] = time.perf_counter() - lap
        if oracle is not None and trajectory.status != "completed":
            # The chart's times are a prefix of the grid and a closing
            # time: the oracle starts again on them.
            oracle.close()
            oracle = None
            if len(trajectory.times) >= 2:
                oracle = _start_oracle(ham, settings, trajectory.times)

        lap = time.perf_counter()
        report.update(status=trajectory.status,
                      singularity_time=trajectory.singularity_time,
                      max_unitarity_error=float(
                          np.max(unitarity_errors(unitaries))),
                      chart=trajectory.stats)
        # The table carries every residual array; the report takes its
        # maxima from there rather than computing the residuals again.
        columns, table = trajectory_table(trajectory, unitaries, ham)
        for name, column in zip(columns, table.T):
            if name.startswith("residual_"):
                key = name.removeprefix("residual_")
                report[f"max_{key}_residual"] = float(np.max(column))
        report["table_s"] = time.perf_counter() - lap

        lap = time.perf_counter()
        if args.output is None:
            _write_table(columns, table, trajectory, config, settings,
                         args.format, sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_table(columns, table, trajectory, config, settings,
                             args.format, fh)
        report["emit_s"] = time.perf_counter() - lap

        # An early stop's notice, the message of the error it stands
        # for, goes out with the rows, before an oracle failure.
        code = _EXIT_CODES[trajectory.status]
        try:
            trajectory.require_completed()
        except IntegrationError as stop:
            print(f"{stop}; trajectory truncated", file=sys.stderr)

        if oracle is not None:
            lap = time.perf_counter()
            report.update(_oracle_fields(oracle, trajectory.times, unitaries))
            report["oracle_wait_s"] = time.perf_counter() - lap
    finally:
        if oracle is not None:
            oracle.close()

    report["wall_time_s"] = time.perf_counter() - started
    return code, report


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
    """`chartprop run`; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.samples < 2:
            raise ValueError("samples must be at least 2")
        code, report = _run_impl(args)
    except (_CliError, OSError, IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    return code
