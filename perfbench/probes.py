"""Outside-in layer probes for the traced benchmark run.

Nothing inside chartprop is instrumented. The probes wrap what the
benchmark hands to the library and time the calls it makes into each
module's public functions:

* the `rhs` and `escape` callables given to `integrate`;
* a stand-in Hamiltonian whose `sample`, `matrix`, `matrix_grid` and
  `sample_grid` calls are timed and counted (the chart RHS calls
  `sample`, the direct matrix oracle calls `matrix`, the residual
  diagnostics call the grid forms);
* every other library call, through `Tracer.span`.

Spans (name, member, parent, start, end) are kept in memory and written
out when the run ends. Step accounting follows the Dormand-Prince 5(4)
loop (Hairer, Norsett & Wanner, Solving ODEs I, II.4): one RHS call
before the first step, then 6 new stages per attempted step (the 7th
is reused as the next step's first, FSAL); `escape` is called once per
step that passes error control.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

from chartprop import cli, integrate, schrodinger_residuals

from runner import check_member, propagate

STAGES_PER_ATTEMPT = 6
NEAR_POLE_MODULUS = 10.0


class Tracer:
    """In-memory span recorder; spans nest through a parent index."""

    def __init__(self):
        self.spans = []      # [name, member, parent, start, end]
        self.member = -1
        self._open = -1

    def span(self, name, fn, *args, **kwargs):
        record = [name, self.member, self._open, 0.0, 0.0]
        parent, self._open = self._open, len(self.spans)
        self.spans.append(record)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._open = parent

    def write(self, path):
        """Save the spans as a numpy archive: `names`, and per span
        `name` (index into names), `member`, `parent` (span index, -1 at
        the top) and `start`/`end` in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        table = np.array([(code[s[0]], s[1], s[2], s[3], s[4])
                          for s in self.spans],
                         dtype=[("name", "u1"), ("member", "i4"),
                                ("parent", "i4"), ("start", "f8"),
                                ("end", "f8")])
        origin = table["start"][0] if len(table) else 0.0
        np.savez(path, names=np.array(names), name=table["name"],
                 member=table["member"], parent=table["parent"],
                 start=table["start"] - origin, end=table["end"] - origin)


class HamiltonianProbe:
    """Stands in for a chartprop Hamiltonian and spans every call the
    library makes into the drives layer."""

    def __init__(self, ham, tracer):
        self._ham = ham
        self._span = tracer.span
        self.dim = ham.dim

    def sample(self, t):
        return self._span("drives.sample", self._ham.sample, t)

    def matrix(self, t):
        return self._span("drives.matrix", self._ham.matrix, t)

    def matrix_grid(self, times):
        return self._span("drives.matrix_grid", self._ham.matrix_grid, times)

    def sample_grid(self, times):
        return self._span("drives.sample_grid", self._ham.sample_grid, times)

    def __getattr__(self, name):
        return getattr(self._ham, name)


class _EscapeProbe:
    """Escape predicate that also tracks the largest coordinate modulus
    over the steps it lets through, and how often it says no."""

    def __init__(self, chart, pairs):
        self._escaped = chart.escaped
        self._pairs = pairs
        self.hits = 0
        self.peak = 0.0

    def __call__(self, vec):
        hit = self._escaped(vec)
        if hit:
            self.hits += 1
        else:
            coords = vec[:2 * self._pairs]
            self.peak = max(self.peak,
                            float(np.max(np.hypot(coords[0::2], coords[1::2]))))
        return hit


def traced_member(tracer, member, workdir) -> dict:
    """Run one member through every layer with probes attached.

    Returns the step-accounting facts for the member plus any check
    failures. The run mirrors `chartprop run --compare-oracle`: chart
    integration, reconstruction, residual diagnostics, oracle
    comparison, trajectory table, CSV and JSON emission.
    """
    tracer.member = member.index
    span = tracer.span
    chart, name = member.chart, member.chart_name
    config = member.config
    probe = HamiltonianProbe(config.hamiltonian, tracer)
    chart_rhs = chart.chart_rhs(probe)
    escape = _EscapeProbe(chart, 1 if config.system == 2 else 3)

    def rhs(t, vec):
        return span(f"{name}.rhs", chart_rhs, t, vec)

    def escape_span(vec):
        return span(f"{name}.escaped", escape, vec)

    first_span = len(tracer.spans)
    traj = span("integrate", integrate, rhs, member.initial, config.t_start,
                config.t_end, member.settings, member.grid,
                escape=escape_span)
    unitaries = span(f"{name}.reconstruct", chart.reconstruct_batch,
                     traj.states)
    rhs_calls = sum(1 for s in tracer.spans[first_span:]
                    if s[0] == f"{name}.rhs")
    escape_calls = sum(1 for s in tracer.spans[first_span:]
                       if s[0] == f"{name}.escaped")

    problems = check_member(member, traj, unitaries, span, probe)
    if (rhs_calls - 1) % STAGES_PER_ATTEMPT:
        problems.append(f"member {member.index}: {rhs_calls} RHS calls is "
                        f"not 1 + 6 per attempted step")

    span("reference.schrodinger_residuals", schrodinger_residuals,
         traj.times, unitaries, probe)
    if config.system == 3:
        span("three_level.delta_residuals", chart.delta_residuals,
             traj.times, traj.states, probe)
    span("cli.trajectory_table", cli.trajectory_table, traj, unitaries, probe)
    probed_config = dataclasses.replace(config, hamiltonian=probe)
    output_bytes = 0
    for fmt in ("csv", "json"):
        path = workdir / f"traced.{fmt}"
        with open(path, "w", encoding="utf-8") as fh:
            span(f"cli.emit_{fmt}", cli.emit_trajectory, traj, unitaries,
                 probed_config, member.settings, fmt, fh)
        if fmt == "csv":
            output_bytes = path.stat().st_size
            if _csv_rows(path) != len(traj.times):
                problems.append(f"member {member.index}: CSV row count")

    singular = traj.status == "singularity"
    return {
        "traj": traj,
        "rhs_calls": rhs_calls,
        "escape_calls": escape_calls,
        "escape_hits": escape.hits,
        "singular": singular,
        "peak": escape.peak,
        "samples": len(traj.times),
        "output_bytes": output_bytes,
        "problems": problems,
    }


def _csv_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def purity_check(member, traced_traj) -> tuple:
    """The probes must not change the numbers: an untraced run of the
    same member has to give bit-identical times and states.

    Returns the problems found and the untraced run's wall time.
    """
    started = time.perf_counter()
    traj, _ = propagate(member)
    elapsed = time.perf_counter() - started
    same = (np.array_equal(traj.times, traced_traj.times)
            and np.array_equal(traj.states, traced_traj.states)
            and traj.status == traced_traj.status)
    problems = [] if same else [f"member {member.index}: traced run "
                                f"differs from untraced run"]
    return problems, elapsed


def yardstick(members) -> dict:
    """scipy's RK45 and DOP853 on the same chart RHS, equal tolerances,
    next to chartprop's own integrator on the same members."""
    from scipy.integrate import solve_ivp

    totals = defaultdict(float)
    for member in members:
        config = member.config
        started = time.perf_counter()
        propagate(member)
        totals["integrate_s"] += time.perf_counter() - started
        for method in ("RK45", "DOP853"):
            rhs = member.chart.chart_rhs(config.hamiltonian)
            started = time.perf_counter()
            sol = solve_ivp(rhs, (config.t_start, config.t_end),
                            member.initial, method=method,
                            t_eval=member.grid, rtol=member.settings.rel_tol,
                            atol=member.settings.abs_tol,
                            max_step=member.settings.max_step)
            elapsed = time.perf_counter() - started
            if not sol.success:
                raise RuntimeError(f"solve_ivp {method} failed on member "
                                   f"{member.index}: {sol.message}")
            totals[f"{method.lower()}_rhs_calls"] += sol.nfev
            totals[f"{method.lower()}_s"] += elapsed
    return totals


def summarize(tracer, facts) -> dict:
    """Per-layer metric values from the spans and per-member facts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, _, _, start, end) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1

    def per_call_us(name, time_of):
        return 1e6 * time_of[name] / calls[name] if calls[name] else 0.0

    rhs_calls = sum(f["rhs_calls"] for f in facts)
    escape_calls = sum(f["escape_calls"] for f in facts)
    escape_hits = sum(f["escape_hits"] for f in facts)
    singular = sum(f["singular"] for f in facts)
    attempts = (rhs_calls - len(facts)) // STAGES_PER_ATTEMPT
    halvings = escape_hits - singular
    accepted = escape_calls - escape_hits
    completed = [f for f in facts if not f["singular"]]
    peaks = [f["peak"] for f in completed]
    samples = sum(f["samples"] for f in facts)

    return {
        "drives.parse_config_s": total["drives.parse_config"],
        "drives.sample_us": per_call_us("drives.sample", total),
        "drives.sample_calls": calls["drives.sample"],
        "drives.matrix_grid_s": (total["drives.matrix_grid"]
                                 + total["drives.sample_grid"]),
        "two_level.rhs_us": per_call_us("two_level.rhs", own),
        "two_level.rhs_calls": calls["two_level.rhs"],
        "two_level.reconstruct_s": total["two_level.reconstruct"],
        "three_level.rhs_us": per_call_us("three_level.rhs", own),
        "three_level.rhs_calls": calls["three_level.rhs"],
        "three_level.reconstruct_s": total["three_level.reconstruct"],
        "three_level.delta_residuals_s": total["three_level.delta_residuals"],
        "chart.max_coord_modulus": max(peaks, default=0.0),
        "chart.near_pole_share": (sum(p > NEAR_POLE_MODULUS for p in peaks)
                                  / len(peaks) if peaks else 0.0),
        "chart.singularity_exits": singular,
        "integrate.attempts": attempts,
        "integrate.accepted": accepted,
        "integrate.error_rejections": attempts - escape_calls,
        "integrate.escape_halvings": halvings,
        "integrate.accept_ratio": accepted / attempts,
        "integrate.self_us_per_attempt": 1e6 * own["integrate"] / attempts,
        "integrate.samples_per_step": samples / accepted,
        "integrate.rhs_calls_per_oracle_rhs_call": (
            rhs_calls / calls["drives.matrix"]),
        "reference.oracle_s": total["reference.oracle"],
        "reference.oracle_rhs_calls": calls["drives.matrix"],
        "reference.schrodinger_residuals_s": (
            total["reference.schrodinger_residuals"]),
        "reference.unitarity_errors_s": total["reference.unitarity_errors"],
        "reference.compare_s": total["reference.compare"],
        "cli.trajectory_table_s": total["cli.trajectory_table"],
        "cli.emit_csv_s": total["cli.emit_csv"],
        "cli.emit_json_s": total["cli.emit_json"],
        "cli.output_bytes": sum(f["output_bytes"] for f in facts),
    }
