"""Measurement for run.py: set-up probes, the untraced workloads and
the traced pass. Importing this module imports chartprop, so run.py
imports it only after checking that the checkout has the sources."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np
from chartprop import integrate_schrodinger, unitarity_errors

import hostspeed
import probes
import runner
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 7
CLI_REFERENCE_UNITS = 300   # a compute-heavy reference child, ~0.4 s
IMPORT_REPEATS = 3
YARDSTICK_MEMBERS = 4
ROW_STRIDE = 400   # CSV rows spot-checked against the oracle


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, tag):
    """Run a child to completion; (wall seconds, exit code, peak RSS in
    MB, stdout text, stderr text). wait4 gives the child's own rusage."""
    out_path = WORKDIR / f"{tag}.out"
    err_path = WORKDIR / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def child_bracket(units) -> hostspeed.Bracket:
    """Bracket child processes with reference children that run `units`
    calibration units after start-up (see hostspeed.py)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "hostspeed.py"),
            str(units)]
    full_speed = hostspeed.CHILD_REFERENCE_S + units * hostspeed.REFERENCE_S

    def measure():
        wall, code, _, _, err = spawn(argv, "reference")
        if code != 0:
            raise RuntimeError(f"reference child failed ({code}): "
                               f"{err.strip()}")
        return wall / full_speed

    return hostspeed.Bracket(measure)


def measure_setup(workload, seed, repeats) -> list:
    """Fresh interpreters that import chartprop and build the inputs."""
    rows = []
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            workload, str(seed), str(WORKDIR / "dense.yaml")]
    bracket = child_bracket(0)
    for _ in range(repeats):
        wall, code, _, out, err = spawn(argv, "setup")
        host = bracket.close()
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {err.strip()}")
        rows.append({"wall_s": wall, "host_factor": host,
                     **json.loads(out.splitlines()[-1])})
    return rows


def machine_info() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "pyyaml": version("pyyaml"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform(), "commit": commit}


# --- untraced measurement -------------------------------------------------

def _report_fields(stderr_text) -> dict:
    return dict(line.split(" = ", 1) for line in stderr_text.splitlines()
                if " = " in line)


def check_cli_csv(path, member) -> list:
    """Check one CSV written by `chartprop run` against the direct matrix
    oracle: row count, time grid, and, on every ROW_STRIDE-th row,
    unitarity of the emitted U and its distance to the oracle."""
    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
        lines = fh.read().splitlines()
    if len(lines) != member.samples:
        return [f"CSV has {len(lines)} rows, expected {member.samples}"]
    picked = sorted(set(range(0, len(lines), ROW_STRIDE)) | {len(lines) - 1})
    table = np.array([[float(v) for v in lines[i].split(",")]
                      for i in picked])
    times = table[:, columns.index("t")]
    if not np.array_equal(times, member.grid[picked]):
        return ["CSV time column is not the requested grid"]
    dim = member.config.system
    u = np.empty((len(picked), dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            u[:, i, j] = (table[:, columns.index(f"u{i + 1}{j + 1}_re")]
                          + 1j * table[:, columns.index(f"u{i + 1}{j + 1}_im")])
    problems = []
    worst = float(np.max(unitarity_errors(u)))
    if not worst <= runner.UNITARITY_LIMIT:
        problems.append(f"CSV unitarity error {worst:.3g}")
    oracle = integrate_schrodinger(member.config.hamiltonian, times[0],
                                   times[-1], member.settings, times)
    error = float(np.max(np.linalg.norm(u - oracle.unitaries, axis=(1, 2))))
    if not error <= runner.ORACLE_LIMIT:
        problems.append(f"CSV disagrees with the oracle by {error:.3g}")
    return problems


def measure_cli_dense(seconds):
    config_path = WORKDIR / "dense.yaml"
    output = WORKDIR / "dense.csv"
    with open(config_path, encoding="utf-8") as fh:
        member = runner.build_member(0, fh, workloads.DENSE_SAMPLES)
    argv = [sys.executable, "-m", "chartprop", "run", str(config_path),
            "--samples", str(workloads.DENSE_SAMPLES), "--compare-oracle",
            "--output", str(output)]
    walls, hosts, rss, problems = [], [], [], []
    failed = 0
    digest = None
    bracket = child_bracket(CLI_REFERENCE_UNITS)
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        wall, code, peak, _, err = spawn(argv, "cli")
        hosts.append(bracket.close())
        walls.append(wall)
        rss.append(peak)
        found = []
        report = _report_fields(err)
        if code != 0 or report.get("status") != "completed":
            found.append(f"exit code {code}: {err.strip()[-300:]}")
        elif not (float(report["max_unitarity_error"])
                  <= runner.UNITARITY_LIMIT
                  and float(report["max_frobenius_error"])
                  <= runner.ORACLE_LIMIT):
            found.append(f"report out of bounds: {report}")
        else:
            this = hashlib.sha256(output.read_bytes()).hexdigest()
            if digest is None:
                found += check_cli_csv(output, member)
                digest = this
            elif this != digest:
                found.append("CSV differs from the first run's")
        failed += bool(found)
        problems += [f"cli run {len(walls)}: {p}" for p in found]
    wall_s = statistics.median(w / h for w, h in zip(walls, hosts))
    values = {"wall_s": wall_s, "trajectories_per_s": 1.0 / wall_s,
              "peak_rss_mb": statistics.median(rss),
              "raw_wall_s": statistics.median(walls),
              "host_factor": statistics.median(hosts)}
    return len(walls), failed, problems, values


def measure_ensemble(workload, seed, seconds):
    members = runner.build_members(workloads.ensemble_specs(workload, seed))
    # Each member's first run is its reference and is checked in full,
    # outside the timed region; later runs must reproduce it bit for bit.
    reference = [None] * len(members)
    times = [[] for _ in members]
    hosts = [[] for _ in members]
    problems = []
    failed = runs = 0
    bracket = hostspeed.Bracket()
    started = time.perf_counter()
    while runs < len(members) or time.perf_counter() - started < seconds:
        member = members[runs % len(members)]
        begin = time.perf_counter()
        traj, unitaries = runner.propagate(member)
        times[member.index].append(time.perf_counter() - begin)
        hosts[member.index].append(bracket.close())
        runs += 1
        ref = reference[member.index]
        if ref is None:
            found = runner.check_member(member, traj, unitaries)
            reference[member.index] = traj
        elif not (traj.status == ref.status
                  and np.array_equal(traj.times, ref.times)
                  and np.array_equal(traj.states, ref.states)):
            found = [f"member {member.index}: run differs from its first run"]
        else:
            found = []
        failed += bool(found)
        problems += found
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(statistics.median(t / h for t, h in zip(ts, hs))
                 for ts, hs in zip(times, hosts))
    values = {"wall_s": wall_s, "trajectories_per_s": len(members) / wall_s,
              "peak_rss_mb": peak_rss,
              "raw_wall_s": sum(statistics.median(ts) for ts in times),
              "host_factor": statistics.median(h for hs in hosts for h in hs)}
    return runs, failed, problems, values


def measure(workload, seed, seconds):
    setups = measure_setup(workload, seed, SETUP_REPEATS)
    if workload == "cli_dense":
        outcome = measure_cli_dense(seconds)
    else:
        outcome = measure_ensemble(workload, seed, seconds)
    values = outcome[-1]
    values["setup_s"] = statistics.median(s["wall_s"] / s["host_factor"]
                                          for s in setups)
    values["raw_setup_s"] = statistics.median(s["wall_s"] for s in setups)
    return outcome


# --- traced run -----------------------------------------------------------

def trace(workload, seed):
    bracket = hostspeed.Bracket(lambda: hostspeed.factor(50))
    tracer = probes.Tracer()
    if workload == "cli_dense":
        with open(WORKDIR / "dense.yaml", encoding="utf-8") as fh:
            members = [runner.build_member(0, fh, workloads.DENSE_SAMPLES,
                                           span=tracer.span)]
    else:
        members = runner.build_members(
            workloads.ensemble_specs(workload, seed), span=tracer.span)
    facts = [probes.traced_member(tracer, m, WORKDIR) for m in members]
    host_factor = bracket.close()
    problems = [p for f in facts for p in f["problems"]]
    failed = sum(bool(f["problems"]) for f in facts)
    values = probes.summarize(tracer, facts)
    values["host.speed_factor"] = host_factor

    impure, untraced_s = probes.purity_check(members[0], facts[0]["traj"])
    problems += impure
    failed += bool(impure)
    first = [s for s in tracer.spans if s[1] == 0 and s[0] in
             ("integrate", f"{members[0].chart_name}.reconstruct")]
    values["trace.overhead_ratio"] = (sum(s[4] - s[3] for s in first)
                                      / untraced_s)

    setups = measure_setup("cli_dense", seed, IMPORT_REPEATS)
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)

    chosen = [m for m in members
              if m.expect == "completed"][:YARDSTICK_MEMBERS]
    totals = probes.yardstick(chosen)
    values.update({
        "yardstick.rk45_rhs_calls": totals["rk45_rhs_calls"],
        "yardstick.dop853_rhs_calls": totals["dop853_rhs_calls"],
        "yardstick.dop853_s": totals["dop853_s"],
        "yardstick.integrate_rhs_calls": sum(facts[m.index]["rhs_calls"]
                                             for m in chosen),
        "yardstick.integrate_s": totals["integrate_s"],
    })
    tracer.write(WORKDIR / f"spans-{workload}.npz")
    return len(members) + 1, failed, problems, values


def prepare_workdir():
    """Create the scratch directory and write the cli_dense config."""
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / "dense.yaml").write_text(workloads.DENSE_CONFIG_TEXT,
                                        encoding="utf-8")


def remove_scratch():
    """Delete the run's large and temporary files; spans stay."""
    for name in ("dense.csv", "traced.csv", "traced.json", "cli.out",
                 "cli.err", "setup.out", "setup.err", "reference.out",
                 "reference.err"):
        (WORKDIR / name).unlink(missing_ok=True)
