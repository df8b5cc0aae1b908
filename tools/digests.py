"""Bit digests of chartprop's outputs on this checkout and on a git
revision, compared name by name.

    python tools/digests.py --against REV

extracts REV with `git archive` into a temporary directory and computes
the same fixed set of SHA-256 digests on both trees, each in its own
process with its own `src` (and `perfbench`) first on the path:

* `chartprop run --compare-oracle`, as CSV and as JSON, on the
  `cli_dense` config (`perfbench/workloads.DENSE_CONFIG_TEXT`) at 2001
  and 20001 samples and on the mixed and pole configs of CI's
  console-script step (the pole run exits 2): one digest each of the
  standard output bytes, the exit code, and the report lines without
  the six wall-clock lines;
* every member of `ensemble_weak` and `ensemble_strong` at seeds 1, 2
  and 211, built and propagated through `perfbench/runner.py`: one
  digest per workload and seed of the times, states, unitaries, status,
  singularity time and step counts of its members in order.

It prints each name as equal or differing and exits 1 if any digest
differs or is missing on one side. A change that claims to keep every
bit runs it against its parent; a run takes under a minute per tree on
a 2-core Xeon. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The report's wall-clock lines (see `chartprop.cli`), left out of the
# report digest.
CLOCK_KEYS = ("parse_s", "chart_s", "table_s", "emit_s", "oracle_wait_s",
              "wall_time_s")

# The configs of CI's console-script step.
MIXED = """\
system: 3
time: {start: 0.0, end: 4.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h1: {shape: cosine, amplitude: [0.3, 1.0e-16], angular_frequency: 1.1}
  h2: {shape: piecewise, knots: [[0.0, 0.1], [1.5, -0.2], [4.0, 0.05]]}
  v1:
    shape: sum
    terms:
      - {shape: constant, value: [0.2, 0.1]}
      - {shape: gaussian, amplitude: 0.4, center: 2.0, width: 0.5}
  v2: {shape: constant, value: 0.1}
  v3: {shape: piecewise, knots: [[0.0, [0.0, 0.3]], [2.0, [0.2, -0.1]], [4.0, 0.1]]}
"""
POLE = """\
system: 2
time: {start: 0.0, end: 2.0}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: {shape: constant, value: 1.0}
"""

SEEDS = (1, 2, 211)


def _sha(value) -> str:
    # bytes as they are, anything else by its repr
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _run_digests(tree, workdir):
    # the `chartprop run` digests of the tree, run from workdir
    from workloads import DENSE_CONFIG_TEXT

    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, text, samples in (("cli_dense", DENSE_CONFIG_TEXT, 2001),
                                ("cli_dense", DENSE_CONFIG_TEXT, 20001),
                                ("mixed", MIXED, 400), ("pole", POLE, 41)):
        (workdir / f"{name}.yaml").write_text(text, encoding="utf-8")
        for fmt in ("csv", "json"):
            done = subprocess.run(
                [sys.executable, "-m", "chartprop", "run", f"{name}.yaml",
                 "--samples", str(samples), "--compare-oracle",
                 "--format", fmt],
                cwd=workdir, env=env, capture_output=True, check=False)
            report = [line for line in done.stderr.decode().splitlines()
                      if line.split(" = ")[0] not in CLOCK_KEYS]
            label = f"run {name} --samples {samples} --format {fmt}"
            yield f"{label}: stdout", _sha(done.stdout)
            yield f"{label}: exit code", _sha(done.returncode)
            yield f"{label}: report", _sha(report)


def _ensemble_digests():
    # the ensemble digests of the tree whose perfbench is on the path
    import numpy as np
    import runner
    import workloads

    for workload in ("ensemble_weak", "ensemble_strong"):
        for seed in SEEDS:
            digest = hashlib.sha256()
            specs = workloads.ensemble_specs(workload, seed)
            for member in runner.build_members(specs):
                traj, unitaries = runner.propagate(member)
                for array in (traj.times, traj.states, unitaries):
                    digest.update(repr((array.shape, array.dtype.str))
                                  .encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
                digest.update(repr((traj.status, traj.singularity_time,
                                    traj.stats)).encode())
            yield f"{workload} seed={seed}", digest.hexdigest()


def collect(tree, workdir) -> dict:
    """Every digest of the tree at `tree`, by name."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    return {**dict(_run_digests(tree, workdir)),
            **dict(_ensemble_digests())}


def _collect_in_process(tree, workdir) -> dict:
    workdir.mkdir()
    done = subprocess.run(
        [sys.executable, __file__, "--collect", str(tree), str(workdir)],
        stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout)


def compare(against) -> int:
    """Digests of this checkout and of `against`, printed by name; 0 if
    all are equal, 1 otherwise."""
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        tmp = Path(tmp)
        base = tmp / "against"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", against],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive,
                       check=True)
        here = _collect_in_process(ROOT, tmp / "work-here")
        there = _collect_in_process(base, tmp / "work-against")
    differing = 0
    for name in [*here, *(name for name in there if name not in here)]:
        same = name in here and here.get(name) == there.get(name)
        differing += not same
        print(f"{'equal' if same else 'DIFFERS'}  {name}")
    print(f"{len(set(here) | set(there)) - differing} equal, {differing} "
          f"differing, against {against}")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare output digests of this checkout and a git "
                    "revision; exit 1 on any difference.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV",
                       help="git revision to compare with")
    group.add_argument("--collect", nargs=2, metavar=("TREE", "WORKDIR"),
                       help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        tree, workdir = (Path(arg) for arg in args.collect)
        print(json.dumps(collect(tree, workdir)))
        return 0
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main())
