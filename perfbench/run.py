"""chartprop benchmark: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is used from the
checkout's `src/` directory, and scratch files go to `.bench_work/`.
Workloads are listed in `workloads.py` and in BENCHMARK.json.

With --trace 0 the run measures, for S seconds:

* cli_dense: repeated `python -m chartprop run` processes on one dense
  three-level config. wall_s is the median process wall time, and
  peak_rss_mb the median of the processes' peak RSS (from wait4).
* ensemble_*: repeated passes over a seeded ensemble in this process.
  Each member (`integrate` plus `reconstruct_batch`) is timed on its
  own; wall_s is the sum over members of each member's median time,
  and trajectories_per_s the member count divided by wall_s.

setup_s is the median wall time of fresh interpreters that import
chartprop and build the workload's inputs. Every timed operation is
divided by the host factor measured around it (see hostspeed.py). Every output is checked outside the timed region; an
operation that fails a check counts against `failed`.

With --trace 1 the run makes one traced pass instead (see probes.py)
and writes its spans to `.bench_work/spans-<workload>.npz`.

The last line of standard output is the result object. Before it come
a `machine:` line (versions, CPU, commit) and, untraced, an
`unnormalized:` line with the raw medians and the median host factor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "chartprop" / "__init__.py").is_file():
        print(f"error: no chartprop sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure

    measure.prepare_workdir()
    try:
        if args.trace:
            outcome = measure.trace(args.workload, args.seed)
        else:
            outcome = measure.measure(args.workload, args.seed, args.seconds)
        attempted, failed, problems, values = outcome
    finally:
        measure.remove_scratch()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(measure.machine_info(), sort_keys=True))
    if not args.trace:
        print("unnormalized: " + json.dumps(
            {k: values[k] for k in ("raw_setup_s", "raw_wall_s",
                                    "host_factor")}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
