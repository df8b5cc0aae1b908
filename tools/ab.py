"""Paired benchmark runs of this checkout against a git revision.

    python tools/ab.py --against REV --workload W --pairs N --seconds S

extracts REV with `git archive` into a temporary directory, and copies
this checkout's `src/` into another. Both trees get this checkout's
`perfbench/` and `BENCHMARK.json`, so the two sides run the same
benchmark files on different programs. Each side makes one warm-up run
of each workload first (which also leaves both trees a bytecode
cache), then N pairs of `perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`, one run at a time: pair i (from 1) runs REV
first for odd i and this checkout first for even i.

With --aa both sides are copies of REV (an A/A session, `parent`
against `parent_copy`): on a busy or throttled host one side can win
most pairs with no change to the timed code, so a claimed gain is
first checked against what the same code reads.

The result is one JSON object, in the `end_to_end` layout of the
repository's `BENCH_<n>.json` files: per workload, each end-to-end
metric's values on both sides, their medians, the parent's
interquartile range, the number of pairs the change won, the signed
relative gap of the medians (`change_worse_by`, positive when the
change is worse) and the metric's bound from BENCHMARK.json. The
verdict lists every metric worse than its bound, and every metric
whose gain is resolved: better in at least 9 of 10 pairs, with a
median gap above the parent's interquartile range. It is printed to
standard output. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_UP_SECONDS = 2.0


def _extract(rev, tree):
    # the files of rev, from git archive, in the new directory tree
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def _with_benchmark(tree):
    # this checkout's benchmark files in tree, in place of its own
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")


def _run(tree, workload, seed, seconds):
    """The result object of one untraced perfbench run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {tree} "
                           f"({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values):
    # first and third quartile, linear between order statistics
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, metrics, names, pairs):
    """The `end_to_end` entry of one workload from its runs: runs[side]
    is the list of result objects of that side in pair order, names the
    two sides (parent first), metrics BENCHMARK.json's end_to_end list."""
    base, other = names
    entry = {"pairs": pairs,
             "failed": {s: sum(r["failed"] for r in runs[s]) for s in names},
             "attempted": {s: sum(r["attempted"] for r in runs[s])
                           for s in names},
             "correct": all(r["correct"] for s in names for r in runs[s])}
    for metric in metrics:
        name = metric["name"]
        values = {s: [round(r["metrics"][name]["value"], 5) for r in runs[s]]
                  for s in names}
        medians = {s: statistics.median(values[s]) for s in names}
        q1, q3 = _quartiles(values[base])
        sign = 1.0 if metric["better"] == "lower" else -1.0
        better = sum(sign * (a - b) > 0.0
                     for a, b in zip(values[base], values[other]))
        worse_by = sign * (medians[other] - medians[base]) / medians[base]
        entry[name] = {
            base: values[base], other: values[other],
            f"{base}_median": round(medians[base], 5),
            f"{other}_median": round(medians[other], 5),
            f"{base}_iqr": round(q3 - q1, 5),
            f"{other}_better_pairs": better,
            f"{other}_worse_by": round(worse_by, 4),
            "bound": metric["bound"]}
    return entry


def verdict(end_to_end, metrics, names):
    """Every metric worse than its bound, and every resolved gain."""
    base, other = names
    worse, gains = [], []
    for workload, entry in end_to_end.items():
        for metric in metrics:
            m = entry[metric["name"]]
            label = f"{workload} {metric['name']}"
            if m[f"{other}_worse_by"] > m["bound"]:
                worse.append(label)
            gap = abs(m[f"{other}_median"] - m[f"{base}_median"])
            if (m[f"{other}_worse_by"] < 0
                    and m[f"{other}_better_pairs"] >= 0.9 * entry["pairs"]
                    and gap > m[f"{base}_iqr"]):
                gains.append(label)
    return {"no_end_to_end_metric_worse_beyond_bound": not worse,
            "worse_beyond_bound": worse,
            "resolved_gains": gains}


def session(against, workloads, pairs, seconds, seed, aa=False):
    """Warm-up runs, then `pairs` alternating pairs per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    names = ("parent", "parent_copy" if aa else "change")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        # one name length for both trees: an A/A session whose trees
        # were `parent` and `parent_copy` gave the first 9 of 10 pairs
        trees = {names[0]: Path(tmp) / "a", names[1]: Path(tmp) / "b"}
        _extract(against, trees[names[0]])
        if aa:
            _extract(against, trees[names[1]])
        else:
            trees[names[1]].mkdir()
            shutil.copytree(ROOT / "src", trees[names[1]] / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        for tree in trees.values():
            _with_benchmark(tree)
        for workload in workloads:
            for side in names:
                _run(trees[side], workload, seed, WARM_UP_SECONDS)
        end_to_end = {}
        for workload in workloads:
            started = time.strftime("%H:%M:%S")
            runs = {side: [] for side in names}
            for i in range(1, pairs + 1):
                order = names if i % 2 else names[::-1]
                for side in order:
                    runs[side].append(_run(trees[side], workload, seed,
                                           seconds))
            entry = summarize(runs, metrics, names, pairs)
            entry.update(seed=seed, seconds=seconds,
                         first=f"{names[0]} on odd pair index 1, 3, ..., "
                               f"{names[1]} first on the others",
                         started=started, ended=time.strftime("%H:%M:%S"))
            end_to_end[workload] = entry
    return {"against": against,
            "protocol": f"python3 perfbench/run.py --workload W --seed {seed}"
                        f" --seconds {seconds} --trace 0, {pairs} alternating"
                        f" pairs after one {WARM_UP_SECONDS:g} s warm-up run"
                        f" per side and workload",
            "end_to_end": end_to_end,
            "verdict": verdict(end_to_end, metrics, names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating perfbench runs of this checkout and a git "
                    "revision, summarized per BENCHMARK.json bound.")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare with")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run (repeat for several)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--aa", action="store_true",
                        help="run REV against a copy of itself")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    result = session(args.against, args.workload, args.pairs, args.seconds,
                     args.seed, args.aa)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
