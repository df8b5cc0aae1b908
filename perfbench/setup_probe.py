"""Set-up probe, run in a fresh interpreter by run.py.

Imports chartprop (and, for cli_dense, the CLI module that
`python -m chartprop` loads) and builds the workload's inputs, then
prints the import time as one JSON line.

    python3 perfbench/setup_probe.py WORKLOAD SEED CONFIG_PATH
"""

import json
import sys
import time

started = time.perf_counter()
import chartprop  # noqa: E402
if sys.argv[1] == "cli_dense":
    import chartprop.cli  # noqa: E402,F401
imported = time.perf_counter()

import runner  # noqa: E402
import workloads  # noqa: E402

if sys.argv[1] == "cli_dense":
    with open(sys.argv[3], encoding="utf-8") as fh:
        runner.build_member(0, fh, workloads.DENSE_SAMPLES)
else:
    runner.build_members(workloads.ensemble_specs(sys.argv[1],
                                                  int(sys.argv[2])))
print(json.dumps({"import_s": imported - started}))
