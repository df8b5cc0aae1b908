"""Round trip through the config file format and the command line.

Builds a run configuration in code, serializes it to YAML, runs the
command-line tool on it twice (CSV and JSON), and reads both outputs
back to show they carry identical numbers.
"""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from chartprop import (CosineDrive, GaussianDrive, Hamiltonian3, RunConfig,
                       ConstantDrive, parse_config, serialize_config)

config = RunConfig(
    hamiltonian=Hamiltonian3(
        h1=CosineDrive(0.2, 1.5),
        h2=ConstantDrive(-0.1),
        v1=GaussianDrive(0.7, center=2.5, width=0.8),
        v2=ConstantDrive(0.15j),
        v3=CosineDrive(0.3 + 0.1j, 0.8),
    ),
    t_start=0.0,
    t_end=5.0,
    max_step=0.05,
)

text = serialize_config(config)
print("serialized config:")
print(text)

# the text form parses back to the same run
assert parse_config(text).hamiltonian == config.hamiltonian

workdir = Path(tempfile.mkdtemp(prefix="chartprop_demo_"))
cfg_path = workdir / "run.yaml"
cfg_path.write_text(text)

def run_cli(*extra):
    cmd = [sys.executable, "-m", "chartprop", "run", str(cfg_path),
           "--samples", "50", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ {' '.join(cmd[-(len(cmd) - 2):])}")
    for line in proc.stderr.strip().splitlines():
        print(f"  {line}")
    assert proc.returncode == 0
    return proc

run_cli("--output", str(workdir / "run.csv"), "--compare-oracle")
print()
run_cli("--format", "json", "--output", str(workdir / "run.json"))

with open(workdir / "run.csv", newline="") as fh:
    rows = list(csv.reader(fh))
header, table = rows[0], rows[1:]

doc = json.loads((workdir / "run.json").read_text())

print()
print(f"CSV:  {len(table)} rows x {len(header)} columns")
print(f"JSON: {len(doc['samples'])} samples, "
      f"system = {doc['header']['system']}")

mismatches = sum(
    1
    for row_text, row_obj in zip(table, doc["samples"])
    for name, value in zip(header, row_text)
    if row_obj[name] != float(value)
)
print(f"numeric mismatches between the two formats: {mismatches}")
print(f"outputs written under {workdir}")
