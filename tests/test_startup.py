"""Start-up: a run loads only the modules its inputs need.

Each test runs a fresh interpreter, since this one has long since
imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import chartprop

DOC = ('{"system": 2, "time": {"start": 0.0, "end": 1.0}, "hamiltonian": '
       '{"h": {"shape": "constant", "value": 0.3}, '
       '"v": {"shape": "cosine", "amplitude": 0.8, '
       '"angular_frequency": 2.0}}}')


def fresh_python(code) -> list:
    """The words code prints in a new interpreter that imports
    chartprop from the tree under test."""
    src = str(Path(chartprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_mapping_config_does_not_load_yaml():
    assert fresh_python(f"""
import sys
import chartprop
config = chartprop.parse_config({DOC})
print("yaml" in sys.modules)
chartprop.parse_config(chartprop.serialize_config(config))
print("yaml" in sys.modules)
""") == ["False", "True"]


def test_a_csv_table_does_not_load_json():
    assert fresh_python(f"""
import io
import sys
import numpy as np
import chartprop.cli
from chartprop import IntegratorSettings, parse_config, propagate
config = parse_config({DOC})
settings = IntegratorSettings(max_step=config.max_step)
grid = np.linspace(config.t_start, config.t_end, 5)
trajectory, unitaries, _ = propagate(config.hamiltonian, config.t_start,
                                     config.t_end, settings, grid)
for fmt in ("csv", "json"):
    chartprop.cli.emit_trajectory(trajectory, unitaries, config, settings,
                                  fmt, io.StringIO())
    print("json" in sys.modules)
""") == ["False", "True"]
