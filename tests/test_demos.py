"""Each narrative demo runs to completion as a standalone script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chartprop

DEMO_DIR = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("demo", ["two_level_resonance", "three_level_pulsed",
                                  "config_and_cli", "convergence_study"])
def test_demo_runs(demo, tmp_path):
    # the demos import the same chartprop these tests import; TMPDIR
    # catches the directory config_and_cli.py leaves behind
    src = str(Path(chartprop.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMO_DIR / f"{demo}.py")],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
