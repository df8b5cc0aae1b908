"""README's examples run, and its shape table matches the parser."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chartprop
from chartprop import ConfigError, drive_from_spec
from chartprop.cli import main
from chartprop.drives import _SHAPES, _NumberFields, _number_fields

README = (Path(__file__).parents[1] / "README.md").read_text()


def _section(heading):
    # the text from a "## heading" line to the next "## " heading
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_library_example_runs():
    [code] = _blocks(_section("Library use"), "python")
    src = str(Path(chartprop.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_config_example_runs(tmp_path, capsys):
    [config] = _blocks(README, "yaml")
    path = tmp_path / "config.yaml"
    path.write_text(config)
    code = main(["run", str(path), "--samples", "5", "--compare-oracle",
                 "--output", str(tmp_path / "out.csv")])
    assert code == 0
    assert "status = completed" in capsys.readouterr().err.splitlines()


def _table():
    # {shape: (keys, keys marked optional)} from the shape table's rows
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", README, re.M)
    return {shape: (re.findall(r"`(\w+)`", keys),
                    re.findall(r"`(\w+)` \(optional", keys))
            for shape, keys in rows}


def _accepted_keys(shape):
    # the keys drive_from_spec lists as allowed, besides `shape`
    with pytest.raises(ConfigError, match="unexpected key") as error:
        drive_from_spec({"shape": shape, "unexpected": 0.0})
    allowed = ast.literal_eval(str(error.value).split("allowed ", 1)[1])
    return [key for key in allowed if key != "shape"]


def test_shape_table_lists_the_keys_the_parser_accepts():
    table = _table()
    assert sorted(table) == sorted(_SHAPES)
    for shape, (keys, optional) in table.items():
        assert keys == _accepted_keys(shape), shape
        # only number fields with a default may be left out
        cls = _SHAPES[shape]
        want = (list(_number_fields(cls)[2])
                if issubclass(cls, _NumberFields) else [])
        assert optional == want, shape
