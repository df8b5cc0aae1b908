"""Tests for the command-line entry point and trajectory file formats."""

import csv
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import chartprop
from chartprop import NonFiniteDerivativeError, cli, three_level
from chartprop.cli import build_parser, main

CONFIG2 = """
system: 2
time: {start: 0.0, end: 1.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h: {shape: constant, value: 0.3}
  v: {shape: cosine, amplitude: 0.8, angular_frequency: 2.0}
"""

CONFIG3 = """
system: 3
time: {start: 0.0, end: 2.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h1: {shape: constant, value: 0.2}
  h2: {shape: constant, value: -0.1}
  v1: {shape: gaussian, amplitude: [0.4, 0.1], center: 1.0, width: 0.4}
  v2: {shape: constant, value: 0.3}
  v3: {shape: constant, value: [0.0, 0.2]}
"""

# this one runs onto the chart singularity of a pure off-diagonal drive
CONFIG_BLOWUP = """
system: 2
time: {start: 0.0, end: 2.0}
integrator: {max_step: 0.05}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: {shape: constant, value: 1.0}
"""

COLUMNS2 = ["t", "re_z", "im_z", "phi",
            "u11_re", "u11_im", "u12_re", "u12_im",
            "u21_re", "u21_im", "u22_re", "u22_im",
            "residual_schrodinger"]

COLUMNS3 = (["t", "re_x", "im_x", "re_y", "im_y", "re_z", "im_z",
             "phi1", "phi2", "phi3"]
            + [f"u{i}{j}_{p}" for i in (1, 2, 3) for j in (1, 2, 3)
               for p in ("re", "im")]
            + ["residual_schrodinger", "residual_delta1", "residual_delta2"])


@pytest.fixture
def config2_path(tmp_path):
    p = tmp_path / "two.yaml"
    p.write_text(CONFIG2)
    return str(p)


@pytest.fixture
def config3_path(tmp_path):
    p = tmp_path / "three.yaml"
    p.write_text(CONFIG3)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def cli_run(text, samples):
    """propagate's trajectory and unitaries on a config, as `chartprop
    run` makes them, and the config's Hamiltonian."""
    cfg = chartprop.parse_config(text)
    settings = chartprop.IntegratorSettings(
        max_step=cfg.max_step, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    traj, us, _ = chartprop.propagate(
        cfg.hamiltonian, cfg.t_start, cfg.t_end, settings,
        np.linspace(cfg.t_start, cfg.t_end, samples))
    return traj, us, cfg.hamiltonian


def test_csv_two_level_schema(config2_path, tmp_path):
    out = tmp_path / "out.csv"
    code = main(["run", config2_path, "--samples", "40",
                 "--output", str(out)])
    assert code == 0
    header, table = read_csv(out)
    assert header == COLUMNS2
    assert table.shape == (40, 13)
    assert np.allclose(table[:, 0], np.linspace(0.0, 1.0, 40), rtol=0,
                       atol=0)
    # t = 0 row is the identity with chart coordinates at the origin
    assert np.array_equal(table[0, 1:4], [0.0, 0.0, 0.0])
    assert table[0, 4] == 1.0 and table[0, 10] == 1.0
    assert np.max(table[:, 12]) < 1e-2  # coarse-grid differencing noise


def test_csv_three_level_schema(config3_path, tmp_path):
    out = tmp_path / "out.csv"
    code = main(["run", config3_path, "--samples", "60",
                 "--output", str(out)])
    assert code == 0
    header, table = read_csv(out)
    assert header == COLUMNS3
    assert table.shape == (60, 31)
    # phi3 column closes the phases to zero sum
    phi_sum = table[:, 7] + table[:, 8] + table[:, 9]
    assert np.max(np.abs(phi_sum)) < 1e-14
    # unitary columns at t = 0 give the identity
    u0 = table[0, 10:28].reshape(3, 3, 2)
    assert np.array_equal(u0[..., 0], np.eye(3))
    assert np.array_equal(u0[..., 1], np.zeros((3, 3)))


def test_delta_residuals_fall_with_the_grid_spacing_squared():
    # The log-delta identities against finite differences of d1, d2
    # along the chart run `chartprop run` makes: small on a fine grid and
    # falling about 100x for 10x the samples (81x and 99x measured), as
    # second-order differences do. A sign error in the identities reads
    # about 1 at both densities.
    maxima = {}
    for samples in (201, 2001):
        traj, _, ham = cli_run(CONFIG3, samples)
        assert traj.status == "completed"
        maxima[samples] = np.array([np.max(residual) for residual in
                                    three_level.delta_residuals(
                                        traj.times, traj.states, ham)])
    assert np.all(maxima[2001] <= 1e-5)
    assert np.all(maxima[201] >= 25 * maxima[2001])


def test_csv_values_round_trip_through_text(config2_path, tmp_path):
    # %.17g formatting must preserve doubles exactly
    out = tmp_path / "out.csv"
    main(["run", config2_path, "--samples", "10", "--output", str(out)])
    header, table = read_csv(out)
    traj, us, _ = cli_run(CONFIG2, 10)
    assert np.array_equal(table[:, 1], traj.states[:, 0])
    assert np.array_equal(table[:, 3], traj.states[:, 2])
    assert np.array_equal(table[:, 4], us[:, 0, 0].real)
    assert np.array_equal(table[:, 9], us[:, 1, 0].imag)


def test_json_schema_and_header(config3_path, tmp_path):
    out = tmp_path / "out.json"
    code = main(["run", config3_path, "--samples", "12", "--format", "json",
                 "--output", str(out), "--rel-tol", "1e-8"])
    assert code == 0
    doc = json.loads(out.read_text())
    header = doc["header"]
    assert header["system"] == 3
    assert header["status"] == "completed"
    assert header["settings"]["rel_tol"] == 1e-8
    assert header["settings"]["abs_tol"] == 1e-12
    assert header["settings"]["max_step"] == 0.05
    assert header["config"]["system"] == 3
    assert header["config"]["hamiltonian"]["v1"]["shape"] == "gaussian"
    assert len(doc["samples"]) == 12
    row = doc["samples"][0]
    for name in COLUMNS3:
        assert name in row
    assert row["t"] == 0.0
    assert row["u11_re"] == 1.0


def test_json_and_csv_agree(config2_path, tmp_path):
    csv_path = tmp_path / "a.csv"
    json_path = tmp_path / "a.json"
    main(["run", config2_path, "--samples", "20", "--output", str(csv_path)])
    main(["run", config2_path, "--samples", "20", "--format", "json",
          "--output", str(json_path)])
    header, table = read_csv(csv_path)
    doc = json.loads(json_path.read_text())
    for i, row in enumerate(doc["samples"]):
        for j, name in enumerate(header):
            assert row[name] == table[i, j]


def test_stdout_default(config2_path, capsys):
    code = main(["run", config2_path, "--samples", "5"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].split(",") == COLUMNS2
    assert len(lines) == 6
    assert "status = completed" in captured.err


def test_report_goes_to_stderr(config2_path, capsys, tmp_path):
    main(["run", config2_path, "--samples", "5",
          "--output", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert "status = completed" in err
    assert "max_unitarity_error = " in err
    assert "max_schrodinger_residual = " in err
    assert "wall_time_s = " in err


def test_compare_oracle_report(config2_path, capsys, tmp_path):
    main(["run", config2_path, "--samples", "5", "--compare-oracle",
          "--output", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert "max_frobenius_error = " in err
    assert "oracle_unitarity_drift = " in err
    fields = dict(line.split(" = ") for line in err.strip().splitlines()
                  if " = " in line)
    assert float(fields["max_frobenius_error"]) < 1e-6


def report_fields(err):
    return dict(line.split(" = ") for line in err.strip().splitlines()
                if " = " in line)


STAT_KEYS = ("attempts", "accepted", "error_rejections", "nonfinite_retries",
             "escape_halvings", "rhs_calls", "smallest_step", "largest_step")


def test_report_lists_run_counters(config3_path, capsys, tmp_path):
    out = tmp_path / "x.json"
    assert main(["run", config3_path, "--samples", "7", "--format", "json",
                 "--output", str(out)]) == 0
    fields = report_fields(capsys.readouterr().err)
    assert not any(key.startswith("oracle_") for key in fields)
    # the counters of the chart run the CLI makes, with its error weights
    stats = cli_run(CONFIG3, 7)[0].stats
    for key in STAT_KEYS:
        value = getattr(stats, key)
        assert fields[f"chart_{key}"] == (f"{value:.17g}"
                                          if isinstance(value, float)
                                          else str(value))
    assert int(fields["chart_rhs_calls"]) == 1 + 6 * stats.attempts
    # the wall-clock lines come last, in order, and they and the
    # counters stay out of the JSON header
    assert list(fields)[-5:] == ["parse_s", "chart_s", "table_s", "emit_s",
                                 "wall_time_s"]
    assert all(float(fields[key]) >= 0.0 for key in list(fields)[-5:])
    header = json.loads(out.read_text())["header"]
    assert set(header) == {"system", "settings", "config", "status",
                           "singularity_time"}


def report_keys(lines):
    return [line.partition(" = ")[0] for line in lines]


def test_narrow_gaussian_run_writes_only_report_lines(tmp_path, capsys):
    # The Gaussian's ((t - center) / width)^2 overflows off its center,
    # in the chart run and in the residual columns alike; that gives its
    # limit 0 there, and no warning joins the report.
    p = tmp_path / "narrow.yaml"
    p.write_text(CONFIG_BLOWUP.replace("end: 2.0", "end: 1.0").replace(
        "v: {shape: constant, value: 1.0}",
        "v: {shape: gaussian, amplitude: 0.5, center: 0.5, width: 1.0e-200}"))
    assert main(["run", str(p), "--compare-oracle", "--output",
                 str(tmp_path / "x.csv")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert "max_frobenius_error" in report_keys(lines)
    assert all(re.match(r"^[a-z0-9_]+ = ", line) for line in lines), lines


def test_report_keys_in_order_with_the_oracle(config3_path, capsys,
                                              tmp_path):
    # a completed three-level run with the oracle prints every key but
    # singularity_time
    assert main(["run", config3_path, "--samples", "7", "--compare-oracle",
                 "--output", str(tmp_path / "x.csv")]) == 0
    assert report_keys(capsys.readouterr().err.splitlines()) == [
        "status", "max_unitarity_error", "max_schrodinger_residual",
        "max_delta1_residual", "max_delta2_residual", "max_frobenius_error",
        "time_of_max_error", "oracle_unitarity_drift",
        "chart_attempts", "chart_accepted", "chart_error_rejections",
        "chart_nonfinite_retries", "chart_escape_halvings",
        "chart_rhs_calls", "chart_smallest_step", "chart_largest_step",
        "oracle_attempts", "oracle_accepted", "oracle_error_rejections",
        "oracle_nonfinite_retries", "oracle_escape_halvings",
        "oracle_rhs_calls", "oracle_smallest_step", "oracle_largest_step",
        "parse_s", "chart_s", "table_s", "emit_s", "oracle_wait_s",
        "wall_time_s"]


@pytest.mark.parametrize("flags", [[], ["--compare-oracle"]],
                         ids=["chart", "with_oracle"])
def test_wall_clock_lines_fit_in_the_wall_time(config3_path, capsys,
                                               tmp_path, flags):
    # The laps time disjoint stretches of the run, so none is negative
    # and together they take at most wall_time_s.
    assert main(["run", config3_path, "--samples", "7", *flags,
                 "--output", str(tmp_path / "x.csv")]) == 0
    fields = report_fields(capsys.readouterr().err)
    laps = ["parse_s", "chart_s", "table_s", "emit_s"]
    laps += ["oracle_wait_s"] if flags else []
    values = [float(fields[key]) for key in laps]
    wall = float(fields["wall_time_s"])
    assert min(values) >= 0.0 and wall >= 0.0
    assert sum(values) <= wall


def test_report_keys_in_order_after_a_singularity(tmp_path, capsys):
    p = tmp_path / "blowup.yaml"
    p.write_text(CONFIG_BLOWUP)
    assert main(["run", str(p), "--samples", "50",
                 "--output", str(tmp_path / "x.csv")]) == 2
    notice, *report = capsys.readouterr().err.splitlines()
    assert notice.endswith("; trajectory truncated")
    assert report_keys(report) == [
        "status", "singularity_time", "max_unitarity_error",
        "max_schrodinger_residual",
        "chart_attempts", "chart_accepted", "chart_error_rejections",
        "chart_nonfinite_retries", "chart_escape_halvings",
        "chart_rhs_calls", "chart_smallest_step", "chart_largest_step",
        "parse_s", "chart_s", "table_s", "emit_s", "wall_time_s"]


def test_compare_oracle_reports_oracle_counters(config2_path, capsys,
                                                tmp_path):
    main(["run", config2_path, "--samples", "5", "--compare-oracle",
          "--output", str(tmp_path / "x.csv")])
    fields = report_fields(capsys.readouterr().err)
    for prefix in ("chart", "oracle"):
        for key in STAT_KEYS:
            assert f"{prefix}_{key}" in fields
        attempts = int(fields[f"{prefix}_attempts"])
        assert int(fields[f"{prefix}_rhs_calls"]) == 1 + 6 * attempts


@pytest.mark.parametrize("flags", [["--rel-tol", "inf"], ["--abs-tol", "inf"],
                                   ["--rel-tol", "nan"], ["--abs-tol", "-1"]])
def test_non_finite_tolerance_is_exit_one(config2_path, capsys, tmp_path,
                                          flags):
    out = tmp_path / "x.csv"
    assert main(["run", config2_path, "--output", str(out), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_singularity_exit_code(tmp_path, capsys):
    p = tmp_path / "blowup.yaml"
    p.write_text(CONFIG_BLOWUP)
    out = tmp_path / "out.csv"
    code = main(["run", str(p), "--samples", "50", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "singularity" in err
    assert "status = singularity" in err
    # truncated trajectory still emitted, all samples before the pole
    header, table = read_csv(out)
    assert header == COLUMNS2
    assert table.shape[1] == 13
    assert table[-1, 0] < np.pi / 2
    fields = dict(line.split(" = ") for line in err.strip().splitlines()
                  if " = " in line)
    assert abs(float(fields["singularity_time"]) - np.pi / 2) < 1e-3


def test_step_limit_is_exit_one(config2_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "IntegratorSettings", functools.partial(
        cli.IntegratorSettings, max_steps=5))
    out = tmp_path / "out.csv"
    code = main(["run", config2_path, "--samples", "40", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "status = step_limit" in err
    # truncated trajectory still emitted, up to the last committed step
    header, table = read_csv(out)
    assert header == COLUMNS2
    assert 1 < len(table) < 40
    notice = err.splitlines()[0]
    assert notice == (f"step limit hit at t = {table[-1, 0]:.12g}; "
                      f"trajectory truncated")


def test_missing_config_is_exit_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_is_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("system: 5\ntime: {start: 0, end: 1}\nhamiltonian: {}\n")
    assert main(["run", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, path", [
    ("v: {shape: constant, value: 1.0}",
     "v: {shape: gaussian, amplitude: 1.0, center: 1.0, width: .inf}",
     "hamiltonian.v.width"),
    ("v: {shape: constant, value: 1.0}",
     "v: {shape: constant, value: [1.0, .nan]}", "hamiltonian.v.value[1]"),
    ("v: {shape: constant, value: 1.0}",
     "v: {shape: piecewise, knots: [[0.0, 1.0], [.inf, 0.0]]}",
     "hamiltonian.v.knots[1][0]"),
    ("shape: constant, value: 0.0", "shape: [constant], value: 0.0",
     "hamiltonian.h"),
    ("end: 2.0", "end: 1" + "0" * 400, "time.end"),
    ("end: 2.0", "end: 1" + "0" * 5000, "config"),
    ("v: {shape: constant, value: 1.0}",
     "v: {shape: sum, terms: [{shape: constant, value: 1.0},"
     " {shape: cosine, amplitude: 1.0, angular_frequency: 1.0e308}]}",
     "hamiltonian.v.terms[1]"),
    ("h: {shape: constant, value: 0.0}",
     "h: {shape: cosine, amplitude: [0.2, 0.1], angular_frequency: 1.0,"
     " phase_offset: 1.5707963267948966}", "hamiltonian.h"),
    ("time: {start: 0.0, end: 2.0}\nintegrator: {max_step: 0.05}",
     "time: {start: 1.0e6, end: 1000000.0000000002}", "time"),
    ("integrator: {max_step: 0.05}", "integrator: {max_step: 1.0e-7}",
     "integrator.max_step"),
], ids=["width_inf", "value_nan", "knot_time_inf", "shape_list",
        "end_400_digits", "end_5001_digits", "cosine_phase_overflow",
        "diagonal_not_real", "window_too_narrow", "beyond_step_budget"])
def test_malformed_config_gives_one_error_line(tmp_path, capsys, old, new,
                                               path):
    p = tmp_path / "bad.yaml"
    p.write_text(CONFIG_BLOWUP.replace(old, new))
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert len(lines[0]) < 200


def test_usage_errors_are_exit_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_samples_is_exit_one(config2_path, capsys):
    assert main(["run", config2_path, "--samples", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_format_is_exit_one(config2_path, capsys, tmp_path):
    out = tmp_path / "x.xml"
    assert main(["run", config2_path, "--format", "xml",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_parser_defaults():
    args = build_parser().parse_args(["run", "cfg.yaml"])
    assert args.samples == 200
    assert args.format == "csv"
    assert args.output is None
    assert not args.compare_oracle
    assert args.rel_tol is None


def assert_same_document(got, want):
    # got == want for two whole documents (str or bytes). A failing ==
    # of two long strings makes pytest diff them, which takes minutes
    # on a few hundred kB; this reports the lengths and the first
    # differing offset with a short window around it instead.
    if len(got) == len(want) and got == want:
        return
    offset = len(os.path.commonprefix([got, want]))
    window = slice(max(offset - 40, 0), offset + 40)
    pytest.fail(f"documents of lengths {len(got)} and {len(want)} "
                f"differ at offset {offset}: {got[window]!r} against "
                f"{want[window]!r}", pytrace=False)


def test_repeat_runs_identical(config3_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["run", config3_path, "--samples", "30", "--output", str(a)])
    main(["run", config3_path, "--samples", "30", "--output", str(b)])
    assert_same_document(a.read_bytes(), b.read_bytes())


def csv_reference(columns, table):
    # The CSV text as one string with one f-string per value: the
    # format the streamed writer must reproduce byte for byte.
    lines = [",".join(columns)]
    for row in table:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def csv_row_texts(text):
    return text.splitlines(True)[1:]


def json_row_texts(columns, table):
    # Each row's text as it stands in the document, without the ",\n"
    # that joins it to the next row.
    lead, tail = len('{\n "s": [\n'), len('\n ]\n}')
    return [json.dumps({"s": [dict(zip(columns, row.tolist()))]},
                       indent=1)[lead:-tail] for row in table]


def assert_bounded_writes(sizes, row_texts, block, separator=""):
    # No write holds more than one block of rows, each row with its
    # separator, or one read from the formatter helper.
    longest = block * (max(map(len, row_texts)) + len(separator))
    assert max(sizes) <= max(longest, cli._PIPE_CHUNK)


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_streamed_csv_matches_per_value_formatting():
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e16,
                1e17, 0.1, 1.0 / 3.0]
    rows = 2 * cli._CSV_BLOCK + 7     # not a whole number of blocks
    rng = np.random.default_rng(3)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(
        -300, 300, (rows, 5))
    table.ravel()[:len(specials)] = specials
    table[-1] = specials[-5:]
    columns = ["t", "a", "b", "c", "d"]
    stream = RecordingStream()
    cli._write_table(columns, table, None, None, None, "csv", stream)
    text = stream.getvalue()
    assert_same_document(text, csv_reference(columns, table))
    # the header, then one write per block of rows; no write holds the
    # whole file
    assert len(stream.sizes) == 1 + 3
    assert max(stream.sizes) < len(text) / 2


def test_csv_file_and_stdout_match_per_value_formatting(config2_path,
                                                        tmp_path, capsys):
    samples = cli._CSV_BLOCK + 3
    columns, table = cli.trajectory_table(*cli_run(CONFIG2, samples))
    want = csv_reference(columns, table)

    out = tmp_path / "out.csv"
    assert main(["run", config2_path, "--samples", str(samples),
                 "--output", str(out)]) == 0
    assert_same_document(out.read_bytes(), want.encode())
    capsys.readouterr()
    assert main(["run", config2_path, "--samples", str(samples)]) == 0
    assert_same_document(capsys.readouterr().out, want)


def json_reference(header, columns, table):
    # The document as one json.dumps call: the text the streamed writer
    # must reproduce byte for byte.
    samples = [dict(zip(columns, row.tolist())) for row in table]
    return json.dumps({"header": header, "samples": samples}, indent=1) + "\n"


def special_table(rows):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                2.2250738585072009e-308, 1.7976931348623157e308, 1e16,
                1e-7, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(5)
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(
        -300, 300, (rows, 5))
    table.ravel()[:len(specials)] = specials
    table[-1] = specials[-5:]
    return table


JSON_HEADER = {"system": 2, "settings": {"rel_tol": 1e-9, "max_steps": 10},
               "config": {"hamiltonian": {"h": {"shape": "constant",
                                                "value": -0.0}}},
               "status": "completed", "singularity_time": None}


def test_streamed_json_matches_one_dumps(tmp_path, capsys):
    columns = ["t", "re_z", "im_z", "phi", "residual_schrodinger"]
    full = special_table(2 * cli._JSON_BLOCK + 7)  # not whole blocks
    for rows in (len(full), 1):
        table = full[:rows]
        want = json_reference(JSON_HEADER, columns, table)
        stream = RecordingStream()
        cli._write_json(columns, table, JSON_HEADER, stream)
        assert_same_document(stream.getvalue(), want)
        if rows > cli._JSON_BLOCK:
            # the header, then blocks of rows; no write holds the file
            assert max(stream.sizes) < len(want) / 2
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as fh:
            cli._write_json(columns, table, JSON_HEADER, fh)
        assert_same_document(path.read_text(encoding="utf-8"), want)
        capsys.readouterr()
        cli._write_json(columns, table, JSON_HEADER, sys.stdout)
        assert_same_document(capsys.readouterr().out, want)


def test_json_run_matches_one_dumps(config3_path, tmp_path):
    # the whole run's document, header included, as json.dumps writes it
    out = tmp_path / "out.json"
    assert main(["run", config3_path, "--samples", str(cli._JSON_BLOCK + 5),
                 "--format", "json", "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert_same_document(text, json.dumps(json.loads(text), indent=1) + "\n")


class CountingForked(cli._Forked):
    started = 0

    def __init__(self, *args):
        type(self).started += 1
        super().__init__(*args)


@pytest.fixture
def counting_forks(monkeypatch):
    monkeypatch.setattr(CountingForked, "started", 0)
    monkeypatch.setattr(cli, "_Forked", CountingForked)
    return CountingForked


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                           (2, 7)],
                         ids=["1", "B-1", "B", "B+1", "2B+7"])
def test_shared_formatting_matches_per_value_text(monkeypatch,
                                                  counting_forks, fork, fmt,
                                                  blocks, extra):
    # blocks * B + extra rows, B rows to a block; the helper takes part
    # from B+1 rows. B+1 and 2B+7 rows split in mid-block: the helper's
    # share starts at row (B+1) // 2 and B+3.
    if fork and not hasattr(os, "fork"):
        pytest.skip("no fork")
    block = cli._CSV_BLOCK if fmt == "csv" else cli._JSON_BLOCK
    monkeypatch.setattr(cli, "_CAN_FORK", fork)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_SHARE_MIN_ROWS", block + 1)
    count = blocks * block + extra
    table = special_table(max(count, 3))[:count]
    columns = ["t", "re_z", "im_z", "phi", "residual_schrodinger"]
    stream = RecordingStream()
    if fmt == "csv":
        cli._write_table(columns, table, None, None, None, "csv", stream)
        want = csv_reference(columns, table)
        assert_bounded_writes(stream.sizes, csv_row_texts(want), block)
    else:
        cli._write_json(columns, table, JSON_HEADER, stream)
        want = json_reference(JSON_HEADER, columns, table)
        assert_bounded_writes(stream.sizes, json_row_texts(columns, table),
                              block, ",\n")
    assert_same_document(stream.getvalue(), want)
    assert counting_forks.started == (fork and count > block)
    if fork:
        assert_no_child_left()


SHARE = cli._SHARE_MIN_ROWS


@pytest.mark.parametrize("can_fork, cpus, rows, start", [
    (True, 2, SHARE, SHARE // 2), (True, 2, 2 * SHARE + 1, SHARE),
    (True, 2, SHARE - 1, None), (True, 1, SHARE, None),
    (False, 2, SHARE, None)])
def test_helper_share_needs_fork_two_cpus_and_enough_rows(
        monkeypatch, can_fork, cpus, rows, start):
    monkeypatch.setattr(cli, "_CAN_FORK", can_fork)
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    assert cli._helper_start(rows) == start


# --- the oracle worker ------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the oracle runs inline without fork")
WALL_CLOCK_LINES = ("parse_s = ", "chart_s = ", "table_s = ", "emit_s = ",
                    "oracle_wait_s = ", "wall_time_s = ")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def steady_lines(err):
    return [line for line in err.splitlines()
            if not line.startswith(WALL_CLOCK_LINES)]


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
@pytest.mark.parametrize("patch", ["max_steps", "non_finite"])
def test_oracle_failure_still_writes_the_rows(config2_path, tmp_path, capsys,
                                              monkeypatch, fork, patch):
    if fork and not hasattr(os, "fork"):
        pytest.skip("no fork")
    monkeypatch.setattr(cli, "_CAN_FORK", fork)
    if patch == "max_steps":
        # the chart stops at its step budget; the oracle, which needs
        # more steps per unit time, stops earlier
        monkeypatch.setattr(cli, "IntegratorSettings", functools.partial(
            cli.IntegratorSettings, max_steps=5))
    else:
        def failing(*args, **kwargs):
            raise NonFiniteDerivativeError(1.25)
        # the child is forked from this process, so it sees the patch
        monkeypatch.setattr(cli, "integrate_schrodinger", failing)
    out = tmp_path / "out.csv"
    code = main(["run", config2_path, "--samples", "40", "--compare-oracle",
                 "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    header, table = read_csv(out)
    assert header == COLUMNS2
    if patch == "max_steps":
        assert 1 < len(table) < 40
        assert err[0] == (f"step limit hit at t = {table[-1, 0]:.12g}; "
                          f"trajectory truncated")
        assert err[1].startswith("error: direct-matrix oracle failed: "
                                 "step limit hit at t = ")
        assert len(err) == 2
    else:
        assert len(table) == 40
        assert err == ["error: direct-matrix oracle failed: "
                       "non-finite derivative at t = 1.25"]
    assert_no_child_left()


@pytest.fixture
def blowup_path(tmp_path):
    p = tmp_path / "blowup.yaml"
    p.write_text(CONFIG_BLOWUP)
    return str(p)


@needs_fork
@pytest.mark.parametrize("fixture, code", [("config2_path", 0),
                                           ("config3_path", 0),
                                           ("blowup_path", 2)])
def test_forked_and_inline_oracle_report_the_same(request, tmp_path, capsys,
                                                  monkeypatch, fixture, code):
    # At the singularity the early oracle child is closed and the oracle
    # starts again on the chart's times.
    path = request.getfixturevalue(fixture)
    runs = []
    for fork in (True, False):
        monkeypatch.setattr(cli, "_CAN_FORK", fork)
        out = tmp_path / f"{fork}.csv"
        assert main(["run", path, "--samples", "64", "--compare-oracle",
                     "--output", str(out)]) == code
        runs.append((out.read_bytes(), capsys.readouterr().err))
    (forked_bytes, forked_err), (inline_bytes, inline_err) = runs
    assert forked_bytes == inline_bytes
    assert steady_lines(forked_err) == steady_lines(inline_err)
    assert "max_frobenius_error = " in forked_err
    assert_no_child_left()


def test_oracle_wait_line_only_with_the_oracle(config2_path, tmp_path,
                                               capsys):
    out = str(tmp_path / "x.csv")
    for flags, count in (([], 0), (["--compare-oracle"], 1)):
        assert main(["run", config2_path, "--samples", "9", "--output", out,
                     *flags]) == 0
        err = capsys.readouterr().err.splitlines()
        waits = [line for line in err if line.startswith("oracle_wait_s = ")]
        assert len(waits) == count
        assert err[-1].startswith("wall_time_s = ")
        if count:
            assert err[-2] == waits[0]
            assert float(waits[0].split(" = ")[1]) >= 0.0


@needs_fork
def test_no_oracle_child_outlives_the_run(config2_path, tmp_path, capsys,
                                          monkeypatch):
    out = str(tmp_path / "x.csv")
    assert main(["run", config2_path, "--compare-oracle", "--output",
                 out]) == 0
    assert_no_child_left()
    # an output path that cannot be opened ends the run before the wait
    bad = str(tmp_path / "missing" / "x.csv")
    assert main(["run", config2_path, "--compare-oracle", "--output",
                 bad]) == 1
    assert "error:" in capsys.readouterr().err
    assert_no_child_left()

    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_write_table", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", config2_path, "--compare-oracle", "--output", out])
    assert_no_child_left()


class InterruptedStream(io.StringIO):
    # Raises KeyboardInterrupt at its third write: past the header and
    # the first block of rows, while the formatter helper runs.
    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise KeyboardInterrupt
        return super().write(text)


@needs_fork
def test_interrupt_during_a_shared_write_leaves_no_child(
        config2_path, monkeypatch, counting_forks):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(sys, "stdout", InterruptedStream())
    with pytest.raises(KeyboardInterrupt):
        main(["run", config2_path, "--samples", str(SHARE + 7),
              "--compare-oracle"])
    # the oracle and the formatter helper were both running
    assert counting_forks.started == 2
    assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_chart_run_that_raises_leaves_no_child(config2_path, tmp_path,
                                               capsys, monkeypatch, fork):
    if fork and not hasattr(os, "fork"):
        pytest.skip("no fork")
    monkeypatch.setattr(cli, "_CAN_FORK", fork)

    def failing(*args, **kwargs):
        raise NonFiniteDerivativeError(0.5)
    monkeypatch.setattr(cli, "propagate", failing)
    out = tmp_path / "x.csv"
    assert main(["run", config2_path, "--compare-oracle", "--output",
                 str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: non-finite derivative at t = 0.5\n")
    assert not out.exists()
    if fork:
        assert_no_child_left()


@needs_fork
def test_formatter_helper_that_dies_is_an_error(config2_path, tmp_path,
                                                capsys, monkeypatch):
    # The run exits 1 with an error line and no report, so a file short
    # of the helper's rows never passes for a whole one.
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_share_pieces", lambda *args: os._exit(3))
    samples = SHARE + 7
    out = tmp_path / "x.csv"
    assert main(["run", config2_path, "--samples", str(samples),
                 "--compare-oracle", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: table formatter worker ended without a result "
        "(exit status 3)\n")
    assert len(read_csv(out)[1]) == samples // 2
    assert_no_child_left()


@needs_fork
def test_oracle_worker_that_dies_is_an_error(config2_path, tmp_path, capsys,
                                             monkeypatch):
    # a child that ends without sending a result (killed, out of memory)
    monkeypatch.setattr(cli, "integrate_schrodinger",
                        lambda *args: os._exit(3))
    out = tmp_path / "x.csv"
    assert main(["run", config2_path, "--samples", "9", "--compare-oracle",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: direct-matrix oracle worker ended without a result "
        "(exit status 3)\n")
    assert len(read_csv(out)[1]) == 9
    assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_process_stdout_matches_output_file(config3_path, tmp_path, fmt):
    # The children are forked after the parent flushed its streams and
    # write nothing themselves, so standard output carries exactly the
    # file. At _SHARE_MIN_ROWS rows or more, on more than one CPU, the
    # formatter helper takes part.
    src = str(Path(chartprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    argv = [sys.executable, "-m", "chartprop", "run", config3_path,
            "--samples", str(SHARE + 7), "--compare-oracle",
            "--format", fmt]
    out = tmp_path / f"out.{fmt}"
    to_file = subprocess.run(argv + ["--output", str(out)], env=env,
                             capture_output=True)
    to_stdout = subprocess.run(argv, env=env, capture_output=True)
    assert to_file.returncode == 0 and to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert_same_document(to_stdout.stdout, out.read_bytes())
    assert (steady_lines(to_stdout.stderr.decode())
            == steady_lines(to_file.stderr.decode()))
    assert to_stdout.stderr.decode().count("oracle_wait_s = ") == 1


def test_step_that_does_not_move_t_exits_fast(tmp_path, capsys):
    # Near 1e15 the doubles are 0.125 apart, so steps of at most 0.05
    # never move t; the run stops at the first one, not after a step
    # budget's worth of them.
    p = tmp_path / "stall.yaml"
    p.write_text(CONFIG_BLOWUP.replace(
        "time: {start: 0.0, end: 2.0}",
        "time: {start: 1.0e15, end: 1.0000000000001e15}"))
    out = tmp_path / "x.csv"
    started = time.perf_counter()
    assert main(["run", str(p), "--output", str(out)]) == 1
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "error: step size underflow at t = 1e+15\n")


def test_cosine_of_rounding_noise_exits_at_parse(tmp_path, capsys):
    # cos(1e300 * t) on [0, 6] is rounding noise; integrating it would
    # shrink the steps for minutes toward the step budget.
    p = tmp_path / "noise.yaml"
    p.write_text(CONFIG_BLOWUP.replace(
        "end: 2.0", "end: 6.0").replace(
        "v: {shape: constant, value: 1.0}",
        "v: {shape: cosine, amplitude: 1.0, angular_frequency: 1.0e300}"))
    started = time.perf_counter()
    assert main(["run", str(p), "--output", str(tmp_path / "x.csv")]) == 1
    assert time.perf_counter() - started < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: hamiltonian.v: angular_frequency * t "
                               "+ phase_offset is rounding noise")


# The DeprecationWarning of Python 3.12 and later for a fork in a process
# with threads, as CPython words it.
FORK_WARNING = ("This process (pid={}) is multi-threaded, use of fork() may "
                "lead to deadlocks in the child.")


@needs_fork
@pytest.mark.parametrize("message, category, ignored", [
    (FORK_WARNING, DeprecationWarning, True),
    (FORK_WARNING, UserWarning, False),
    ("fork() is deprecated (pid={})", DeprecationWarning, False),
], ids=["fork_with_threads", "other_category", "other_message"])
def test_only_the_fork_with_threads_warning_is_ignored(
        config2_path, tmp_path, capsys, monkeypatch, message, category,
        ignored):
    # Python 3.11 does not warn, so a stand-in for os.fork issues the
    # warning first, then forks. That one warning must not stop the run;
    # any other one still raises under an "error" filter.
    real_fork = os.fork

    def fork():
        warnings.warn(message.format(os.getpid()), category, stacklevel=2)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    argv = ["run", config2_path, "--compare-oracle", "--output",
            str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if ignored:
            assert main(argv) == 0
            assert "max_frobenius_error = " in capsys.readouterr().err
        else:
            with pytest.raises(category):
                main(argv)
    assert_no_child_left()
