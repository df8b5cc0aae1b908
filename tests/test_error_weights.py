"""Chart runs with the error weights that `chartprop run` passes.

The weights scale each coordinate's error by 1 + |c|^2, so the
tolerances act on the evolution operator rather than on the chart
coordinates. These runs must keep the accuracy of the acceptance
criteria while taking fewer right-hand-side calls than the same runs
without weights. The systems are the first of the criterion-1 and
criterion-3 packs; the acceptance fixtures themselves run unweighted.
Those packs keep every coordinate within modulus 10, so the last tests
here follow runs whose coordinates reach moduli in the hundreds to the
hundred thousands, where the weights widen the coordinate tolerances
by up to ten orders of magnitude.
"""

import csv

import numpy as np
import pytest

from chartprop import (ConstantDrive, Hamiltonian2, Hamiltonian3, integrate,
                       integrate_schrodinger, three_level, two_level,
                       unitarity_errors)
from chartprop.cli import main
from exact import exact_unitaries
from test_acceptance import (CONSTANT_SEED, COARSE, FINE, GRID101,
                             SCENARIO_SEED, SETTINGS9, scenario_stream)


def counted_run(chart, ham, grid, weighted):
    """(trajectory, RHS calls) of a chart run from the origin at t = 0
    to the last grid time."""
    calls = 0
    rhs = chart.chart_rhs(ham)

    def counted(t, vec):
        nonlocal calls
        calls += 1
        return rhs(t, vec)

    traj = integrate(counted, np.zeros(chart.STATE_SIZE), 0.0, grid[-1],
                     SETTINGS9, grid, escape=chart.escaped,
                     error_weight=chart.error_weight if weighted else None)
    assert traj.stats.rhs_calls == calls
    return traj, calls


def constant_systems():
    """The 50 constant Hamiltonians of criterion 1, in its draw order:
    25 two-level, then 25 three-level."""
    rng = np.random.default_rng(CONSTANT_SEED)
    for _ in range(25):
        yield two_level, Hamiltonian2(
            h=ConstantDrive(rng.uniform(-2, 2)),
            v=ConstantDrive(complex(*rng.uniform(-1.4, 1.4, 2))))
    for _ in range(25):
        h1, h2 = rng.uniform(-1, 1, 2)
        vs = [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(3)]
        yield three_level, Hamiltonian3(
            h1=ConstantDrive(h1), h2=ConstantDrive(h2),
            v1=ConstantDrive(vs[0]), v2=ConstantDrive(vs[1]),
            v3=ConstantDrive(vs[2]))


def check_weighted_run(chart, ham, grid, references, plain_calls):
    """The weighted run must be accurate against every reference
    (operators on `grid`), unitary, and cheaper than the plain run."""
    traj, calls = counted_run(chart, ham, grid, weighted=True)
    assert traj.status == "completed"
    us = chart.reconstruct_batch(traj.states)
    for reference in references:
        error = np.max(np.linalg.norm(us - reference, axis=(1, 2)))
        assert error <= 1e-6
    assert np.max(unitarity_errors(us)) <= 1e-11
    assert calls < plain_calls


@pytest.mark.parametrize("index", [*range(10), *range(25, 35)])
def test_weighted_constant_systems_match_exact_and_oracle(index):
    chart, ham = list(constant_systems())[index]
    exact = exact_unitaries(ham.matrix(0.0), GRID101)
    oracle = integrate_schrodinger(ham, 0.0, 10.0, SETTINGS9, GRID101)
    _, plain_calls = counted_run(chart, ham, GRID101, weighted=False)
    check_weighted_run(chart, ham, GRID101, [exact, oracle.unitaries],
                       plain_calls)


def test_weighted_time_dependent_scenarios_match_oracle():
    # The first five scenarios criterion 3 accepts: completed unweighted
    # runs whose coordinates stay within modulus 10 on the fine grid.
    gen = scenario_stream(SCENARIO_SEED)
    checked = 0
    while checked < 5:
        ham = next(gen)
        plain, plain_calls = counted_run(three_level, ham, FINE,
                                         weighted=False)
        if plain.status != "completed":
            continue
        x, y, z, _, _ = three_level.coords_from_states(plain.states)
        if max(np.abs(x).max(), np.abs(y).max(), np.abs(z).max()) > 10.0:
            continue
        oracle = integrate_schrodinger(ham, 0.0, 10.0, SETTINGS9, COARSE)
        check_weighted_run(three_level, ham, COARSE, [oracle.unitaries],
                           plain_calls)
        checked += 1


@pytest.mark.parametrize("t_end", [1.5, 1.57, 1.57079])
def test_weighted_tangent_orbit_near_the_pole(t_end):
    # h = 0, v = 1: z(t) = -i tan t and phi = 0 up to the pole at pi/2.
    # At t_end = 1.57079, |z| is about 1.6e5 and its weight about 2.5e10.
    ham = Hamiltonian2(h=ConstantDrive(0.0), v=ConstantDrive(1.0))
    grid = np.linspace(0.0, t_end, 301)
    _, plain_calls = counted_run(two_level, ham, grid, weighted=False)
    traj, calls = counted_run(two_level, ham, grid, weighted=True)
    assert traj.status == "completed"
    exact_z = -1j * np.tan(grid)
    z, phi = two_level.coords_from_states(traj.states)
    # the distance on the chart's sphere: how far U itself is off
    assert np.max(np.abs(z - exact_z)
                  / (1.0 + np.abs(exact_z) ** 2)) <= 1e-7
    assert np.max(np.abs(phi)) <= 1e-12
    us = two_level.reconstruct_batch(traj.states)
    exact = exact_unitaries(ham.matrix(0.0), grid)
    assert np.max(np.linalg.norm(us - exact, axis=(1, 2))) <= 1e-6
    assert np.max(unitarity_errors(us)) <= 1e-11
    assert calls < plain_calls


# The three-level config of the benchmark's CLI workload, cut at t = 130:
# its coordinates reach modulus 114 near t = 128.5.
CONFIG_LARGE = """
system: 3
time: {start: 0.0, end: 130.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.1}
hamiltonian:
  h1: {shape: constant, value: 0.2}
  h2: {shape: constant, value: -0.1}
  v1: {shape: cosine, amplitude: [0.4, 0.1], angular_frequency: 1.1}
  v2: {shape: constant, value: 0.3}
  v3: {shape: gaussian, amplitude: [0.0, 0.5], center: 5.0, width: 1.5}
"""


def test_cli_run_with_large_coordinates_matches_oracle(tmp_path, capsys):
    config = tmp_path / "large.yaml"
    config.write_text(CONFIG_LARGE)
    out = tmp_path / "out.csv"
    code = main(["run", str(config), "--samples", "2601",
                 "--compare-oracle", "--output", str(out)])
    assert code == 0
    report = dict(line.split(" = ", 1)
                  for line in capsys.readouterr().err.splitlines()
                  if " = " in line)
    # 1.2e-8 when this test was written
    assert float(report["max_frobenius_error"]) <= 1e-7
    assert float(report["max_unitarity_error"]) <= 1e-11
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    table = np.array(rows[1:], dtype=float)
    columns = rows[0]
    modulus = max(np.hypot(table[:, columns.index(f"re_{c}")],
                           table[:, columns.index(f"im_{c}")]).max()
                  for c in "xyz")
    assert modulus > 100.0
