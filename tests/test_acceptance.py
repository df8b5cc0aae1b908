"""Acceptance suite: end-to-end bounds the package must meet.

Each test records one verdict line (replayed in the terminal summary)
and then asserts, so a failing bound is visible both as a FAIL line
and as a red test. The heavy scenario packs are session fixtures
shared by several criteria.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from chartprop import (ConstantDrive, CosineDrive, GaussianDrive,
                       Hamiltonian2, Hamiltonian3, IntegratorSettings,
                       SumDrive, compare, integrate, integrate_schrodinger,
                       unitarity_errors)
from chartprop import three_level, two_level
from chartprop.cli import main
from exact import exact_unitaries

FINE = np.linspace(0.0, 10.0, 25001)
FINE_DT = FINE[1] - FINE[0]
COARSE = FINE[::250]           # exact 101-point subset of FINE
GRID101 = np.linspace(0.0, 10.0, 101)
SETTINGS9 = IntegratorSettings(max_step=0.1, rel_tol=1e-9, abs_tol=1e-12)

CONSTANT_SEED = 20100
SCENARIO_SEED = 20260817


def chart_trajectory(module, ham, t_end, settings, samples):
    init = np.zeros(module.STATE_SIZE)
    return integrate(module.chart_rhs(ham), init, 0.0, t_end, settings,
                     samples, escape=module.escaped)


def fd4(values, dt):
    """4th-order first derivative on a uniform grid, one-sided at edges."""
    n = len(values)
    assert n >= 5
    out = np.empty(n, dtype=float)
    out[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1]
                 - values[4:]) / (12 * dt)
    c0 = np.array([-25 / 12, 4.0, -3.0, 4 / 3, -1 / 4]) / dt
    c1 = np.array([-1 / 4, -5 / 6, 3 / 2, -1 / 2, 1 / 12]) / dt
    out[0] = c0 @ values[:5]
    out[1] = c1 @ values[:5]
    out[-1] = -(c0 @ values[-5:][::-1])
    out[-2] = -(c1 @ values[-5:][::-1])
    return out


def scenario_stream(seed):
    """Random three-level Hamiltonians with cosine and Gaussian drives,
    amplitudes at most 1 and angular frequencies at most 3."""
    rng = np.random.default_rng(seed)

    def rand_complex_drive():
        if rng.integers(0, 2) == 0:
            return CosineDrive(amplitude=complex(*rng.uniform(-0.7, 0.7, 2)),
                               angular_frequency=rng.uniform(0.3, 3.0),
                               phase_offset=rng.uniform(0.0, 6.28))
        return GaussianDrive(amplitude=complex(*rng.uniform(-0.7, 0.7, 2)),
                             center=rng.uniform(2.0, 8.0),
                             width=rng.uniform(0.6, 2.5))

    def rand_real_drive():
        if rng.integers(0, 2) == 0:
            return CosineDrive(amplitude=rng.uniform(-1.0, 1.0),
                               angular_frequency=rng.uniform(0.3, 3.0),
                               phase_offset=rng.uniform(0.0, 6.28))
        return GaussianDrive(amplitude=rng.uniform(-1.0, 1.0),
                             center=rng.uniform(2.0, 8.0),
                             width=rng.uniform(0.6, 2.5))

    while True:
        yield Hamiltonian3(h1=rand_real_drive(), h2=rand_real_drive(),
                           v1=rand_complex_drive(), v2=rand_complex_drive(),
                           v3=rand_complex_drive())


@pytest.fixture(scope="session")
def constant_pack():
    """50 constant traceless Hermitian systems (25 two-level, 25
    three-level, entries bounded by 2), each propagated three ways."""
    rng = np.random.default_rng(CONSTANT_SEED)
    started = time.perf_counter()
    worst = 0.0
    max_unit = 0.0
    min_drift = np.inf
    for system in (2, 3):
        module = two_level if system == 2 else three_level
        for _ in range(25):
            if system == 2:
                ham = Hamiltonian2(
                    h=ConstantDrive(rng.uniform(-2, 2)),
                    v=ConstantDrive(complex(*rng.uniform(-1.4, 1.4, 2))))
            else:
                h1, h2 = rng.uniform(-1, 1, 2)
                vs = [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(3)]
                ham = Hamiltonian3(h1=ConstantDrive(h1), h2=ConstantDrive(h2),
                                   v1=ConstantDrive(vs[0]),
                                   v2=ConstantDrive(vs[1]),
                                   v3=ConstantDrive(vs[2]))
            traj = chart_trajectory(module, ham, 10.0, SETTINGS9, GRID101)
            traj.require_completed()
            us = module.reconstruct_batch(traj.states)
            max_unit = max(max_unit, float(np.max(unitarity_errors(us))))
            oracle = integrate_schrodinger(ham, 0.0, 10.0, SETTINGS9, GRID101)
            min_drift = min(min_drift, oracle.drift)
            exact = exact_unitaries(ham.matrix(0.0), GRID101)
            worst = max(
                worst,
                compare(GRID101, us, oracle).max_frobenius_error,
                float(np.max(np.linalg.norm(us - exact, axis=(1, 2)))),
                float(np.max(np.linalg.norm(oracle.unitaries - exact,
                                            axis=(1, 2)))),
            )
    return {
        "worst": worst,
        "max_unitarity": max_unit,
        "min_oracle_drift": min_drift,
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="session")
def scenario_pack():
    """20 time-dependent three-level scenarios propagated on the fine
    grid, with a direct-integration oracle on the coarse subgrid.

    Draws whose chart coordinates exceed 10 in modulus (or that leave
    the chart entirely) are rejected and redrawn; the verdicts below
    are about well-conditioned trajectories, not about surviving near
    poles, and the finite-difference identity checks need bounded
    derivatives to say anything at this tolerance.
    """
    started = time.perf_counter()
    gen = scenario_stream(SCENARIO_SEED)
    rows = []
    rejected = 0
    while len(rows) < 20:
        ham = next(gen)
        traj = chart_trajectory(three_level, ham, 10.0, SETTINGS9, FINE)
        if traj.status != "completed":
            rejected += 1
            continue
        x, y, z, _, _ = three_level.coords_from_states(traj.states)
        if max(np.abs(x).max(), np.abs(y).max(), np.abs(z).max()) > 10.0:
            rejected += 1
            continue
        us = three_level.reconstruct_batch(traj.states)
        oracle = integrate_schrodinger(ham, 0.0, 10.0, SETTINGS9, COARSE)
        rows.append({
            "ham": ham,
            "states": traj.states,
            "max_unitarity": float(np.max(unitarity_errors(us))),
            "compare_error": compare(COARSE, us[::250],
                                     oracle).max_frobenius_error,
            "oracle": oracle,
        })
    return {
        "rows": rows,
        "rejected": rejected,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_1_constant_three_way(record_criterion, constant_pack):
    worst = constant_pack["worst"]
    elapsed = constant_pack["elapsed"]
    ok = worst <= 1e-6 and elapsed < 10.0
    record_criterion(
        "criterion 1: constant-H three-way agreement",
        ok, f"max error {worst:.3e} over 50 systems in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_closed_form_and_blowup(record_criterion):
    # h = 0, v = 1: z(t) = -i tan t with phi identically zero, and a
    # chart singularity at t = pi/2.
    ham = Hamiltonian2(h=ConstantDrive(0.0), v=ConstantDrive(1.0))
    tight = IntegratorSettings(max_step=0.1, rel_tol=1e-10, abs_tol=1e-13)
    grid = np.linspace(0.0, 1.4, 141)
    traj = chart_trajectory(two_level, ham, 1.4, tight, grid)
    traj.require_completed()
    z = traj.states[:, 0] + 1j * traj.states[:, 1]
    z_err = float(np.max(np.abs(z - (-1j * np.tan(traj.times)))))
    phi_err = float(np.max(np.abs(traj.states[:, 2])))

    blow = chart_trajectory(two_level, ham, 2.0, SETTINGS9,
                            np.linspace(0.0, 2.0, 21))
    sing_ok = blow.status == "singularity"
    gap = abs(blow.singularity_time - np.pi / 2) if sing_ok else np.inf

    ok = z_err <= 1e-8 and phi_err <= 1e-12 and sing_ok and gap <= 0.01
    record_criterion(
        "criterion 2: closed-form tangent orbit and pole detection",
        ok, f"z error {z_err:.3e}, blow-up gap {gap:.2e}")
    assert z_err <= 1e-8
    assert phi_err <= 1e-12
    assert sing_ok
    assert gap <= 0.01


def test_criterion_3_time_dependent_oracle(record_criterion, scenario_pack):
    worst = max(row["compare_error"] for row in scenario_pack["rows"])
    elapsed = scenario_pack["elapsed"]
    ok = worst <= 1e-6 and elapsed < 30.0
    record_criterion(
        "criterion 3: time-dependent oracle equivalence",
        ok, f"max error {worst:.3e} over 20 scenarios in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_4_structural_unitarity(record_criterion, constant_pack,
                                          scenario_pack, tmp_path, capsys):
    canon = max(constant_pack["max_unitarity"],
                max(row["max_unitarity"] for row in scenario_pack["rows"]))
    drift_floor = min(constant_pack["min_oracle_drift"],
                      min(row["oracle"].drift
                          for row in scenario_pack["rows"]))

    # the same asymmetry must surface in the CLI's emitted report
    cfg = tmp_path / "long.yaml"
    cfg.write_text("""
system: 3
time: {start: 0.0, end: 10.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.1}
hamiltonian:
  h1: {shape: constant, value: 0.2}
  h2: {shape: constant, value: -0.1}
  v1: {shape: cosine, amplitude: [0.4, 0.1], angular_frequency: 1.1}
  v2: {shape: constant, value: 0.3}
  v3: {shape: gaussian, amplitude: [0.0, 0.5], center: 5.0, width: 1.5}
""")
    code = main(["run", str(cfg), "--samples", "2001", "--compare-oracle",
                 "--output", str(tmp_path / "long.csv")])
    err_text = capsys.readouterr().err
    fields = dict(line.split(" = ") for line in err_text.strip().splitlines()
                  if " = " in line)
    rep_unit = float(fields["max_unitarity_error"])
    rep_drift = float(fields["oracle_unitarity_drift"])

    ok = (canon <= 1e-11 and drift_floor > canon
          and code == 0 and rep_unit <= 1e-11 and rep_drift > rep_unit)
    record_criterion(
        "criterion 4: structural unitarity beats oracle drift",
        ok, f"reconstruction {canon:.3e} vs oracle drift >= {drift_floor:.3e}; "
            f"report says {rep_unit:.3e} vs {rep_drift:.3e}")
    assert canon <= 1e-11
    assert drift_floor > canon
    assert code == 0
    assert rep_unit <= 1e-11
    assert rep_drift > rep_unit


def test_criterion_5_delta_identities(record_criterion, scenario_pack):
    worst1 = worst2 = 0.0
    for row in scenario_pack["rows"]:
        x, y, z, _, _ = three_level.coords_from_states(row["states"])
        _, _, v1, v2, v3 = row["ham"].sample_grid(FINE)
        # identities restated from the coordinate equations directly
        cross = x * z - y
        rate1 = -2.0 * (np.conj(v1) * x + np.conj(v2) * y).imag
        rate2 = 2.0 * ((np.conj(v2) * cross).imag - (np.conj(v3) * z).imag)
        d1 = 1.0 + np.abs(x) ** 2 + np.abs(y) ** 2
        d2 = 1.0 + np.abs(z) ** 2 + np.abs(cross) ** 2
        worst1 = max(worst1, float(np.max(np.abs(fd4(np.log(d1), FINE_DT)
                                                 - rate1))))
        worst2 = max(worst2, float(np.max(np.abs(fd4(np.log(d2), FINE_DT)
                                                 - rate2))))
    ok = worst1 <= 1e-5 and worst2 <= 1e-5
    record_criterion(
        "criterion 5: normalization growth identities",
        ok, f"residuals {worst1:.3e} and {worst2:.3e}")
    assert worst1 <= 1e-5
    assert worst2 <= 1e-5


def test_criterion_6_block_embedding(record_criterion):
    # a two-level problem embedded in the upper-left block of a
    # three-level system (uncoupled third state) must reproduce the
    # two-level trajectory through the larger chart
    h_drive = CosineDrive(0.25, 1.1)
    h_drive_neg = CosineDrive(-0.25, 1.1)
    v_drive = SumDrive((CosineDrive(0.8, 0.9),
                        GaussianDrive(0.5 + 0.2j, 5.0, 1.0)))
    ham2 = Hamiltonian2(h=h_drive, v=v_drive)
    ham3 = Hamiltonian3(h1=h_drive, h2=h_drive_neg, v1=v_drive,
                        v2=ConstantDrive(0.0), v3=ConstantDrive(0.0))
    tight = IntegratorSettings(max_step=0.1, rel_tol=1e-10, abs_tol=1e-13)
    grid = np.linspace(0.0, 10.0, 1001)
    t2 = chart_trajectory(two_level, ham2, 10.0, tight, grid)
    t3 = chart_trajectory(three_level, ham3, 10.0, tight, grid)
    t2.require_completed()
    t3.require_completed()
    z2 = t2.states[:, 0] + 1j * t2.states[:, 1]
    x3 = t3.states[:, 0] + 1j * t3.states[:, 1]
    coord_err = float(np.max(np.abs(z2 - x3)))
    phase_err = float(np.max(np.abs(t2.states[:, 2] - t3.states[:, 6])))
    y_max = float(np.max(np.abs(t3.states[:, 2] + 1j * t3.states[:, 3])))
    z_max = float(np.max(np.abs(t3.states[:, 4] + 1j * t3.states[:, 5])))
    ok = (coord_err <= 1e-8 and phase_err <= 1e-8
          and y_max <= 1e-10 and z_max <= 1e-10)
    record_criterion(
        "criterion 6: two-level block inside the three-level chart",
        ok, f"coordinate gap {coord_err:.3e}, spectator size "
            f"{max(y_max, z_max):.3e}")
    assert coord_err <= 1e-8
    assert phase_err <= 1e-8
    assert y_max <= 1e-10
    assert z_max <= 1e-10


def _flipped_rhs(ham, flip):
    """Chart vector field with one term's sign inverted.

    flip indexes the 22 additive terms of the five coordinate
    equations; None reproduces the shipped equations (up to grouping
    of the dz cross term).
    """
    s = np.ones(22)
    if flip is not None:
        s[flip] = -1.0

    def rhs(t, vec):
        x = complex(vec[0], vec[1])
        y = complex(vec[2], vec[3])
        z = complex(vec[4], vec[5])
        smp = ham.sample(t)
        h1, h2, v1, v2, v3 = smp
        h3 = -(h1 + h2)
        v1c, v2c, v3c = v1.conjugate(), v2.conjugate(), v3.conjugate()
        cross = x * z - y
        dx = -1j * (s[0] * v1 + s[1] * (h2 - h1) * x - s[2] * v1c * x * x
                    + s[3] * v3c * y - s[4] * v2c * x * y)
        dy = -1j * (s[5] * v2 + s[6] * (h3 - h1) * y - s[7] * v2c * y * y
                    + s[8] * v3 * x - s[9] * v1c * x * y)
        dz = -1j * (s[10] * v3 + s[11] * (h3 - h2) * z - s[12] * v3c * z * z
                    + s[13] * cross * v1c + s[14] * cross * v2c * z)
        dphi1 = -(s[15] * h1 + s[16] * (v1c * x).real
                  + s[17] * (v2c * y).real)
        dphi2 = (-s[18] * h2 - s[19] * (v3c * z).real
                 + s[20] * (v1c * x).real + s[21] * (v2c * x * z).real)
        return np.array([dx.real, dx.imag, dy.real, dy.imag,
                         dz.real, dz.imag, dphi1, dphi2])

    return rhs


def test_criterion_7_mutation_sensitivity(record_criterion, scenario_pack):
    rows = scenario_pack["rows"]

    # the unflipped transcription must agree with the shipped equations
    ham0 = rows[0]["ham"]
    baseline = _flipped_rhs(ham0, None)
    shipped = three_level.chart_rhs(ham0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        vec = rng.normal(size=8)
        a, b = baseline(0.37, vec), shipped(0.37, vec)
        assert np.max(np.abs(a - b)) < 1e-13 * (1.0 + np.max(np.abs(b)))

    init = np.zeros(three_level.STATE_SIZE)
    undetected = []
    weakest = np.inf
    for flip in range(22):
        caught = 0.0
        for row in rows[:5]:
            traj = integrate(_flipped_rhs(row["ham"], flip), init, 0.0, 10.0,
                             SETTINGS9, COARSE, escape=three_level.escaped)
            if traj.status != "completed":
                caught = np.inf  # ran off the chart: loudly wrong
                break
            us = three_level.reconstruct_batch(traj.states)
            err = compare(COARSE, us, row["oracle"]).max_frobenius_error
            caught = max(caught, err)
            if caught >= 1e-2:
                break
        weakest = min(weakest, caught)
        if caught < 1e-2:
            undetected.append(flip)

    ok = not undetected
    record_criterion(
        "criterion 7: single sign flips are detected",
        ok, f"22 mutations, weakest error {weakest:.3e}")
    assert undetected == []


def test_criterion_8_determinism_and_parity(record_criterion, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("""
system: 3
time: {start: 0.0, end: 4.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h1: {shape: cosine, amplitude: 0.3, angular_frequency: 1.7}
  h2: {shape: constant, value: -0.2}
  v1: {shape: gaussian, amplitude: [0.6, -0.2], center: 2.0, width: 0.7}
  v2: {shape: constant, value: [0.1, 0.4]}
  v3: {shape: cosine, amplitude: [0.2, 0.2], angular_frequency: 0.9}
""")

    def invoke(fmt, path):
        proc = subprocess.run(
            [sys.executable, "-m", "chartprop", "run", str(cfg),
             "--samples", "120", "--format", fmt, "--output", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return path.read_bytes()

    csv_a = invoke("csv", tmp_path / "a.csv")
    csv_b = invoke("csv", tmp_path / "b.csv")
    json_a = invoke("json", tmp_path / "a.json")
    json_b = invoke("json", tmp_path / "b.json")
    byte_ok = csv_a == csv_b and json_a == json_b

    header, *data_rows = csv_a.decode().strip().splitlines()
    names = header.split(",")
    doc = json.loads(json_a.decode())
    parity = len(doc["samples"]) == len(data_rows)
    if parity:
        for row_text, row_obj in zip(data_rows, doc["samples"]):
            values = [float(v) for v in row_text.split(",")]
            if any(row_obj[n] != v for n, v in zip(names, values)):
                parity = False
                break

    ok = byte_ok and parity
    record_criterion(
        "criterion 8: byte-reproducible output, csv/json parity",
        ok, f"{len(data_rows)} samples x {len(names)} columns")
    assert byte_ok
    assert parity
