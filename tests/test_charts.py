"""Tests shared by both chart modules: the one flat-vector interface,
reconstruction at the origin and across magnitudes, the escape
threshold, the output-table blocks, and the chart run `propagate`."""

import importlib
import itertools
import math
from types import ModuleType

import numpy as np
import pytest

import chartprop
from chartprop import (ConstantDrive, CosineDrive, Hamiltonian2, Hamiltonian3,
                       IntegratorSettings, integrate, propagate, three_level,
                       two_level)
from exact import exact_unitaries
from test_integrate import CHART_RUNS, assert_same_run

CHARTS = pytest.mark.parametrize("chart", [two_level, three_level],
                                 ids=["two_level", "three_level"])

INTERFACE = {"SINGULARITY_THRESHOLD", "STATE_SIZE", "COORD_COLUMNS",
             "chart_rhs", "escaped", "error_weight", "reconstruct_batch",
             "coords_from_states", "coord_block", "extra_residuals"}

# Components whose squares underflow, overflow or are not numbers.
SPECIALS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf,
            math.nan)

# The object-form chart API, the unused matrix helpers, the named
# three-level sample, and the ground truths that only tests and one demo
# used (the validated matrix types, the exact exponential, the tolerance
# ladder) are gone.
DELETED = ("ChartState2", "ChartState3", "ChartDerivative2",
           "ChartDerivative3", "initial_state2", "initial_state3",
           "pack_state", "state_from_vector", "rhs2", "rhs3",
           "reconstruct_u2", "reconstruct_u3", "delta1", "delta2",
           "log_delta_rates", "multiply", "adjoint", "frobenius_norm",
           "frobenius_distance", "ConvergenceScenario",
           "HamiltonianSample3", "UnitaryMatrix", "MatrixInvariantError",
           "HermitianTraceless", "hermitian_expm",
           "exact_constant_unitaries", "convergence_probe")


def coordinate_pairs(chart):
    return sum(1 for name in chart.COORD_COLUMNS if name.startswith("re_"))


def random_states(rng, chart, n, scales):
    """n flat states with coordinates scaled row-wise, phases in +-10."""
    pairs = coordinate_pairs(chart)
    states = rng.uniform(-10, 10, size=(n, chart.STATE_SIZE))
    states[:, :2 * pairs] = rng.normal(size=(n, 2 * pairs)) * scales[:, None]
    return states


def public_names(module):
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and name != "annotations"
            and not isinstance(value, ModuleType)}


def test_both_charts_expose_the_same_interface():
    assert public_names(two_level) == INTERFACE
    assert INTERFACE <= public_names(three_level)
    assert (public_names(three_level) - INTERFACE
            == {"delta_residuals", "log_delta_rates"})


def test_package_exports():
    for name in chartprop.__all__:
        assert hasattr(chartprop, name), name
    for name in DELETED:
        assert name not in chartprop.__all__
        assert not hasattr(chartprop, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("chartprop.matrices")


@CHARTS
def test_origin_reconstructs_to_identity(chart):
    dim = 2 if chart is two_level else 3
    u = chart.reconstruct_batch(np.zeros(chart.STATE_SIZE))
    assert u.shape == (dim, dim)
    assert np.linalg.norm(u - np.eye(dim)) == 0.0


@CHARTS
def test_escape_threshold(chart):
    limit = chart.SINGULARITY_THRESHOLD
    assert not chart.escaped(np.zeros(chart.STATE_SIZE))
    for pair in range(coordinate_pairs(chart)):
        for value, out in ((0.1 * limit, False), (0.99 * limit, False),
                           (limit, True), (1.5 * limit, True)):
            for part in (0, 1):
                vec = np.zeros(chart.STATE_SIZE)
                vec[2 * pair + part] = value
                assert chart.escaped(vec) == out
        # the modulus counts, not the larger component
        vec = np.zeros(chart.STATE_SIZE)
        vec[2 * pair:2 * pair + 2] = 0.8 * limit
        assert chart.escaped(vec)
    # phases never leave the chart
    vec = np.zeros(chart.STATE_SIZE)
    vec[2 * coordinate_pairs(chart):] = 10 * limit
    assert not chart.escaped(vec)
    # an infinite or overflowing |c|^2 escapes, a NaN one does not, even
    # with a part beyond the threshold; no phase value escapes
    for pair in range(coordinate_pairs(chart)):
        for parts, out in (((math.inf, 0.0), True), ((0.0, -math.inf), True),
                           ((1e300, 0.0), True), ((0.0, -1e300), True),
                           ((math.nan, 0.0), False), ((0.0, math.nan), False),
                           ((math.nan, 1e7), False), ((1e7, math.nan), False),
                           ((1e-300, -1e-300), False), ((-0.0, -0.0), False)):
            vec = [0.0] * chart.STATE_SIZE
            vec[2 * pair:2 * pair + 2] = parts
            assert chart.escaped(vec) is out
    for index in range(2 * coordinate_pairs(chart), chart.STATE_SIZE):
        for value in SPECIALS:
            vec = [0.0] * chart.STATE_SIZE
            vec[index] = value
            assert chart.escaped(vec) is False
    # a state one component short or long is refused
    for size in (chart.STATE_SIZE - 1, chart.STATE_SIZE + 1):
        with pytest.raises(ValueError):
            chart.escaped([0.0] * size)


@CHARTS
def test_reconstruction_unitary_across_magnitudes(chart):
    rng = np.random.default_rng(6)
    scales = 10 ** rng.uniform(-3, 3, size=1000)
    us = chart.reconstruct_batch(random_states(rng, chart, 1000, scales))
    adjoints = np.conj(np.swapaxes(us, -1, -2))
    defect = np.linalg.norm(adjoints @ us - np.eye(us.shape[-1]), axis=(1, 2))
    assert np.max(defect) < 1e-11


@CHARTS
def test_output_blocks_match_column_names(chart):
    rng = np.random.default_rng(8)
    states = random_states(rng, chart, 40, np.ones(40))
    block = chart.coord_block(states)
    assert block.shape == (40, len(chart.COORD_COLUMNS))
    # the flat layout comes first; three-level appends phi3
    assert np.array_equal(block[:, :chart.STATE_SIZE], states)

    times = np.linspace(0.0, 1.0, 40)
    if chart is two_level:
        ham = Hamiltonian2(h=ConstantDrive(0.1), v=ConstantDrive(0.2))
    else:
        ham = Hamiltonian3(*(ConstantDrive(0.1) for _ in range(5)))
    extra = chart.extra_residuals(times, states, ham)
    assert list(extra) == ([] if chart is two_level else ["delta1", "delta2"])
    for values in extra.values():
        assert values.shape == (40,)


@CHARTS
def test_output_blocks_keep_the_sign_bits_of_the_states(chart):
    # The coordinate columns are the states as integrated: a -0.0 stays
    # -0.0 (as in the row [-0.0, 1.0, 0.5]), which array_equal does not
    # see, so the bytes are compared.
    rng = np.random.default_rng(9)
    states = random_states(rng, chart, 40, np.ones(40))
    zeros = rng.random(states.shape) < 0.4
    states[zeros] = np.where(rng.random(states.shape) < 0.5, -0.0, 0.0)[zeros]
    states[0, :3] = [-0.0, 1.0, 0.5]
    block = chart.coord_block(states)
    assert block[:, :chart.STATE_SIZE].tobytes() == states.tobytes()
    assert np.signbit(block[0, 0])
    if chart is three_level:
        phi3 = -(states[:, 6] + states[:, 7])
        assert block[:, -1].tobytes() == phi3.tobytes()


@CHARTS
def test_error_weight_is_one_plus_squared_modulus(chart):
    # 1 + |c|^2 for both parts of each chart coordinate c, 1 per phase
    rng = np.random.default_rng(11)
    scales = 10 ** rng.uniform(-3, 3, size=200)
    states = random_states(rng, chart, 200, scales)
    pairs = coordinate_pairs(chart)
    for vec in states:
        weight = chart.error_weight(vec.tolist())
        assert len(weight) == chart.STATE_SIZE
        assert all(type(value) is float for value in weight)
        weight = np.array(weight)
        parts = vec[:2 * pairs].reshape(pairs, 2)
        modulus2 = parts[:, 0] * parts[:, 0] + parts[:, 1] * parts[:, 1]
        assert np.array_equal(weight[:2 * pairs],
                              np.repeat(1.0 + modulus2, 2))
        coords = parts[:, 0] + 1j * parts[:, 1]
        assert np.allclose(weight[0:2 * pairs:2], 1.0 + np.abs(coords) ** 2,
                           rtol=1e-15, atol=0)
        assert np.array_equal(weight[2 * pairs:],
                              np.ones(chart.STATE_SIZE - 2 * pairs))
    assert np.array_equal(chart.error_weight(np.zeros(chart.STATE_SIZE)),
                          np.ones(chart.STATE_SIZE))
    # special parts give the bits of the expression itself: an
    # overflowing square gives inf, a NaN part NaN; phases always give 1
    for index in range(0, 2 * pairs, 2):
        for re, im in itertools.product(SPECIALS, repeat=2):
            vec = [0.5] * chart.STATE_SIZE
            vec[index:index + 2] = re, im
            weight = chart.error_weight(vec)
            expected = 1.0 + (re * re + im * im)
            assert ([value.hex() for value in weight[index:index + 2]]
                    == [expected.hex()] * 2)
    for index in range(2 * pairs, chart.STATE_SIZE):
        for value in SPECIALS:
            vec = [0.5] * chart.STATE_SIZE
            vec[index] = value
            assert chart.error_weight(vec) == chart.error_weight(
                [0.5] * chart.STATE_SIZE)
    for size in (chart.STATE_SIZE - 1, chart.STATE_SIZE + 1):
        with pytest.raises(ValueError):
            chart.error_weight([0.0] * size)


@CHARTS
def test_chart_functions_take_an_array_a_list_or_a_tuple(chart):
    # The integrator passes lists; scipy's solvers and array callers
    # pass ndarrays. Every form gives the same values, and chart_rhs
    # and error_weight return tuples.
    rng = np.random.default_rng(13)
    limit = chart.SINGULARITY_THRESHOLD
    scales = np.concatenate((10 ** rng.uniform(-3, 3, size=40),
                             [0.9 * limit, 1.1 * limit, 2.0 * limit]))
    states = random_states(rng, chart, len(scales), scales)
    if chart is two_level:
        ham = Hamiltonian2(h=ConstantDrive(0.3), v=ConstantDrive(0.2 - 0.5j))
    else:
        ham = Hamiltonian3(h1=ConstantDrive(0.3), h2=ConstantDrive(-0.1),
                           v1=ConstantDrive(0.2 - 0.5j),
                           v2=ConstantDrive(0.4j), v3=ConstantDrive(-0.7))
    rhs = chart.chart_rhs(ham)
    escapes = set()
    for vec in states:
        forms = (vec, vec.tolist(), tuple(vec.tolist()))
        for fn in (lambda v: rhs(0.4, v), chart.error_weight):
            outs = [fn(form) for form in forms]
            for out in outs:
                assert type(out) is tuple and len(out) == chart.STATE_SIZE
            assert outs[1] == outs[0] == outs[2]
        flags = {bool(chart.escaped(form)) for form in forms}
        assert len(flags) == 1
        escapes |= flags
    assert escapes == {False, True}


class _Fixed:
    """A Hamiltonian stand-in whose sample is one fixed tuple."""

    def __init__(self, values):
        self.values = values

    def sample(self, t):
        return self.values


def _expanded_rates(chart, values, vec):
    """The chart equations as written above the charts' `_RATES`, each
    product spelled out, as (coordinate rates, phase rates, term sums):
    term sums are the sums of the moduli of the terms of each bracket."""
    if chart is two_level:
        h, v = values
        z = complex(vec[0], vec[1])
        vc = v.conjugate()
        dz = 1j * (vc * z * z + 2.0 * h * z - v)
        dphi = -0.5 * (v * z.conjugate() + vc * z + 2.0 * h).real
        terms = abs(v) * abs(z) ** 2 + 2.0 * abs(h) * abs(z) + abs(v)
        return [dz], [dphi], [terms]
    h1, h2, v1, v2, v3 = values
    x, y, z = (complex(vec[i], vec[i + 1]) for i in (0, 2, 4))
    h3 = -(h1 + h2)
    v1c, v2c, v3c = v1.conjugate(), v2.conjugate(), v3.conjugate()
    dx = -1j * (v1 + (h2 - h1) * x - v1c * x * x + v3c * y - v2c * x * y)
    dy = -1j * (v2 + (h3 - h1) * y - v2c * y * y + v3 * x - v1c * x * y)
    dz = -1j * (v3 + (h3 - h2) * z - v3c * z * z
                + (x * z - y) * (v1c + v2c * z))
    dphi1 = -(h1 + v1c * x + v2c * y).real
    dphi2 = (-h2 - v3c * z + v1c * x + v2c * x * z).real
    ax, ay, az = abs(x), abs(y), abs(z)
    a1, a2, a3 = abs(v1), abs(v2), abs(v3)
    terms = [a1 + abs(h2 - h1) * ax + a1 * ax * ax + a3 * ay + a2 * ax * ay,
             a2 + abs(h3 - h1) * ay + a2 * ay * ay + a3 * ax + a1 * ax * ay,
             a3 + abs(h3 - h2) * az + a3 * az * az
             + (ax * az + ay) * (a1 + a2 * az)]
    return [dx, dy, dz], [dphi1, dphi2], terms


@CHARTS
def test_factored_rhs_matches_the_expanded_equations(chart):
    # chart_rhs computes the brackets with their shared products
    # factored out, so the coordinate rates differ from the expanded
    # forms by rounding only: at most 1e-13 of the sum of the moduli of
    # the terms, with coordinates up to about 1e4. The phase rates add
    # the same real parts in the same order and must agree to the bit.
    rng = np.random.default_rng(21)
    pairs = coordinate_pairs(chart)
    for scale in 10 ** rng.uniform(-3, 4, size=400):
        real = list(rng.normal(size=1 if chart is two_level else 2))
        couplings = [complex(*rng.normal(size=2)) for _ in range(pairs)]
        values = tuple(real + couplings)
        vec = random_states(rng, chart, 1, np.array([scale]))[0].tolist()
        out = chart.chart_rhs(_Fixed(values))(0.5, vec)
        coords, phases, terms = _expanded_rates(chart, values, vec)
        for i, (rate, bound) in enumerate(zip(coords, terms)):
            assert abs(out[2 * i] - rate.real) <= 1e-13 * bound
            assert abs(out[2 * i + 1] - rate.imag) <= 1e-13 * bound
        assert list(out[2 * pairs:]) == phases


def _complex_rates(chart, values, vec):
    """The factored brackets of the charts' `_RATES` in complex
    arithmetic, each float that meets a complex value promoted to one
    with a +0.0 imaginary part, as CPython up to 3.13 does."""
    if chart is two_level:
        h, v = values
        z = complex(vec[0], vec[1])
        a = v.conjugate() * z
        b = (a + complex(2.0 * h, 0.0)) * z - v
        return -b.imag, b.real, -(a.real + h)
    h1, h2, v1, v2, v3 = values
    x, y, z = (complex(vec[i], vec[i + 1]) for i in (0, 2, 4))
    h3 = -(h1 + h2)
    v1c, v2c, v3c = v1.conjugate(), v2.conjugate(), v3.conjugate()
    a, b, c = v1c * x, v2c * y, v3c * z
    g = a + b
    bx = v1 + (complex(h2 - h1, 0.0) - g) * x + v3c * y
    by = v2 + (complex(h3 - h1, 0.0) - g) * y + v3 * x
    bz = (v3 + (complex(h3 - h2, 0.0) - c) * z
          + (x * z - y) * (v1c + v2c * z))
    return (bx.imag, -bx.real, by.imag, -by.real, bz.imag, -bz.real,
            -((h1 + a.real) + b.real),
            ((-h2 - c.real) + a.real) + (v2c * x * z).real)


@CHARTS
def test_real_rates_repeat_the_complex_arithmetic_to_the_bit(chart):
    # chart_rhs works in real arithmetic; it must give the bits of the
    # complex forms, signed zeros, infinities and NaN positions included.
    # Half the draws are mostly signed zeros, so that zero sums and
    # products reach every line.
    rng = np.random.default_rng(22)
    special = [1e-300, -1e300, np.inf, -np.inf, np.nan, 1.0]
    zeros = 0.0

    def real():
        if rng.random() < zeros:
            return float(rng.choice([0.0, -0.0]))
        if rng.random() < 0.2:
            return float(rng.choice(special))
        return float(rng.normal() * 10.0 ** rng.uniform(-4, 7))

    def coupling():
        kind = rng.integers(4)
        parts = [(real(), real()), (real(), 0.0), (0.0, real()),
                 (float(rng.choice([0.0, -0.0])),
                  float(rng.choice([0.0, -0.0])))][kind]
        return complex(*parts)

    diagonal = 1 if chart is two_level else 2
    for draw in range(2000):
        zeros = 0.1 if draw % 2 else 0.8
        values = (*(real() for _ in range(diagonal)),
                  *(coupling() for _ in range(coordinate_pairs(chart))))
        vec = [real() for _ in range(chart.STATE_SIZE)]
        out = chart.chart_rhs(_Fixed(values))(0.5, vec)
        expected = _complex_rates(chart, values, vec)
        assert ([float(v).hex() for v in out]
                == [float(v).hex() for v in expected])


class _CountingHamiltonian:
    """A real Hamiltonian whose sample calls are counted, and its stage
    sampler's calls in stage_calls."""

    def __init__(self, ham):
        self.ham = ham
        self.calls = self.stage_calls = 0

    def sample(self, t):
        self.calls += 1
        return self.ham.sample(t)

    def _stages(self, *times):
        self.stage_calls += 1
        return self.ham._stages(*times)


def _called(rhs):
    # the chart's rhs behind a plain function, as perfbench's traced
    # pass wraps it: integrate then calls it at every stage
    return lambda t, vec: rhs(t, vec)


@CHARTS
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "called"])
def test_one_drive_sample_per_distinct_stage_time(chart, weighted, inline):
    # The 6th and 7th stages of an attempt both run at t + h, so a run
    # that calls the chart's rhs at every stage samples the drive once at
    # t_start and 5 times per attempt. With the rates inline, the loop
    # samples once at t_start and makes one stage-sampler call per
    # attempt, for the 5 distinct stage times.
    if chart is two_level:
        ham = Hamiltonian2(h=ConstantDrive(0.3), v=CosineDrive(0.8, 2.0))
    else:
        ham = Hamiltonian3(h1=ConstantDrive(0.2), h2=CosineDrive(0.3, 1.7),
                           v1=CosineDrive(0.5 + 0.2j, 1.1),
                           v2=ConstantDrive(0.25j), v3=CosineDrive(-0.4, 0.9))
    counted = _CountingHamiltonian(ham)
    rhs = chart.chart_rhs(counted)
    traj = integrate(
        rhs if inline else _called(rhs), np.zeros(chart.STATE_SIZE), 0.0,
        6.0, IntegratorSettings(max_step=0.05),
        np.linspace(0.0, 6.0, 41), escape=chart.escaped,
        error_weight=chart.error_weight if weighted else None)
    assert traj.status == "completed"
    assert traj.stats.attempts > 100
    if inline:
        assert (counted.calls, counted.stage_calls) == (
            1, traj.stats.attempts)
    else:
        assert (counted.calls, counted.stage_calls) == (
            1 + 5 * traj.stats.attempts, 0)


@CHART_RUNS
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_inline_rates_and_called_rhs_give_the_same_run(chart, ham, t_end,
                                                       status, weighted):
    # integrate writes a chart's rates inline in its step attempt; behind
    # a plain function the same rhs is called at every stage. Both runs
    # must have the same times, states, status, singularity time and
    # stats, to the bit.
    settings = IntegratorSettings(max_step=0.05)
    grid = np.linspace(0.0, t_end, 41)
    rhs = chart.chart_rhs(ham)
    inline, called = (
        integrate(fn, np.zeros(chart.STATE_SIZE), 0.0, t_end, settings, grid,
                  escape=chart.escaped,
                  error_weight=chart.error_weight if weighted else None)
        for fn in (rhs, _called(rhs)))
    assert inline.status == status
    assert_same_run(inline, called)
    if status == "singularity":
        assert inline.stats.escape_halvings > 0
    elif t_end == 20.0:
        assert inline.stats.error_rejections > 0


class _FailsOnce(_CountingHamiltonian):
    """Counts sample calls; the first call at `bad` raises."""

    def __init__(self, ham, bad):
        super().__init__(ham)
        self.bad = bad
        self.failed = False

    def sample(self, t):
        self.calls += 1
        if t == self.bad and not self.failed:
            self.failed = True
            raise OverflowError("drive failed")
        return self.ham.sample(t)


@CHARTS
def test_a_failed_sample_is_not_kept(chart):
    # A caller may catch a failing sample and call the RHS again at the
    # same t: it must sample again, not reuse the sample of the last t.
    if chart is two_level:
        ham = Hamiltonian2(h=CosineDrive(0.3, 1.3), v=CosineDrive(0.8, 2.0))
    else:
        ham = Hamiltonian3(h1=CosineDrive(0.2, 1.3), h2=CosineDrive(0.3, 1.7),
                           v1=CosineDrive(0.5 + 0.2j, 1.1),
                           v2=CosineDrive(0.25j, 0.6), v3=CosineDrive(-0.4, 0.9))
    vec = np.random.default_rng(5).normal(size=chart.STATE_SIZE).tolist()
    failing = _FailsOnce(ham, bad=0.7)
    rhs = chart.chart_rhs(failing)
    rhs(0.2, vec)
    with pytest.raises(OverflowError):
        rhs(0.7, vec)
    assert rhs(0.7, vec) == chart.chart_rhs(ham)(0.7, vec)
    assert failing.calls == 3



@CHART_RUNS
def test_propagate_is_the_weighted_chart_run(chart, ham, t_end, status):
    # From the chart origin, with the chart's escape test and error
    # weights, then U rebuilt at every row; an early stop comes back
    # with its rows, not raised.
    settings = IntegratorSettings(max_step=0.05)
    grid = np.linspace(0.0, t_end, 41)
    traj, unitaries, used = propagate(ham, 0.0, t_end, settings, grid)
    assert used is chart and traj.status == status
    assert_same_run(traj, integrate(
        chart.chart_rhs(ham), np.zeros(chart.STATE_SIZE), 0.0, t_end,
        settings, grid, escape=chart.escaped, error_weight=chart.error_weight))
    assert np.array_equal(unitaries, chart.reconstruct_batch(traj.states))
    if status == "singularity":
        assert abs(traj.singularity_time - np.pi / 2) < 0.01
        assert len(traj.times) < len(grid)


def test_propagate_errors_fall_with_tolerance():
    # A constant Hamiltonian has the exact answer exp(-i t H). The step
    # bound is loose, so the tolerance sets the error.
    ham = Hamiltonian3(h1=ConstantDrive(0.2), h2=ConstantDrive(-0.5),
                       v1=ConstantDrive(0.3 + 0.1j), v2=ConstantDrive(0.2j),
                       v3=ConstantDrive(-0.25))
    reference = exact_unitaries(ham.matrix(0.0), [5.0])[0]
    errs = []
    for tol in (1e-3, 1e-6, 1e-9):
        settings = IntegratorSettings(max_step=1.0, rel_tol=tol,
                                      abs_tol=tol * 1e-3)
        traj, unitaries, _ = propagate(ham, 0.0, 5.0, settings, [5.0])
        traj.require_completed()
        errs.append(np.linalg.norm(unitaries[-1] - reference))
    assert errs[0] > errs[1] > errs[2] and errs[1] / errs[2] > 10
