"""Tests shared by both chart modules: the one flat-vector interface,
reconstruction at the origin and across magnitudes, the escape
threshold, and the output-table blocks."""

from types import ModuleType

import numpy as np
import pytest

import chartprop
from chartprop import ConstantDrive, Hamiltonian2, Hamiltonian3
from chartprop import three_level, two_level

CHARTS = pytest.mark.parametrize("chart", [two_level, three_level],
                                 ids=["two_level", "three_level"])

INTERFACE = {"SINGULARITY_THRESHOLD", "STATE_SIZE", "COORD_COLUMNS",
             "chart_rhs", "escaped", "error_weight", "reconstruct_batch",
             "coords_from_states", "coord_block", "extra_residuals"}

# The object-form chart API and the unused matrix helpers are gone.
DELETED = ("ChartState2", "ChartState3", "ChartDerivative2",
           "ChartDerivative3", "initial_state2", "initial_state3",
           "pack_state", "state_from_vector", "rhs2", "rhs3",
           "reconstruct_u2", "reconstruct_u3", "delta1", "delta2",
           "log_delta_rates", "multiply", "adjoint", "frobenius_norm",
           "frobenius_distance")


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
