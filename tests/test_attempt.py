"""The generated DOPRI5 attempt kernels against reference attempts.

`_reference_attempt` is the step attempt written as one comprehension
per stage input and a zip loop for the error norm, in the operation
order the generated straight-line kernel must keep. The two are fed the
same state, stages and weights and must agree to the bit: every stage
input and stage time the right-hand side sees, every returned vector,
and the error norm.

A chart's attempt writes the chart's rates inline; its reference is the
call-per-stage attempt given that chart's own `chart_rhs`. The two must
agree to the bit on y1, w1, k3..k7 and the error norm, signed zeros,
infinities and NaN positions included.
"""

import math

import numpy as np
import pytest

from chartprop import (ConstantDrive, CosineDrive, GaussianDrive,
                       Hamiltonian2, Hamiltonian3, IntegratorSettings,
                       PiecewiseDrive, SumDrive, propagate, three_level,
                       two_level)
from chartprop.integrate import _A, _C, _E, _attempt, _magnitudes
from test_charts import _CountingHamiltonian, coordinate_pairs


def _reference_attempt(rhs, weight, t, h, y, k1, w, abs_tol, rel_tol):
    _, c2, c3, c4, c5, _, _ = _C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A[1:]
    e1, _, e3, e4, e5, e6, e7 = _E
    k2 = rhs(t + c2 * h, [v + h * (a21 * p1)
                          for v, p1 in zip(y, k1)])
    k3 = rhs(t + c3 * h, [v + h * (a31 * p1 + a32 * p2)
                          for v, p1, p2 in zip(y, k1, k2)])
    k4 = rhs(t + c4 * h, [v + h * (a41 * p1 + a42 * p2 + a43 * p3)
                          for v, p1, p2, p3 in zip(y, k1, k2, k3)])
    k5 = rhs(t + c5 * h, [v + h * (a51 * p1 + a52 * p2 + a53 * p3
                                   + a54 * p4)
                          for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [v + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4
                              + a65 * p5)
                     for v, p1, p2, p3, p4, p5
                     in zip(y, k1, k2, k3, k4, k5)])
    y1 = [v + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
          for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y1)
    w1 = weight(y1)
    total = scale_sum = 0.0
    try:
        for a, b, p1, p3, p4, p5, p6, p7 in zip(w, w1, k1, k3, k4, k5, k6,
                                                k7):
            scale = abs_tol + rel_tol * (a if a > b else b)
            q = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                     + e7 * p7) / scale
            total += q * q
            scale_sum += scale
        err = (math.sqrt(total / len(y)) if math.isfinite(scale_sum)
               else math.nan)
    except ZeroDivisionError:
        err = math.nan
    return y1, w1, k3, k4, k5, k6, k7, err


def _replayed(stages):
    """rhs that returns `stages` in turn and logs what it was given."""
    calls = []

    def rhs(t, y):
        calls.append((t, list(y)))
        return stages[len(calls) - 1]
    return rhs, calls


def _hex(value):
    # float.hex of a float, or of each entry of a sequence, recursively
    if isinstance(value, float):
        return value.hex()
    return [_hex(v) for v in value]


def _both(size, y, k1, stages, weight, h=0.37, abs_tol=1e-12,
          rel_tol=1e-9):
    """(kernel result, kernel rhs calls), then the same for the reference."""
    w = weight(y)
    out = []
    for attempt in (_attempt(size), _reference_attempt):
        rhs, calls = _replayed(stages)
        result = attempt(rhs, weight, 1.25, h, y, k1, w, abs_tol, rel_tol)
        out.append((_hex(result), _hex(calls)))
    return out


def _fubini_study(y):
    # a state-dependent weight like the charts': 1 + c^2 per component
    return [1.0 + v * v for v in y]


@pytest.mark.parametrize("weight", [_magnitudes, _fubini_study],
                         ids=["unweighted", "weighted"])
@pytest.mark.parametrize("size", [1, 3, 8, 18])
def test_kernel_matches_the_reference_to_the_bit(size, weight):
    rng = np.random.default_rng(size)
    for _ in range(25):
        # components spread over several decades, stages of either sign
        y = (rng.normal(size=size)
             * 10.0 ** rng.integers(-4, 5, size=size)).tolist()
        k1, *stages = (rng.normal(scale=3.0, size=size).tolist()
                       for _ in range(7))
        h = float(rng.uniform(1e-3, 1.0))
        kernel, reference = _both(size, y, k1, stages, weight, h=h)
        assert kernel == reference
        assert len(kernel[1]) == 6  # k2..k7


@pytest.mark.parametrize("size", [1, 3, 8, 18])
@pytest.mark.parametrize("bad", ["zero_scale", "infinite_weight"])
def test_a_zero_or_infinite_scale_gives_nan(size, bad):
    # Powers of two make abs_tol + rel_tol * w exactly 0 for a weight
    # of -abs_tol / rel_tol; an infinite weight in one component makes
    # the scale sum infinite. Both must fail the estimate with nan.
    rng = np.random.default_rng(100 + size)
    y = rng.normal(size=size).tolist()
    k1, *stages = (rng.normal(size=size).tolist() for _ in range(7))
    if bad == "zero_scale":
        def weight(v):
            return [-2.0 ** -10] * size
    else:
        def weight(v):
            return [math.inf] + [1.0] * (size - 1)
    kernel, reference = _both(size, y, k1, stages, weight,
                              abs_tol=2.0 ** -40, rel_tol=2.0 ** -30)
    assert kernel == reference
    assert kernel[0][-1] == "nan"


def test_kernel_is_compiled_once_per_size_and_named_in_tracebacks():
    assert _attempt(8) is _attempt(8)
    assert _attempt(3) is not _attempt(8)
    assert _attempt(8).__code__.co_filename == "<dopri5 attempt d=8>"


CHARTS = pytest.mark.parametrize("chart", [two_level, three_level],
                                 ids=["two_level", "three_level"])


def _drive(shape, amplitude, k):
    """A drive of the given shape scaled by amplitude; k varies its
    parameters so that the couplings of one Hamiltonian differ."""
    if shape == "constant":
        return ConstantDrive(amplitude)
    if shape == "cosine":
        return CosineDrive(amplitude, 1.3 + 0.4 * k, 0.2 * k)
    if shape == "gaussian":
        return GaussianDrive(amplitude, 0.3 + 0.1 * k, 0.7)
    if shape == "piecewise":
        return PiecewiseDrive((0.0, 0.4 + 0.1 * k, 2.0),
                              (0.1 * amplitude, amplitude, -amplitude))
    return SumDrive((ConstantDrive(0.5 * amplitude),
                     CosineDrive(amplitude, 0.9 + 0.3 * k)))


def _hamiltonian(chart, diagonal, couplings):
    """A Hamiltonian of the chart's dimension from lists of drives."""
    if chart is two_level:
        return Hamiltonian2(h=diagonal[0], v=couplings[0])
    return Hamiltonian3(h1=diagonal[0], h2=diagonal[1], v1=couplings[0],
                        v2=couplings[1], v3=couplings[2])


def _of_shape(chart, shape):
    # real diagonal drives and complex couplings, all of one shape
    return _hamiltonian(
        chart, [_drive(shape, a, k) for k, a in enumerate((0.6, -0.35))],
        [_drive(shape, a, k) for k, a
         in enumerate((0.5 - 0.3j, -0.2 + 0.7j, 0.45 + 0.1j))])


def _chart_paths(chart, ham, y, h, weight, t=0.35):
    """(inline result, call-per-stage result) of one attempt as hex, both
    given the chart's own chart_rhs, and the drive samples each made."""
    rhs = chart.chart_rhs(ham)
    k1 = rhs(t, y)
    w = weight(y)
    out = []
    for attempt in (_attempt(len(y), chart._RATES), _attempt(len(y))):
        counted = _CountingHamiltonian(ham)
        rhs = chart.chart_rhs(counted)
        result = attempt(rhs, weight, t, h, y, k1, w, 1e-12, 1e-9)
        out.append((_hex(result), counted.calls))
    return out


def _weights(chart):
    return [_magnitudes, chart.error_weight]


def _assert_same(chart, ham, y, h):
    """Both paths agree with either weight, and each samples once per
    distinct stage time; returns the error norm of the unweighted run."""
    for weight in _weights(chart):
        inline, called = _chart_paths(chart, ham, y, h, weight)
        assert inline[0] == called[0]
        assert inline[1] == called[1] == 5
        if weight is _magnitudes:
            err = inline[0][-1]
    return err


@CHARTS
def test_inline_rates_match_the_chart_rhs_across_magnitudes(chart):
    # from 1e-3 up to twice the escape threshold, where stages reach
    # far past it
    rng = np.random.default_rng(31)
    ham = _of_shape(chart, "cosine")
    pairs = coordinate_pairs(chart)
    finite = 0
    for scale in np.geomspace(1e-3, 2.0 * chart.SINGULARITY_THRESHOLD, 40):
        y = rng.uniform(-10.0, 10.0, size=chart.STATE_SIZE)
        y[:2 * pairs] = rng.normal(size=2 * pairs) * scale
        h = float(10.0 ** rng.uniform(-4, 0))
        err = _assert_same(chart, ham, y.tolist(), h)
        finite += err not in ("nan", "inf")
    assert finite > 10


@CHARTS
@pytest.mark.parametrize("coupling", ["real", "imaginary", "zero"])
def test_inline_rates_keep_signed_zeros(chart, coupling):
    # Couplings that are exactly real, exactly imaginary or zero give
    # the +0.0 and -0.0 parts where a float meets a complex; with zero
    # or signed-zero states and zero diagonals the signs reach the
    # stages and the result.
    values = {"real": (0.7, -0.4), "imaginary": (0.7j, -0.4j),
              "zero": (0.0, complex(-0.0, -0.0))}[coupling]
    couplings = [ConstantDrive(values[0]), CosineDrive(values[1], 1.1),
                 ConstantDrive(values[0])]
    rng = np.random.default_rng(32)
    for diagonal in (0.0, -0.0, 0.3):
        ham = _hamiltonian(chart, [ConstantDrive(diagonal)] * 2, couplings)
        for _ in range(6):
            zeros = rng.choice([0.0, -0.0], size=chart.STATE_SIZE).tolist()
            _assert_same(chart, ham, zeros, 0.25)
            y = rng.normal(size=chart.STATE_SIZE)
            y[rng.random(chart.STATE_SIZE) < 0.5] = -0.0
            _assert_same(chart, ham, y.tolist(), 0.25)


@CHARTS
def test_inline_rates_overflow_like_the_chart_rhs(chart):
    # Stages that overflow to inf, and inf - inf that gives nan: the
    # error norm is nan on both paths, and every vector matches.
    ham = _of_shape(chart, "constant")
    infinite = 0
    for scale in (1e40, 1e60, 1e100, 1e200, 1e300):
        y = [scale, -scale] + [0.5 * scale] * (chart.STATE_SIZE - 2)
        for weight in _weights(chart):
            inline, called = _chart_paths(chart, ham, y, 1.0, weight)
            assert inline == called
            assert inline[0][-1] == "nan"
            infinite += "inf" in str(inline[0])
    assert infinite > 0


@CHARTS
@pytest.mark.parametrize("shape", ["constant", "cosine", "gaussian",
                                   "piecewise", "sum"])
def test_inline_rates_match_the_chart_rhs_for_every_drive_shape(chart,
                                                                shape):
    rng = np.random.default_rng(33)
    ham = _of_shape(chart, shape)
    for _ in range(10):
        y = rng.normal(scale=2.0, size=chart.STATE_SIZE).tolist()
        _assert_same(chart, ham, y, float(rng.uniform(0.01, 0.5)))


@CHARTS
def test_a_complex_diagonal_drive_raises_the_same_error_on_both_paths(
        chart):
    # A diagonal drive that is not real by construction is checked at
    # each sample; the first stage time already fails the check.
    ham = _hamiltonian(chart, [CosineDrive(0.3 + 0.2j, 1.0),
                               ConstantDrive(0.1)],
                       [ConstantDrive(0.5 - 0.3j)] * 3)
    y = [0.1] * chart.STATE_SIZE
    k1 = [0.0] * chart.STATE_SIZE
    messages = []
    for attempt in (_attempt(chart.STATE_SIZE, chart._RATES),
                    _attempt(chart.STATE_SIZE)):
        with pytest.raises(ValueError, match="must evaluate real") as info:
            attempt(chart.chart_rhs(ham), _magnitudes, 0.35, 0.5, y, k1,
                    _magnitudes(y), 1e-12, 1e-9)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_one_inline_attempt_per_chart_whatever_the_drive_shapes():
    for chart in (two_level, three_level):
        assert (_attempt(chart.STATE_SIZE, chart._RATES)
                is _attempt(chart.STATE_SIZE, chart._RATES))
        assert (_attempt(chart.STATE_SIZE, chart._RATES)
                is not _attempt(chart.STATE_SIZE))
    assert (_attempt(8, three_level._RATES).__code__.co_filename
            == "<dopri5 attempt d=8, inlined rates>")
    settings = IntegratorSettings(max_step=0.1)
    for chart in (two_level, three_level):
        propagate(_of_shape(chart, "constant"), 0.0, 0.5, settings, [0.5])
    compiled = _attempt.cache_info().currsize
    for chart in (two_level, three_level):
        for shape in ("cosine", "gaussian", "piecewise", "sum"):
            propagate(_of_shape(chart, shape), 0.0, 0.5, settings, [0.5])
    assert _attempt.cache_info().currsize == compiled
