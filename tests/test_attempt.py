"""The generated DOPRI5 attempt kernel against a reference attempt.

`_reference_attempt` is the step attempt written as one comprehension
per stage input and a zip loop for the error norm, in the operation
order the generated straight-line kernel must keep. The two are fed the
same state, stages and weights and must agree to the bit: every stage
input and stage time the right-hand side sees, every returned vector,
and the error norm.
"""

import math

import numpy as np
import pytest

from chartprop.integrate import _A, _C, _E, _attempt, _magnitudes


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
