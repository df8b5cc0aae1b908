"""A reference DOPRI5 integrator for the generated step loop.

`integrate` here takes the arguments of `chartprop.integrate` and runs
the same method written plainly: a Python `while` loop with min and max
for the step control, and a step attempt with one comprehension per
stage input and a zip loop for the error norm, calling rhs at every
stage. The operation order is the one the generated loop must keep, so
whole runs of the two agree to the bit: times, states, status,
singularity time, stats, and the type and message of any raised error.
The dense-output record is written as the loop writes it, one row per
accepted step that holds samples. The samples then go to their steps
by the count of samples each step holds, not by search, and each is
evaluated on its own in Python floats, whose operations give the bits
of numpy's elementwise ones.
"""

import functools
import itertools
import math
from array import array
from bisect import bisect_right

import numpy as np

from chartprop import (IntegrationError, IntegrationStats,
                       NonFiniteDerivativeError, Trajectory)
from chartprop.integrate import (_A, _BETA, _C, _D, _E, _EXPO, _FAC_MAX,
                                 _FAC_MIN, _SAFETY, _magnitudes, steps_stall)


@functools.cache
def _unpacker(size):
    # unpack(v) -> the list of v's size components, unpacked as the loop
    # does, so that a v of another length raises Python's own ValueError
    names = ", ".join(f"v{i}" for i in range(size))
    namespace = {}
    exec(f"def unpack(v):\n    {names}, = v\n    return [{names}]\n",
         namespace)
    return namespace["unpack"]


def attempt(rhs, weight, t, h, y, k1, w, abs_tol, rel_tol):
    """One step attempt from (t, y), where k1 = rhs(t, y) and w =
    weight(y): (y1, w1, k3, k4, k5, k6, k7, err)."""
    _, c2, c3, c4, c5, _, _ = _C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A[1:]
    e1, _, e3, e4, e5, e6, e7 = _E
    unpack = _unpacker(len(y))
    k2 = unpack(rhs(t + c2 * h, [v + h * (a21 * p1)
                                 for v, p1 in zip(y, k1)]))
    k3 = unpack(rhs(t + c3 * h, [v + h * (a31 * p1 + a32 * p2)
                                 for v, p1, p2 in zip(y, k1, k2)]))
    k4 = unpack(rhs(t + c4 * h, [v + h * (a41 * p1 + a42 * p2 + a43 * p3)
                                 for v, p1, p2, p3 in zip(y, k1, k2, k3)]))
    k5 = unpack(rhs(t + c5 * h, [v + h * (a51 * p1 + a52 * p2 + a53 * p3
                                          + a54 * p4)
                                 for v, p1, p2, p3, p4
                                 in zip(y, k1, k2, k3, k4)]))
    k6 = unpack(rhs(t + h, [v + h * (a61 * p1 + a62 * p2 + a63 * p3
                                     + a64 * p4 + a65 * p5)
                            for v, p1, p2, p3, p4, p5
                            in zip(y, k1, k2, k3, k4, k5)]))
    y1 = [v + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
          for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = unpack(rhs(t + h, y1))
    w1 = unpack(weight(y1))
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


def integrate(rhs, initial, t_start, t_end, settings, sample_times,
              escape=None, error_weight=None):
    """`chartprop.integrate`, with the step loop written plainly."""
    t_start = float(t_start)
    t_end = float(t_end)
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")
    if steps_stall(t_start, t_end, settings.max_step):
        raise ValueError(f"max_step {settings.max_step!r} is too small to "
                         f"move t on [{t_start!r}, {t_end!r}]")
    samples = np.unique(np.concatenate(
        (np.asarray(sample_times, dtype=float).ravel(), [t_start, t_end])))
    if not (samples[0] >= t_start and samples[-1] <= t_end):
        raise ValueError("sample times must lie within [t_start, t_end]")
    initial = np.array(initial, dtype=float)
    if initial.ndim != 1:
        raise ValueError("initial state must be a flat vector")
    with np.errstate(invalid="ignore", over="ignore"):
        return _dopri5(rhs, initial, t_start, t_end, settings, samples,
                       escape, error_weight)


def _dopri5(rhs, initial, t_start, t_end, settings, samples, escape,
            error_weight):
    d1, _, d3, d4, d5, d6, d7 = _D
    abs_tol = settings.abs_tol
    rel_tol = settings.rel_tol
    max_step = settings.max_step

    span = t_end - t_start
    size = initial.size
    y = initial.tolist()
    grid = samples.tolist()
    record = array("d")
    counts = []  # the sample count of each recorded step
    next_sample = 1
    next_time = grid[1]

    k1 = rhs(t_start, y)
    if np.shape(k1) != (size,):
        raise ValueError(f"rhs returned shape {np.shape(k1)}, "
                         f"expected ({size},)")
    if not np.all(np.isfinite(k1)):
        raise NonFiniteDerivativeError(t_start)

    h = min(max(settings.initial_step, math.ulp(t_start)), max_step, span)
    h_floor = 1e-12 * span
    facold = 1e-4
    just_rejected = False
    status = None
    singularity_time = None
    t = t_start
    attempts = accepted = error_rejections = nonfinite_retries = 0
    escape_halvings = 0
    smallest_step = math.inf
    largest_step = 0.0
    weight = _magnitudes if error_weight is None else error_weight
    # the loop unpacks the first weight before its first attempt
    w = _unpacker(size)([v if v == v else math.inf for v in weight(y)])

    while True:
        if t >= t_end:
            status = "completed"
            break
        if attempts >= settings.max_steps:
            status = "step_limit"
            break
        attempts += 1

        h = min(h, max_step, t_end - t)
        hits_end = (h == t_end - t)

        y1, w1, k3, k4, k5, k6, k7, err = attempt(
            rhs, weight, t, h, y, k1, w, abs_tol, rel_tol)

        if not math.isfinite(err):
            h *= 0.1
            just_rejected = True
            nonfinite_retries += 1
            if h < h_floor:
                raise NonFiniteDerivativeError(t)
            continue

        if err > 1.0:
            fac11 = err ** _EXPO
            h = h / min(_FAC_MAX, fac11 / _SAFETY)
            just_rejected = True
            error_rejections += 1
            if h < h_floor:
                raise IntegrationError(f"step size underflow at t = {t:.12g}")
            continue

        if escape is not None and escape(y1):
            if h <= 2.0 * h_floor:
                status = "singularity"
                singularity_time = t
                break
            h *= 0.5
            just_rejected = True
            escape_halvings += 1
            continue

        t1 = t_end if hits_end else t + h
        if t1 == t:
            raise IntegrationError(f"step size underflow at t = {t:.12g}")

        accepted += 1
        if h < smallest_step:
            smallest_step = h
        if h > largest_step:
            largest_step = h
        if t1 >= next_time:
            end = bisect_right(grid, t1)
            record.fromlist(
                [t, h, t1, *y, *y1, *k1, *k7,
                 *(d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * p7
                   for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6,
                                                     k7))])
            counts.append(end - next_sample)
            next_sample = end
            next_time = grid[end] if end < len(grid) else math.inf

        fac11 = err ** _EXPO
        fac = fac11 / (facold ** _BETA)
        fac = min(_FAC_MAX, max(_FAC_MIN, fac / _SAFETY))
        h_next = h / fac
        if just_rejected:
            h_next = min(h_next, h)
        facold = max(err, 1e-4)
        just_rejected = False

        y = y1
        w = w1
        k1 = k7
        t = t1
        h = h_next

    closing = bool(samples[next_sample - 1] != t)
    times = samples[:next_sample + closing].copy()
    times[0] = t_start
    states = np.empty((len(times), size))
    states[0] = initial
    states[1:next_sample] = dense_rows(record, counts, size,
                                       samples[1:next_sample].tolist())
    if closing:
        times[-1] = t
        states[-1] = y
    stats = IntegrationStats(
        attempts=attempts, accepted=accepted,
        error_rejections=error_rejections,
        nonfinite_retries=nonfinite_retries,
        escape_halvings=escape_halvings,
        rhs_calls=1 + 6 * attempts,
        smallest_step=smallest_step if accepted else None,
        largest_step=largest_step if accepted else None)
    return Trajectory(times=times, states=states, status=status,
                      singularity_time=singularity_time, stats=stats)


def dense_rows(record, counts, size, sample_times):
    """The dense output at sample_times, in order: the steps of record
    in turn, counts[i] samples on the i-th, each sample evaluated on its
    step with the interpolant's Horner form, one component at a time. A
    sample on the step's end gets the step's result y1."""
    width = 3 + 5 * size
    times = iter(sample_times)
    rows = []
    for i, count in enumerate(counts):
        t0, h, t1, *vectors = record[i * width:(i + 1) * width]
        start, end, k0, k6, dk = (vectors[j * size:(j + 1) * size]
                                  for j in range(5))
        for s in itertools.islice(times, count):
            if s == t1:
                rows.append(end)
                continue
            th = (s - t0) / h
            row = []
            for a, b, p, q, d in zip(start, end, k0, k6, dk):
                delta = b - a
                bspl = h * p - delta
                cont4 = delta - h * q - bspl
                cont5 = h * d
                row.append(a + th * (delta + (1.0 - th) * (
                    bspl + th * (cont4 + (1.0 - th) * cont5))))
            rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, size)
