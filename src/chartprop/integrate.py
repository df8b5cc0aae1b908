"""Adaptive Dormand-Prince 5(4) integration with dense output.

The chart ODE systems are small (3 or 8 real unknowns) and non-stiff
for bounded drives, so an explicit embedded pair with PI step control
is the right tool. The integrator is deliberately generic: it works on
flat real vectors and knows nothing about charts except through an
optional escape predicate, which lets it stop cleanly when a Riccati
trajectory runs off its coordinate chart.

Dense output uses the classic 4th-order interpolant attached to the
pair (Hairer, Norsett & Wanner, Solving ODEs I, II.6), exact at both
step endpoints, so requested sample times never trigger extra
right-hand-side evaluations or step-size manipulation. The stepping
loop only records what the interpolant needs from each accepted step
that holds samples; every sample is evaluated once, after the loop, in
one vectorized pass over blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Dormand-Prince 5(4) tableau as Python floats, so that the stepping
# loop does plain float arithmetic. _A[i] holds the weights of stage
# i + 1's input, _C the stage times, _E the (5th minus 4th order) error
# weights including the first-same-as-last stage, _D the dense-output
# weights. The second stage's weight is zero in _A[6], _E and _D, and
# the loop leaves it out.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
      -17253 / 339200, 22 / 525, -1 / 40)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)

# PI controller constants (step exponent 1/5 with 0.04 Lund stabilization).
_EXPO = 0.17
_BETA = 0.04
_SAFETY = 0.9
_FAC_MIN = 0.1   # strongest allowed shrink of h/h_new
_FAC_MAX = 5.0   # strongest allowed growth of h/h_new


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class _TimedIntegrationError(IntegrationError):
    # A failure at one time; the message is _MESSAGE formatted with it.
    # Pickling and copying rebuild the error from that time, not from
    # the formatted message in args, so it can cross a process boundary.
    _MESSAGE = ""

    def __init__(self, time):
        self.time = time
        super().__init__(self._MESSAGE.format(time))

    def __reduce__(self):
        return type(self), (self.time,), self.__dict__


class ChartSingularityError(_TimedIntegrationError):
    """The trajectory ran off its coordinate chart (Riccati blow-up)."""

    _MESSAGE = "chart singularity near t = {:.12g}"


class StepLimitError(_TimedIntegrationError):
    """The step budget ran out before reaching the end time."""

    _MESSAGE = "step limit hit at t = {:.12g}"


class NonFiniteDerivativeError(_TimedIntegrationError):
    """The right-hand side returned NaN or infinity."""

    _MESSAGE = "non-finite derivative at t = {:.12g}"


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class IntegratorSettings:
    """Step-control parameters.

    initial_step defaults to max_step / 100; the controller adapts
    within a couple of steps anyway, so the starting guess only needs
    the right order of magnitude.
    """

    max_step: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    initial_step: Optional[float] = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        # Finite as well as positive: an infinite tolerance switches
        # error control off, and an infinite step has no size.
        if not (_positive(self.rel_tol) and _positive(self.abs_tol)):
            raise ValueError("tolerances must be finite and positive")
        if not _positive(self.max_step):
            raise ValueError("max_step must be finite and positive")
        if self.initial_step is None:
            object.__setattr__(self, "initial_step", self.max_step / 100.0)
        if not _positive(self.initial_step):
            raise ValueError("initial_step must be finite and positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class IntegrationStats:
    """What one integration run cost, counted in the stepping loop.

    Every attempt evaluates the six stages after the first, and the
    run evaluates the first stage once, so rhs_calls is always
    1 + 6 * attempts. An attempt ends in exactly one of: an accepted
    step, an error rejection, a retry after a non-finite error estimate
    or weight, an escape halving, or, once, the stop that brackets a
    chart singularity. smallest_step and largest_step span the accepted
    steps, the shortened last one included; both are None when no step
    was accepted.
    """

    attempts: int
    accepted: int
    error_rejections: int
    nonfinite_retries: int
    escape_halvings: int
    rhs_calls: int
    smallest_step: Optional[float]
    largest_step: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one integration run.

    times is strictly increasing and starts at t_start. For a completed
    run it ends at t_end; for an early stop (singularity, step limit)
    it ends at the last committed step time and `status` says why.
    stats holds the run's step accounting.
    """

    times: np.ndarray            # (N,)
    states: np.ndarray           # (N, d) flat real states
    status: str                  # "completed" | "singularity" | "step_limit"
    singularity_time: Optional[float] = None
    stats: Optional[IntegrationStats] = None

    def require_completed(self) -> "Trajectory":
        if self.status == "singularity":
            raise ChartSingularityError(self.singularity_time)
        if self.status == "step_limit":
            raise StepLimitError(float(self.times[-1]))
        return self

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(rhs, initial, t_start, t_end, settings: IntegratorSettings,
              sample_times, escape=None, error_weight=None) -> Trajectory:
    """Propagate d/dt y = rhs(t, y) from t_start to t_end.

    The step loop runs on Python floats, which on states of a few
    components costs a fraction of the equivalent numpy calls. So
    rhs(t, y) receives y as a list of d Python floats and returns a
    sequence of d reals: a tuple or a list, or a 1-D array, which works
    but is slower. escape and error_weight receive the same list.
    sample_times must lie within [t_start, t_end]; t_start and t_end
    are always included in the output grid. escape, if given, is a
    predicate on the flat state; the run stops with singularity status
    once only escaping steps remain, bracketing the blow-up within one
    tiny step.

    The error estimate of a step from y to y1 is measured against the
    scale abs_tol + rel_tol * max(|y|, |y1|), componentwise. error_weight,
    if given, maps a flat state to a sequence of d nonnegative
    per-component weights that take the place of |y| there: the scale
    becomes abs_tol + rel_tol * max(w(y), w(y1)). A chart passes how
    little an error in each component moves the operator it stands for,
    so that the tolerances act on the operator rather than on the
    coordinates (Hairer, Norsett & Wanner, Solving ODEs I, II.4). w(y)
    is kept from the previous accepted step, so each attempt makes one
    weight call. A non-finite scale, from a NaN or infinite weight or
    without error_weight an overflowing state, fails the attempt the way
    a non-finite error estimate does: the step shrinks and is retried.

    Floating-point overflow and invalid-operation warnings are
    suppressed for the whole call, rhs and escape included: non-finite
    values are handled explicitly, by shrinking the step or by raising
    NonFiniteDerivativeError. The caller's error state is restored on
    return and on every exception.
    """
    t_start = float(t_start)
    t_end = float(t_end)
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")

    samples = np.unique(np.concatenate(
        (np.asarray(sample_times, dtype=float).ravel(), [t_start, t_end])))
    # np.unique sorts a nan last, where the second comparison fails on it
    if not (samples[0] >= t_start and samples[-1] <= t_end):
        raise ValueError("sample times must lie within [t_start, t_end]")

    y = np.array(initial, dtype=float)
    if y.ndim != 1:
        raise ValueError("initial state must be a flat vector")

    with np.errstate(invalid="ignore", over="ignore"):
        return _dopri5(rhs, y, t_start, t_end, settings, samples, escape,
                       error_weight)


def _magnitudes(y):
    # The error weight of a run without error_weight.
    return [abs(v) for v in y]


def _dopri5(rhs, initial, t_start, t_end, settings, samples, escape,
            error_weight):
    # The stepping loop of `integrate`, run inside its errstate. The
    # state, the stages k1..k7 and the weights are sequences of Python
    # floats; each stage input is one comprehension over the components.
    _, c2, c3, c4, c5, _, _ = _C  # the last two stages sit at t + h
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A[1:]
    e1, _, e3, e4, e5, e6, e7 = _E
    d1, _, d3, d4, d5, d6, d7 = _D
    abs_tol = settings.abs_tol
    rel_tol = settings.rel_tol
    max_step = settings.max_step

    span = t_end - t_start
    size = initial.size
    y = initial.tolist()
    # Per accepted step that holds samples, in order: its sample count,
    # t, h and t1 in `steps`, and the vectors its interpolant needs in
    # `record` (y, y1, k1, k7 and the _D-weighted sum of the stages).
    # `record` starts with room for 1024 steps, or one per sample when
    # there are fewer samples, and doubles when it is full.
    steps = []
    record = np.empty((5, min(len(samples) - 1, 1024), size))
    next_sample = 1  # samples[0] == t_start needs no step
    next_time = float(samples[1])  # samples holds t_start < t_end

    k1 = rhs(t_start, y)
    if np.shape(k1) != (size,):
        raise ValueError(f"rhs returned shape {np.shape(k1)}, "
                         f"expected ({size},)")
    if not np.all(np.isfinite(k1)):
        raise NonFiniteDerivativeError(t_start)

    h = min(settings.initial_step, max_step, span)
    h_floor = 1e-12 * span
    facold = 1e-4
    just_rejected = False
    status = None
    singularity_time = None
    t = t_start
    # Step accounting for IntegrationStats, as plain Python numbers.
    attempts = accepted = error_rejections = nonfinite_retries = 0
    escape_halvings = 0
    smallest_step = math.inf
    largest_step = 0.0
    # w is the error weight of y, carried from step to step. The error
    # norm's comparison passes a NaN in w1 on to the scale but drops
    # one in w; w1 is checked before it becomes w, so only the first w
    # can hold a NaN, and as inf it fails every attempt the same way.
    weight = _magnitudes if error_weight is None else error_weight
    w = [v if v == v else math.inf for v in weight(y)]

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

        k2 = rhs(t + c2 * h, [v + h * (a21 * p1)
                              for v, p1 in zip(y, k1)])
        k3 = rhs(t + c3 * h, [v + h * (a31 * p1 + a32 * p2)
                              for v, p1, p2 in zip(y, k1, k2)])
        k4 = rhs(t + c4 * h, [v + h * (a41 * p1 + a42 * p2 + a43 * p3)
                              for v, p1, p2, p3 in zip(y, k1, k2, k3)])
        k5 = rhs(t + c5 * h, [v + h * (a51 * p1 + a52 * p2 + a53 * p3
                                       + a54 * p4)
                              for v, p1, p2, p3, p4
                              in zip(y, k1, k2, k3, k4)])
        k6 = rhs(t + h, [v + h * (a61 * p1 + a62 * p2 + a63 * p3
                                  + a64 * p4 + a65 * p5)
                         for v, p1, p2, p3, p4, p5
                         in zip(y, k1, k2, k3, k4, k5)])
        # the 7th stage input is the 5th-order result
        y1 = [v + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
              for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = rhs(t + h, y1)

        # RMS norm of the error estimate against its scale. An infinite
        # weight would scale the error away, so a non-finite scale fails
        # the estimate, as a wild stage does; so does a zero scale,
        # which only a negative weight can give.
        w1 = weight(y1)
        total = scale_sum = 0.0
        try:
            for a, b, p1, p3, p4, p5, p6, p7 in zip(w, w1, k1, k3, k4, k5,
                                                    k6, k7):
                scale = abs_tol + rel_tol * (a if a > b else b)
                q = h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                         + e7 * p7) / scale
                total += q * q
                scale_sum += scale
            err = (math.sqrt(total / size) if math.isfinite(scale_sum)
                   else math.nan)
        except ZeroDivisionError:
            err = math.nan

        if not math.isfinite(err):
            # A wild stage (often overflow past a blow-up) poisons the
            # estimate; shrink hard and retry.
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
            # The step is accurate but lands outside the chart. Halve
            # until a step stays inside; if none does, the blow-up is
            # bracketed within [t, t + h] and we stop here.
            if h <= 2.0 * h_floor:
                status = "singularity"
                singularity_time = t
                break
            h *= 0.5
            just_rejected = True
            escape_halvings += 1
            continue

        # step accepted
        accepted += 1
        if h < smallest_step:
            smallest_step = h
        if h > largest_step:
            largest_step = h
        t1 = t_end if hits_end else t + h
        if t1 >= next_time:
            end = int(np.searchsorted(samples, t1, side="right"))
            n = len(steps)
            if n == record.shape[1]:
                record = np.concatenate((record, np.empty_like(record)),
                                        axis=1)
            record[:, n] = (
                y, y1, k1, k7,
                [d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * p7
                 for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)])
            steps.append((end - next_sample, t, h, t1))
            next_sample = end
            next_time = (float(samples[end]) if end < len(samples)
                         else math.inf)

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
        k1 = k7  # first-same-as-last
        t = t1
        h = h_next

    # An early stop (singularity, step limit) between two samples closes
    # the trajectory with the last committed state.
    closing = bool(samples[next_sample - 1] != t)
    times = samples[:next_sample + closing].copy()
    times[0] = t_start
    states = np.empty((len(times), size))
    states[0] = initial
    _dense_rows(steps, record, samples[1:next_sample],
                states[1:next_sample])
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


_DENSE_BLOCK = 256  # sample rows per pass of _dense_rows


def _dense_rows(steps, record, sample_times, out):
    """Evaluate the dense output of the recorded steps at sample_times.

    steps and record are those of `_dopri5`, and out gets one row per
    sample. Every operation is the elementwise one a per-step
    evaluation makes, so the rows are the same to the bit; a sample on
    a step end gets the step's own result y1. Rows are computed in
    blocks, which bounds the temporaries.
    """
    if not steps:
        return
    counts, t0, h, t1 = (np.array(column) for column in zip(*steps))
    step_of = np.repeat(np.arange(len(steps)), counts)
    for lo in range(0, len(sample_times), _DENSE_BLOCK):
        block = slice(lo, lo + _DENSE_BLOCK)
        i = step_of[block]
        s = sample_times[block]
        start, end, k0, k6, dk = record[:, i]
        hi = h[i][:, None]
        th = ((s - t0[i]) / h[i])[:, None]
        delta = end - start
        bspl = hi * k0 - delta
        cont4 = delta - hi * k6 - bspl
        cont5 = hi * dk
        rows = start + th * (delta + (1.0 - th) * (
            bspl + th * (cont4 + (1.0 - th) * cont5)))
        on_end = s == t1[i]
        rows[on_end] = end[on_end]
        out[block] = rows


@dataclass(frozen=True)
class ConvergenceScenario:
    """One integration problem with a trusted answer at t_end.

    reconstruct maps the flat final state to an evolution operator,
    reference is the trusted operator at t_end.
    """

    rhs: object
    initial: np.ndarray
    t_start: float
    t_end: float
    max_step: float
    reconstruct: object
    reference: np.ndarray


def convergence_probe(scenario: ConvergenceScenario, tolerances) -> list:
    """Final-time operator error at each tolerance, tightest last.

    Returns [(tolerance, frobenius_error), ...] sorted loosest first.
    Errors should fall as the tolerance tightens; a flat or rising
    tail signals an accuracy floor or an integrator defect.
    """
    rows = []
    for tol in sorted(tolerances, reverse=True):
        settings = IntegratorSettings(max_step=scenario.max_step,
                                      rel_tol=tol, abs_tol=tol * 1e-3)
        traj = integrate(scenario.rhs, scenario.initial, scenario.t_start,
                         scenario.t_end, settings,
                         [scenario.t_end]).require_completed()
        u = scenario.reconstruct(traj.final_state)
        err = float(np.linalg.norm(u - scenario.reference))
        rows.append((float(tol), err))
    return rows
