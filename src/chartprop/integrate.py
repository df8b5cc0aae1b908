"""Adaptive Dormand-Prince 5(4) integration with dense output.

The chart ODE systems are small (3 or 8 real unknowns) and non-stiff
for bounded drives, so an explicit embedded pair with PI step control
is the right tool. The integrator is deliberately generic: it works on
flat real vectors and knows nothing about charts except through two
optional callables: error weights, and an escape predicate, which lets
it stop cleanly when a Riccati trajectory runs off its chart.

The stepping loop runs on Python floats and makes no numpy call. One
step attempt, the six stages after the first and the error norm, is a
straight-line function that `_attempt` generates from the tableau for
each state size and compiles once per process; the loop around it
keeps the step control, the escape test, first-same-as-last, the run
counters and the dense-output record. Without error_weight, the
attempt takes the weight |y| inline. The 6th and 7th stages of an
attempt both run at t + h, with the same float, so the drive needs
sampling only 5 times per attempt.

A chart's right-hand side (`two_level.chart_rhs`,
`three_level.chart_rhs`) is compiled by `_chart_rhs` from the chart's
rates, stated once as source lines in real arithmetic. For such an
rhs the attempt is generated once more per chart, with those same
lines written inline at each stage, so that a stage makes no call but
the drive sample and builds no complex value: it samples the drive
once per distinct stage time and forms stage inputs only for the
coordinates the rates read, never for the phases. The lines repeat
CPython's complex arithmetic one operation at a time, so they keep the
bits of the complex forms the chart equations are written in, and the
inline attempt gives the bits of the attempt that calls the chart's
rhs. The direct-matrix oracle's -i H U is stated as rates too
(`reference._rates`). Any other rhs, such as a wrapper around a chart's
rhs, gets the attempt that calls it at every stage. `compile_function`
compiles the generated attempts, right-hand sides and drive samplers.

Dense output uses the classic 4th-order interpolant attached to the
pair (Hairer, Norsett & Wanner, Solving ODEs I, II.6), exact at both
step endpoints, so requested sample times never trigger extra
right-hand-side evaluations or step-size manipulation. The stepping
loop only records what the interpolant needs from each accepted step
that holds samples, appending it to one flat array('d') and finding
the step's samples by bisection in a list of the sample times. After
the loop the record is viewed once as a (5, steps, d) array, and every
sample is evaluated in one vectorized pass over blocks of rows.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Dormand-Prince 5(4) tableau as Python floats, so that the stepping
# loop does plain float arithmetic. _A[i] holds the weights of stage
# i + 1's input, _C the stage times, _E the (5th minus 4th order) error
# weights including the first-same-as-last stage, _D the dense-output
# weights. The second stage's weight is zero in _A[6], _E and _D, and
# the attempt kernel and the dense-output record leave it out.
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
        # A count of attempts, stored as an int: an infinite budget lets
        # a run never end, and a fractional one or a bool is no count.
        try:
            max_steps = operator.index(self.max_steps)
        except TypeError:
            max_steps = 0
        if isinstance(self.max_steps, bool) or max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, "
                             f"got {self.max_steps!r}")
        object.__setattr__(self, "max_steps", max_steps)


@dataclass(frozen=True)
class IntegrationStats:
    """What one integration run cost, counted in the stepping loop.

    Every attempt evaluates the six stages after the first, and the
    run evaluates the first stage once, so rhs_calls, the count of stage
    evaluations, is always 1 + 6 * attempts, whether the attempt calls
    rhs at each stage or writes a chart's rates inline. An attempt ends
    in exactly one of: an accepted step, an error rejection, a retry
    after a non-finite error estimate or weight, an escape halving, or,
    once, the stop that brackets a chart singularity. smallest_step and
    largest_step span the accepted steps, the shortened last one
    included; both are None when no step was accepted.
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
    stats: IntegrationStats
    singularity_time: Optional[float] = None

    def require_completed(self) -> "Trajectory":
        if self.status == "singularity":
            raise ChartSingularityError(self.singularity_time)
        if self.status == "step_limit":
            raise StepLimitError(float(self.times[-1]))
        return self


def steps_stall(t_start, t_end, max_step) -> bool:
    """Whether no step of at most max_step can carry t across [t_start,
    t_end]: t_far + 4 * max_step == t_far at t_far = max(|t_start|,
    |t_end|). max_step is then at most a quarter of the spacing of the
    doubles from t_far / 2 to t_far, so t + h rounds to t there. The
    factor 4 keeps windows that end at a power of 2, where the doubles
    below are twice as dense, from being rejected."""
    t_far = max(abs(t_start), abs(t_end))
    return t_far + 4.0 * max_step == t_far


def integrate(rhs, initial, t_start, t_end, settings: IntegratorSettings,
              sample_times, escape=None, error_weight=None) -> Trajectory:
    """Propagate d/dt y = rhs(t, y) from t_start to t_end.

    The step loop runs on Python floats, which on states of a few
    components costs a fraction of the equivalent numpy calls. So
    rhs(t, y) receives y as a list of d Python floats and returns a
    sequence of d reals: a tuple or a list, or a 1-D array, which works
    but is slower. escape and error_weight receive the same list, and
    an rhs or error_weight result of another length than d raises
    ValueError. A chart's own `chart_rhs`, or the oracle's rhs, is
    called only at t_start: the step attempts write its rates inline,
    with the same bits (see the module docstring).
    sample_times must lie within [t_start, t_end]; t_start and t_end
    are always included in the output grid. A max_step too small to
    move t on the window (`steps_stall`) raises ValueError. The first
    step is initial_step, raised to the spacing of the doubles at
    t_start where it is smaller. A step that error rejections shrink
    below 1e-12 of the window, or one that passes but whose t + h rounds
    back to t, raises IntegrationError (step size underflow) instead of
    being counted. escape, if given, is a predicate on the flat state;
    the run stops with singularity status once only escaping steps
    remain, bracketing the blow-up within one tiny step.

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
    if steps_stall(t_start, t_end, settings.max_step):
        raise ValueError(f"max_step {settings.max_step!r} is too small to "
                         f"move t on [{t_start!r}, {t_end!r}]")

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


def compile_function(source, filename, name, namespace):
    """The function `name` that generated `source` defines, compiled with
    `namespace` as its globals.

    The source is registered with linecache under `filename`, a name in
    angle brackets that names no file, so tracebacks show its lines.
    """
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _magnitudes(y):
    # The error weight of a run without error_weight.
    return [abs(v) for v in y]


def _indented(body, depth):
    # the lines of a rates body, each indented by `depth` spaces
    return [" " * depth + line.strip()
            for line in body.strip().splitlines()]


@functools.cache
def _attempt(size, rates=None):
    """The DOPRI5 step attempt on states of `size` components, generated
    and compiled once per size, and once more per `rates` (of a chart,
    or of the oracle).

    attempt(rhs, weight, t, h, y, k1, w, abs_tol, rel_tol) evaluates the
    stages k2..k7 of a step of size h from (t, y), where k1 = rhs(t, y)
    and w = weight(y). It returns (y1, w1, k3, k4, k5, k6, k7, err): the
    5th-order result y1, its weight w1 = weight(y1), the stages the dense
    output needs, and the RMS norm of the error estimate against the
    scale abs_tol + rel_tol * max(w, w1), componentwise.

    The body is straight-line code with one local per stage and
    component (_y_0, _p3_5, ...), which on 3 to 18 components costs about
    half of a loop over zip(). Component i of a stage input is
    y_i + h * (a1 * p1_i + a2 * p2_i + ...) over the stage's nonzero _A
    weights in order, and the error term is h * (e1 * p1_i + ...) / s_i
    with the nonzero _E weights; each weight is written with repr, which
    gives back the same float. With the default weight (`_magnitudes`)
    w1 is |y1| taken inline, the same floats as the call. Unpacking makes
    a stage or a weight of the wrong length raise ValueError. An
    infinite weight would scale the error away, so a non-finite scale
    gives err = nan, as a wild stage does; so does a zero scale, which
    only a negative weight can give.

    Without `rates` each stage is a call of rhs. With them, the attempt
    of an rhs of rates (see `_chart_rhs`) writes the rates inline at
    each stage instead: rhs.sample(t) runs once per distinct stage time,
    5 times per attempt, since the 6th and 7th stages share t + h, and a
    stage input is formed only for the components the rates read. Both
    give the same bits, as the inline rates are the very lines the rhs
    runs. rates is (drives, reads, body, derivatives): the names
    `drives` unpacks rhs.sample(t) into, the names of the leading state
    components the body reads (trailing ones, such as a chart's phases,
    are never read), the body's source lines, and one expression per
    component for the derivative. The kernel's own names all start with
    an underscore, and the rates' names do not, so the two never meet;
    the body assigns no drive name, as the 7th stage reuses the 6th's.
    The source is registered with linecache under the filename
    "<dopri5 attempt d=size>", with ", inlined rates" appended for
    rates, so tracebacks show its lines.
    """
    def names(prefix):
        return ", ".join(f"_{prefix}_{i}" for i in range(size))

    def combination(weights, i):
        return " + ".join(f"{c!r} * _p{j}_{i}"
                          for j, c in enumerate(weights, 1) if c != 0.0)

    def stage_input(weights, i):
        return f"_y_{i} + _h * ({combination(weights, i)})"

    if rates is not None:
        drives, reads, body, derivatives = rates
        reads = [name.strip() for name in reads.split(",")]
        body = _indented(body, 4)

    def stage(k, inputs, vector):
        # stage k at time t + _C[k - 1] * h: a call of rhs on `vector`,
        # or the inline rates on the expressions `inputs` of its components
        c = _C[k - 1]
        at = "_t + _h" if c == 1.0 else f"_t + {c!r} * _h"
        if rates is None:
            return [f"    _k{k} = _rhs({at}, {vector})",
                    f"    {names(f'p{k}')}, = _k{k}"]
        lines = []
        if c != _C[k - 2]:
            lines.append(f"    {drives} = _sample({at})")
        lines += [f"    {name} = {value}"
                  for name, value in zip(reads, inputs)]
        lines += body
        lines += [f"    _p{k}_{i} = {derivative}"
                  for i, derivative in enumerate(derivatives)]
        if k > 2:
            lines.append(f"    _k{k} = ({names(f'p{k}')},)")
        return lines

    lines = ["def attempt(_rhs, _weight, _t, _h, _y, _k1, _w, _abs_tol, "
             "_rel_tol):"]
    if rates is not None:
        lines.append("    _sample = _rhs.sample")
    lines += [f"    {names('y')}, = _y",
              f"    {names('p1')}, = _k1"]
    for k in range(2, 7):
        inputs = [stage_input(_A[k - 1], i) for i in range(size)]
        lines += stage(k, inputs, f"[{', '.join(inputs)}]")
    # the 7th stage input is the 5th-order result
    lines += [f"    _r_{i} = {stage_input(_A[6], i)}" for i in range(size)]
    lines.append(f"    _y1 = [{names('r')}]")
    lines += stage(7, [f"_r_{i}" for i in range(size)], "_y1")
    lines += ["    if _weight is magnitudes:",
              *(f"        _v_{i} = abs(_r_{i})" for i in range(size)),
              f"        _w1 = [{names('v')}]",
              "    else:",
              "        _w1 = _weight(_y1)",
              f"        {names('v')}, = _w1",
              f"    {names('w')}, = _w",
              "    try:"]
    for i in range(size):
        lines += [f"        _s_{i} = _abs_tol + _rel_tol * "
                  f"(_w_{i} if _w_{i} > _v_{i} else _v_{i})",
                  f"        _q_{i} = _h * ({combination(_E, i)}) / _s_{i}"]
    squares = " + ".join(f"_q_{i} * _q_{i}" for i in range(size))
    scales = " + ".join(f"_s_{i}" for i in range(size))
    lines += ["    except ZeroDivisionError:",
              "        _err = nan",
              "    else:",
              f"        _err = sqrt(({squares}) / {size}) "
              f"if isfinite({scales}) else nan",
              "    return _y1, _w1, _k3, _k4, _k5, _k6, _k7, _err"]
    inlined = "" if rates is None else ", inlined rates"
    return compile_function("\n".join(lines) + "\n",
                            f"<dopri5 attempt d={size}{inlined}>", "attempt",
                            {"sqrt": math.sqrt, "isfinite": math.isfinite,
                             "nan": math.nan, "magnitudes": _magnitudes})


@functools.cache
def _rhs_factory(rates):
    # factory(sample) -> rhs(t, vec) for rates, generated and compiled
    # once per rates (see `_chart_rhs`)
    drives, reads, body, derivatives = rates
    unread = len(derivatives) - len(reads.split(","))
    source = "\n".join([
        "def factory(_sample):",
        "    _last_t = _last = None",
        "",
        "    def rhs(_t, _vec):",
        "        nonlocal _last_t, _last",
        "        if _t != _last_t:",
        "            _last = _sample(_t)",
        "            _last_t = _t",
        f"        {drives} = _last",
        f"        {reads}{', _' * unread}, = _vec",
        *_indented(body, 8),
        f"        return {', '.join(derivatives)}",
        "    return rhs",
        ""])
    return compile_function(source, f"<chart rhs d={len(derivatives)}>",
                            "factory", {})


def _chart_rhs(rates, sample):
    """The flat-vector rhs(t, vec) of `rates` (see `_attempt`), a chart's
    or the oracle's, on the drive sampler `sample`.

    rhs returns the derivatives as a tuple of floats. It calls sample
    once per distinct t: it keeps the (t, sample) pair of its last call,
    since the 6th and 7th stages of a DOPRI5 attempt both run at t + h.
    That is exact, as a sample depends on t alone, and a sample that
    raises leaves the pair as it was. rhs carries `rates` and `sample`
    as attributes, by which `integrate` takes the attempt with the rates
    inline. The code is compiled once per rates and registered with
    linecache under the filename "<chart rhs d=size>".
    """
    rhs = _rhs_factory(rates)(sample)
    rhs.rates = rates
    rhs.sample = sample
    return rhs


def _dopri5(rhs, initial, t_start, t_end, settings, samples, escape,
            error_weight):
    # The stepping loop of `integrate`, run inside its errstate. The
    # state, the stages k1..k7 and the weights are sequences of Python
    # floats, and each step attempt is one call of the generated
    # `_attempt` for the state size, and for an rhs of rates the rates.
    d1, _, d3, d4, d5, d6, d7 = _D
    abs_tol = settings.abs_tol
    rel_tol = settings.rel_tol
    max_step = settings.max_step

    span = t_end - t_start
    size = initial.size
    y = initial.tolist()
    grid = samples.tolist()
    # Per accepted step that holds samples, in order: its sample count,
    # t, h and t1 in `steps`, and the vectors its interpolant needs in
    # `record` (y, y1, k1, k7 and the _D-weighted sum of the stages),
    # one after the other.
    steps = []
    record = array("d")
    next_sample = 1  # samples[0] == t_start needs no step
    next_time = grid[1]  # samples holds t_start < t_end

    k1 = rhs(t_start, y)
    if np.shape(k1) != (size,):
        raise ValueError(f"rhs returned shape {np.shape(k1)}, "
                         f"expected ({size},)")
    if not np.all(np.isfinite(k1)):
        raise NonFiniteDerivativeError(t_start)
    # an rhs of rates (`_chart_rhs`) gets the attempt with them inline
    attempt = _attempt(size, getattr(rhs, "rates", None))

    # The first step is at least the spacing of the doubles at t_start,
    # so that a tiny initial_step still moves t; the controller grows it.
    h = min(max(settings.initial_step, math.ulp(t_start)), max_step, span)
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

        y1, w1, k3, k4, k5, k6, k7, err = attempt(
            rhs, weight, t, h, y, k1, w, abs_tol, rel_tol)

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

        t1 = t_end if hits_end else t + h
        if t1 == t:
            # h is below the spacing of the doubles at t: the step would
            # move y but not t.
            raise IntegrationError(f"step size underflow at t = {t:.12g}")

        # step accepted
        accepted += 1
        if h < smallest_step:
            smallest_step = h
        if h > largest_step:
            largest_step = h
        if t1 >= next_time:
            end = bisect_right(grid, t1)
            record.extend(y)
            record.extend(y1)
            record.extend(k1)
            record.extend(k7)
            record.extend(
                [d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * p7
                 for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)])
            steps.append((end - next_sample, t, h, t1))
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
    # (5, steps, size): the record's vectors by kind, then by step
    record = np.frombuffer(record).reshape(-1, 5, size).transpose(1, 0, 2)
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
