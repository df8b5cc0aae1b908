"""Adaptive Dormand-Prince 5(4) integration with dense output.

The chart ODE systems are small (3 or 8 real unknowns) and non-stiff
for bounded drives, so an explicit embedded pair with PI step control
is the right tool. The integrator is deliberately generic: it works on
flat real vectors and knows nothing about charts except through two
optional callables: error weights, and an escape predicate, which lets
it stop cleanly when a Riccati trajectory runs off its chart.

The stepping loop runs on Python floats and makes no numpy call. It is
one straight-line function that `_loop` generates from the tableau for
each state size and compiles once per process: the state, the stages
and the weights are locals, one per component, and each attempt's six
stages after the first, the error norm, the step control, the escape
test, first-same-as-last, the run counters and the dense-output record
are written inline. Only the set-up before the loop and the dense
output after it run in `_dopri5`. Without error_weight, the loop takes
the weight |y| inline. The 6th and 7th stages of an attempt both run at
t + h, with the same float, so the drive needs sampling only 5 times
per attempt.

A chart's right-hand side (`two_level.chart_rhs`,
`three_level.chart_rhs`) is compiled by `_chart_rhs` from the chart's
rates (`_Rates`), stated once as source lines in real arithmetic. For
such an rhs the loop is generated once more per chart, with those same
lines written inline at each stage, so that a stage makes no call and
builds no complex value, and stage inputs are formed only for the
coordinates the rates read, never for the phases. The drive values
come from one call per attempt of the rhs's stage sampler, which gives
them at the attempt's five distinct stage times as floats, each complex
drive as its real and imaginary part: a Hamiltonian's, which `drives`
generates from the drive formulas, or the oracle's five calls of
`ham.matrix`. The lines repeat CPython's complex arithmetic one
operation at a time, so they keep the bits of the complex forms the
chart equations are written in, and the inline loop gives the bits of
the loop that calls the chart's rhs. The direct-matrix oracle's -i H U
is stated as rates too (`reference._rates`). Any other rhs, such as a
wrapper around a chart's rhs or the rhs of a chart on an object without
a stage sampler, gets the loop that calls it at every stage.
`compile_function` compiles the generated loops, right-hand sides and
the drives' one float code, with math's functions at one t
(`ham.sample`, the stage sampler) and with numpy's on a grid.

Dense output uses the classic 4th-order interpolant attached to the
pair (Hairer, Norsett & Wanner, Solving ODEs I, II.6), exact at both
step endpoints, so requested sample times never trigger extra
right-hand-side evaluations or step-size manipulation. The stepping
loop only records what the interpolant needs from each accepted step
that holds samples, one row per step (t, h, t1 and five vectors)
appended to one flat array('d') by `fromlist`, and finds the next
sample after a step by bisection in a list of the sample times. After
the loop the record is viewed once as a (steps, 3 + 5 d) array, each
sample is assigned to its step by a search on the step ends, and every
sample is evaluated in one vectorized pass over blocks of rows.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# Dormand-Prince 5(4) tableau as Python floats, so that the stepping
# loop does plain float arithmetic. _A[i] holds the weights of stage
# i + 1's input, _C the stage times, _E the (5th minus 4th order) error
# weights including the first-same-as-last stage, _D the dense-output
# weights. The second stage's weight is zero in _A[6], _E and _D, and
# the step loop and the dense-output record leave it out.
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
    called only at t_start: the step loop writes its rates inline, with
    the same bits, and samples the drive once per attempt (see the
    module docstring).
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


class _Rates(NamedTuple):
    """A right-hand side stated as source lines in real arithmetic, from
    which `_chart_rhs` compiles the rhs and `_loop` the step loop with
    the rates written inline at each stage.

    drives names the values a drive sample unpacks into, in order, and
    complex_drives those of them that are complex: the body reads a
    complex drive v only as v_re and v_im, its real and imaginary
    parts. reads names the leading state components the body reads
    (trailing ones, such as a chart's phases, are never read), body is
    the body's source lines, and derivatives holds one expression per
    component. No name starts with an underscore, and the body assigns
    no drive name.
    """

    drives: str
    complex_drives: str
    reads: str
    body: str
    derivatives: tuple


def _drive_values(rates):
    # the names of a drive sample's values as floats, in order: each
    # complex drive v split into v_re and v_im
    split = set(_names(rates.complex_drives))
    return [part for name in _names(rates.drives)
            for part in ((f"{name}_re", f"{name}_im") if name in split
                         else (name,))]


def _names(text):
    # the names of a comma-separated list, "" giving none
    return [name.strip() for name in text.split(",") if name.strip()]


def _indented(body, depth):
    # the lines of a rates body, each indented by `depth` spaces
    return [" " * depth + line.strip()
            for line in body.strip().splitlines()]


def _stage_time(c):
    # the source of the stage time t + c h, as the loop writes it
    return "_t + _h" if c == 1.0 else f"_t + {c!r} * _h"


# The distinct stage times of an attempt after its first, t + c h for c
# in _NODES: the 6th and 7th stages both run at t + h.
_NODES = _C[1:6]


# The step loop that `_loop` generates, with its blocks and constants as
# placeholders: {attempt} holds the stages of an attempt, {magnitudes}
# the default weight |y1| and {norm} the error terms.
_LOOP = '''\
def dopri5(_rhs, _weight, _escape, _t, _t_end, _h, _h_floor, _max_step,
           _max_steps, _abs_tol, _rel_tol, _y, _k1, _w, _grid, _record):
    {y}, = _y
    {p1}, = _k1
    {w}, = _w
    _stages = getattr(_rhs, "stages", None)  # with rates only
    _unweighted = _weight is magnitudes
    _n_grid = len(_grid)
    _next_sample = 1  # grid[0] == t needs no step
    _next_time = _grid[1]
    _facold = 1e-4
    _just_rejected = False
    _status = _singularity_time = None
    _attempts = _accepted = _error_rejections = 0
    _nonfinite_retries = _escape_halvings = 0
    _smallest = inf
    _largest = 0.0
    while True:
        if _t >= _t_end:
            _status = "completed"
            break
        if _attempts >= _max_steps:
            _status = "step_limit"
            break
        _attempts += 1
        # h = min(h, max_step, t_end - t)
        if _max_step < _h:
            _h = _max_step
        _rest = _t_end - _t
        if _rest < _h:
            _h = _rest
        _hits_end = _h == _rest
{attempt}
        if _unweighted:
{magnitudes}
        else:
            {v}, = _weight(_y1)
        try:
{norm}
        except ZeroDivisionError:
            _err = nan
        else:
            _err = (sqrt(({squares}) / {size}) if isfinite({scales})
                    else nan)
        # err is a square root or nan, so `< inf` tests its finiteness
        if not _err < inf:
            # A wild stage (often overflow past a blow-up) poisons the
            # estimate; shrink hard and retry.
            _h *= 0.1
            _just_rejected = True
            _nonfinite_retries += 1
            if _h < _h_floor:
                raise NonFiniteDerivativeError(_t)
            continue
        if _err > 1.0:
            # h / min(FAC_MAX, err ** EXPO / SAFETY)
            _fac = _err ** {expo} / {safety}
            _h = _h / (_fac if _fac < {fac_max} else {fac_max})
            _just_rejected = True
            _error_rejections += 1
            if _h < _h_floor:
                raise IntegrationError("step size underflow at t = "
                                       + format(_t, ".12g"))
            continue
        if _escape is not None and _escape(_y1):
            # The step is accurate but lands outside the chart. Halve
            # until a step stays inside; if none does, the blow-up is
            # bracketed within [t, t + h] and we stop here.
            if _h <= 2.0 * _h_floor:
                _status = "singularity"
                _singularity_time = _t
                break
            _h *= 0.5
            _just_rejected = True
            _escape_halvings += 1
            continue
        _t1 = _t_end if _hits_end else _t + _h
        if _t1 == _t:
            # h is below the spacing of the doubles at t: the step would
            # move y but not t.
            raise IntegrationError("step size underflow at t = "
                                   + format(_t, ".12g"))
        # step accepted
        _accepted += 1
        if _h < _smallest:
            _smallest = _h
        if _h > _largest:
            _largest = _h
        if _t1 >= _next_time:
            _record.fromlist([_t, _h, _t1, {y}, {r}, {p1}, {p7}, {dense}])
            _next_sample = bisect_right(_grid, _t1)
            _next_time = (_grid[_next_sample] if _next_sample < _n_grid
                          else inf)
        # min(FAC_MAX, max(FAC_MIN, err ** EXPO / facold ** BETA / SAFETY))
        _fac = _err ** {expo} / _facold ** {beta} / {safety}
        _fac = _fac if _fac > {fac_min} else {fac_min}
        _fac = _fac if _fac < {fac_max} else {fac_max}
        _h_next = _h / _fac
        if _just_rejected and _h < _h_next:
            _h_next = _h
        _facold = 1e-4 if 1e-4 > _err else _err  # max(err, 1e-4)
        _just_rejected = False
        {y} = {r}
        {w} = {v}
        {p1} = {p7}  # first-same-as-last
        _t = _t1
        _h = _h_next
    return (_status, _singularity_time, _t, [{y}], _next_sample, _attempts,
            _accepted, _error_rejections, _nonfinite_retries,
            _escape_halvings, _smallest, _largest)
'''


@functools.cache
def _loop(size, rates=None):
    """The DOPRI5 step loop on states of `size` components, generated
    and compiled once per size, and once more per `rates` (of a chart,
    or of the oracle).

    dopri5(rhs, weight, escape, t, t_end, h, h_floor, max_step,
    max_steps, abs_tol, rel_tol, y, k1, w, grid, record) steps from
    (t, y), where k1 = rhs(t, y) and w = weight(y), until t_end, a stop
    or an error. Each accepted step that holds samples of `grid` appends
    one row to `record` with one `fromlist` call, a list being cheaper
    to append than a tuple to extend: t, h, t1, then y, y1, k1, k7 and
    the _D-weighted sum of the stages (see `_dense_rows`); bisect_right
    in grid finds the first sample after it. It returns (status,
    singularity_time, t, y, next_sample, attempts, accepted,
    error_rejections, nonfinite_retries, escape_halvings, smallest_step,
    largest_step): the run's end, the index in grid of the first sample
    not reached, and the counters.

    The code is `_LOOP` with its blocks filled in. The state, the
    stages k1..k7 and the weights are locals, one per component (_y_0,
    _p3_5, _w_2, ...), which on 3 to 18 components costs about half of
    a loop over zip(); first-same-as-last, the step control, the escape
    test and the counters are written inline, the min and max of the
    step control as comparisons that pick the same float. Component i
    of a stage input is
    y_i + h * (a1 * p1_i + a2 * p2_i + ...) over the stage's nonzero _A
    weights in order, and the error term is h * (e1 * p1_i + ...) / s_i
    with the nonzero _E weights; each weight is written with repr,
    which gives back the same float. The error norm is the RMS of the
    error terms against the scale s_i = abs_tol + rel_tol * max(w_i,
    w1_i), w1 = weight(y1), componentwise. With the default weight
    (`_magnitudes`) w1 is |y1| taken inline, the same floats as the
    call. Unpacking makes a stage or a weight of the wrong length raise
    ValueError, the first weight before the first attempt. An infinite weight would scale the error away, so a
    non-finite scale fails the attempt, as a wild stage does; so does a
    zero scale, which only a negative weight can give.

    Without `rates` each stage is a call of rhs. With them, the rates
    (a `_Rates`) are written inline at each stage instead: one call of
    rhs.stages at the start of each attempt gives the drive values at
    its five distinct stage times, a stage input is formed only for
    the components the rates read, and a stage makes no call. Both give
    the same bits, as the inline rates are the very lines the rhs runs.
    The loop's own names all start with an underscore, and the rates'
    names do not, so the two never meet; the drive values of the j-th
    stage time are the rates' names prefixed _dj_. The source is
    registered with linecache under the filename "<dopri5 loop
    d=size>", with ", inlined rates" appended for rates, so tracebacks
    show its lines.
    """
    def names(prefix):
        return ", ".join(f"_{prefix}_{i}" for i in range(size))

    def combination(weights, i):
        return " + ".join(f"{c!r} * _p{j}_{i}"
                          for j, c in enumerate(weights, 1) if c != 0.0)

    def stage_input(weights, i):
        return f"_y_{i} + _h * ({combination(weights, i)})"

    if rates is not None:
        reads = _names(rates.reads)
        body = [line for line in _indented(rates.body, 8)
                if not line.lstrip().startswith("#")]
        values = _drive_values(rates)
        # a drive value's name in the rates, as a whole word
        value_name = re.compile(r"\b(%s)\b" % "|".join(values))

    def at(j, line):
        # a line of the rates reading the drive values of stage time j
        return value_name.sub(rf"_d{j}_\1", line)

    def stage(k, inputs, vector):
        # stage k at time t + _C[k - 1] * h: a call of rhs on `vector`,
        # or the inline rates on the expressions `inputs` of its components
        c = _C[k - 1]
        if rates is None:
            return [f"        {names(f'p{k}')}, = _rhs({_stage_time(c)}, "
                    f"{vector})"]
        j = _NODES.index(c)
        return ([f"        {name} = {value}"
                 for name, value in zip(reads, inputs)]
                + [at(j, line) for line in body]
                + [f"        _p{k}_{i} = {at(j, derivative)}"
                   for i, derivative in enumerate(rates.derivatives)])

    attempt = []
    if rates is not None:
        stage_values = ", ".join(f"_d{j}_{name}" for j in range(len(_NODES))
                                 for name in values)
        times = ", ".join(_stage_time(c) for c in _NODES)
        attempt.append(f"        {stage_values}, = _stages({times})")
    for k in range(2, 7):
        inputs = [stage_input(_A[k - 1], i) for i in range(size)]
        attempt += stage(k, inputs, f"[{', '.join(inputs)}]")
    # the 7th stage input is the 5th-order result y1
    attempt += [f"        _r_{i} = {stage_input(_A[6], i)}"
                for i in range(size)]
    attempt.append(f"        _y1 = [{names('r')}]")
    attempt += stage(7, [f"_r_{i}" for i in range(size)], "_y1")
    norm = [line for i in range(size) for line in (
        f"            _s_{i} = _abs_tol + _rel_tol * "
        f"(_w_{i} if _w_{i} > _v_{i} else _v_{i})",
        f"            _q_{i} = _h * ({combination(_E, i)}) / _s_{i}")]
    source = _LOOP.format(
        y=names("y"), p1=names("p1"), p7=names("p7"), w=names("w"),
        v=names("v"), r=names("r"), size=size, attempt="\n".join(attempt),
        magnitudes="\n".join(f"            _v_{i} = abs(_r_{i})"
                             for i in range(size)),
        norm="\n".join(norm),
        squares=" + ".join(f"_q_{i} * _q_{i}" for i in range(size)),
        scales=" + ".join(f"_s_{i}" for i in range(size)),
        dense=", ".join(" + ".join(f"{c!r} * _p{k}_{i}"
                                   for k, c in enumerate(_D, 1) if c != 0.0)
                        for i in range(size)),
        expo=repr(_EXPO), beta=repr(_BETA), safety=repr(_SAFETY),
        fac_min=repr(_FAC_MIN), fac_max=repr(_FAC_MAX))
    inlined = "" if rates is None else ", inlined rates"
    return compile_function(
        source, f"<dopri5 loop d={size}{inlined}>", "dopri5",
        {"sqrt": math.sqrt, "isfinite": math.isfinite, "nan": math.nan,
         "inf": math.inf, "bisect_right": bisect_right,
         "magnitudes": _magnitudes, "IntegrationError": IntegrationError,
         "NonFiniteDerivativeError": NonFiniteDerivativeError})


@functools.cache
def _rhs_factory(rates):
    # factory(sample) -> rhs(t, vec) for rates, generated and compiled
    # once per rates (see `_chart_rhs`)
    unread = len(rates.derivatives) - len(_names(rates.reads))
    source = "\n".join([
        "def factory(_sample):",
        "    _last_t = _last = None",
        "",
        "    def rhs(_t, _vec):",
        "        nonlocal _last_t, _last",
        "        if _t != _last_t:",
        "            _last = _sample(_t)",
        "            _last_t = _t",
        f"        {rates.drives}, = _last",
        *(f"        {name}_re = {name}.real\n        {name}_im = {name}.imag"
          for name in _names(rates.complex_drives)),
        f"        {rates.reads}{', _' * unread}, = _vec",
        *_indented(rates.body, 8),
        f"        return {', '.join(rates.derivatives)}",
        "    return rhs",
        ""])
    return compile_function(
        source, f"<chart rhs d={len(rates.derivatives)}>", "factory", {})


def _chart_rhs(rates, sample, stages=None):
    """The flat-vector rhs(t, vec) of `rates` (a `_Rates`), a chart's or
    the oracle's, on the drive sampler `sample`.

    rhs returns the derivatives as a tuple of floats. It calls sample
    once per distinct t: it keeps the (t, sample) pair of its last call,
    since the 6th and 7th stages of a DOPRI5 attempt both run at t + h.
    That is exact, as a sample depends on t alone, and a sample that
    raises leaves the pair as it was. The code is compiled once per
    rates and registered with linecache under the filename "<chart rhs
    d=size>".

    With a stage sampler, rhs carries `rates` and `stages` as
    attributes, by which `integrate` takes the step loop with the rates
    inline. stages(t_0, ..., t_4) gives in one flat sequence what
    sample gives at each of the five times, each complex drive as its
    real and imaginary part, with the same bits and the same errors.
    """
    rhs = _rhs_factory(rates)(sample)
    if stages is not None:
        rhs.rates = rates
        rhs.stages = stages
    return rhs


def _dopri5(rhs, initial, t_start, t_end, settings, samples, escape,
            error_weight):
    # `integrate` inside its errstate: the set-up of the generated step
    # loop (`_loop`) for the state size, and for an rhs of rates the
    # rates, then the trajectory from its record.
    span = t_end - t_start
    size = initial.size
    y = initial.tolist()
    # one row per accepted step that holds samples (see `_dense_rows`)
    record = array("d")

    k1 = rhs(t_start, y)
    if np.shape(k1) != (size,):
        raise ValueError(f"rhs returned shape {np.shape(k1)}, "
                         f"expected ({size},)")
    if not np.all(np.isfinite(k1)):
        raise NonFiniteDerivativeError(t_start)

    # The first step is at least the spacing of the doubles at t_start,
    # so that a tiny initial_step still moves t; the controller grows it.
    h = min(max(settings.initial_step, math.ulp(t_start)), settings.max_step,
            span)
    # w is the error weight of y, carried from step to step. The error
    # norm's comparison passes a NaN in w1 on to the scale but drops
    # one in w; w1 is checked before it becomes w, so only the first w
    # can hold a NaN, and as inf it fails every attempt the same way.
    weight = _magnitudes if error_weight is None else error_weight
    w = [v if v == v else math.inf for v in weight(y)]

    # an rhs of rates (`_chart_rhs`) gets the loop with them inline
    loop = _loop(size, getattr(rhs, "rates", None))
    (status, singularity_time, t, y, next_sample, attempts, accepted,
     error_rejections, nonfinite_retries, escape_halvings, smallest_step,
     largest_step) = loop(rhs, weight, escape, t_start, t_end, h,
                          1e-12 * span, settings.max_step, settings.max_steps,
                          settings.abs_tol, settings.rel_tol, y, k1, w,
                          samples.tolist(), record)

    # An early stop (singularity, step limit) between two samples closes
    # the trajectory with the last committed state.
    closing = bool(samples[next_sample - 1] != t)
    times = samples[:next_sample + closing].copy()
    times[0] = t_start
    states = np.empty((len(times), size))
    states[0] = initial
    _dense_rows(record, samples[1:next_sample], states[1:next_sample])
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


def _dense_rows(record, sample_times, out):
    """Evaluate the dense output of the recorded steps at sample_times.

    record is that of `_dopri5`, one row of 3 + 5 d floats per step, and
    out gets one row per sample. A sample belongs to the first recorded
    step that ends at or after it, found by searching the t1 column:
    steps between recorded ones hold no sample, and a sample on a step
    end belongs to the step that ends there and gets its own result y1.
    Every operation is the elementwise one a per-step evaluation makes,
    so the rows are the same to the bit. Rows are computed in blocks,
    which bounds the temporaries.
    """
    size = out.shape[1]
    steps = np.frombuffer(record).reshape(-1, 3 + 5 * size)
    step_of = np.searchsorted(steps[:, 2], sample_times)
    for lo in range(0, len(sample_times), _DENSE_BLOCK):
        block = slice(lo, lo + _DENSE_BLOCK)
        s = sample_times[block]
        row = steps[step_of[block]]
        t0, h, t1 = row[:, :3].T
        start, end, k0, k6, dk = row[:, 3:].reshape(-1, 5, size).transpose(
            1, 0, 2)
        hi = h[:, None]
        th = ((s - t0) / h)[:, None]
        delta = end - start
        bspl = hi * k0 - delta
        cont4 = delta - hi * k6 - bspl
        cont5 = hi * dk
        rows = start + th * (delta + (1.0 - th) * (
            bspl + th * (cont4 + (1.0 - th) * cont5)))
        on_end = s == t1
        rows[on_end] = end[on_end]
        out[block] = rows
