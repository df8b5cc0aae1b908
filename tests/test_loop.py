"""The generated DOPRI5 step loop against the reference integrator.

`reference_dopri5.integrate` runs the same method as a plain Python
loop that calls rhs at every stage. Whole runs of `chartprop.integrate`
must agree with it to the bit: times, states, status, singularity time
and stats, or the type and message of the error raised. That holds for
the loop with a chart's or the oracle's rates inline, which samples the
drive through one stage-sampler call per attempt, and for the loop that
calls a wrapped rhs at every stage.
"""

import math

import numpy as np
import pytest

import reference_dopri5
from chartprop import (ConstantDrive, CosineDrive, GaussianDrive,
                       Hamiltonian2, Hamiltonian3, IntegrationError,
                       IntegratorSettings, NonFiniteDerivativeError,
                       PiecewiseDrive, SumDrive, integrate, propagate,
                       three_level, two_level)
from chartprop.integrate import _loop
from chartprop.reference import _schrodinger_rhs

CHARTS = pytest.mark.parametrize("chart", [two_level, three_level],
                                 ids=["two_level", "three_level"])
WEIGHTED = pytest.mark.parametrize("weighted", [False, True],
                                   ids=["plain", "weighted"])


def _outcome(integrator, *args, **kwargs):
    """The run's trajectory as bytes and values, or the error it raised
    as (type, message)."""
    try:
        traj = integrator(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return (traj.times.tobytes(), traj.states.tobytes(), traj.status,
            repr(traj.singularity_time), repr(traj.stats))


def _called(rhs):
    # rhs behind a plain function: integrate then calls it at every stage
    return lambda t, vec: rhs(t, vec)


def assert_runs_match(rhs, initial, t_end, settings, grid, **kwargs):
    """The generated loop, given rhs and given rhs wrapped, against the
    reference; returns the library's outcome."""
    expected = _outcome(reference_dopri5.integrate, rhs, initial, 0.0, t_end,
                        settings, grid, **kwargs)
    for fn in (rhs, _called(rhs)):
        assert _outcome(integrate, fn, initial, 0.0, t_end, settings, grid,
                        **kwargs) == expected
    return expected


def _chart_run(chart, ham, t_end, weighted, settings=None, samples=41):
    settings = settings or IntegratorSettings(max_step=0.1)
    return assert_runs_match(
        chart.chart_rhs(ham), np.zeros(chart.STATE_SIZE), t_end, settings,
        np.linspace(0.0, t_end, samples), escape=chart.escaped,
        error_weight=chart.error_weight if weighted else None)


def _hamiltonian(chart, diagonal, couplings):
    """A Hamiltonian of the chart's dimension from lists of drives."""
    if chart is two_level:
        return Hamiltonian2(h=diagonal[0], v=couplings[0])
    return Hamiltonian3(h1=diagonal[0], h2=diagonal[1], v1=couplings[0],
                        v2=couplings[1], v3=couplings[2])


def _random(chart, rng, strong):
    """A drawn Hamiltonian like the benchmark's ensembles: strong cosines
    that take the chart near its poles, or weak cosines and Gaussians."""
    def drive(amplitude):
        if strong or rng.random() < 0.5:
            return CosineDrive(amplitude, rng.uniform(0.3, 3.0),
                               rng.uniform(0.0, 6.28))
        return GaussianDrive(amplitude, rng.uniform(2.0, 8.0),
                             rng.uniform(0.6, 2.5))

    scale = 2.0 if strong else 0.14
    return _hamiltonian(
        chart, [drive(rng.uniform(-1.4, 1.4) * scale) for _ in range(2)],
        [drive(complex(*rng.uniform(-1.0, 1.0, 2)) * scale)
         for _ in range(3)])


@CHARTS
@WEIGHTED
@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_chart_runs_match_the_reference(chart, weighted, strong):
    rng = np.random.default_rng(240 + strong)
    rejected = 0
    for _ in range(3):
        ham = _random(chart, rng, strong)
        outcome = _chart_run(chart, ham, 20.0 if strong else 10.0, weighted)
        assert outcome[2] == "completed"
        rejected += "error_rejections=0," not in outcome[4]
    assert rejected > 0 or not strong


@WEIGHTED
def test_the_tangent_pole_member_matches_the_reference(weighted):
    # h = 0, v = 1 leaves the chart at t = pi / 2: escape halvings, then
    # the singularity stop
    ham = Hamiltonian2(h=ConstantDrive(0.0), v=ConstantDrive(1.0))
    outcome = _chart_run(two_level, ham, 2.0, weighted, samples=21)
    assert outcome[2] == "singularity"
    assert "escape_halvings=0," not in outcome[4]


@CHARTS
@pytest.mark.parametrize("shape", ["constant", "cosine", "gaussian",
                                   "piecewise", "sum"])
def test_every_drive_shape_matches_the_reference(chart, shape):
    def drive(amplitude, k):
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

    ham = _hamiltonian(
        chart, [drive(a, k) for k, a in enumerate((0.6, -0.35))],
        [drive(a, k) for k, a
         in enumerate((0.5 - 0.3j, -0.2 + 0.7j, 0.45 + 0.1j))])
    for weighted in (False, True):
        assert _chart_run(chart, ham, 2.0, weighted)[2] == "completed"


@CHARTS
@pytest.mark.parametrize("coupling", ["real", "imaginary", "zero"])
def test_signed_zeros_match_the_reference(chart, coupling):
    # Couplings that are exactly real, exactly imaginary or zero, and
    # zero diagonals of either sign, from the zero state: the +0.0 and
    # -0.0 parts where a float meets a complex value reach the states.
    values = {"real": (0.7, -0.4), "imaginary": (0.7j, -0.4j),
              "zero": (0.0, complex(-0.0, -0.0))}[coupling]
    couplings = [ConstantDrive(values[0]), CosineDrive(values[1], 1.1),
                 ConstantDrive(values[1])]
    for diagonal in (0.0, -0.0, 0.3):
        ham = _hamiltonian(chart, [ConstantDrive(diagonal),
                                   CosineDrive(-diagonal, 0.7)], couplings)
        _chart_run(chart, ham, 1.0, weighted=False)


@pytest.mark.parametrize("dim", [2, 3], ids=["d8", "d18"])
def test_oracle_runs_match_the_reference(dim):
    if dim == 2:
        ham = Hamiltonian2(h=CosineDrive(0.7, 1.3),
                           v=CosineDrive(0.5 - 0.4j, 0.8, 0.2))
    else:
        ham = Hamiltonian3(h1=CosineDrive(0.4, 1.1), h2=ConstantDrive(-0.3),
                           v1=CosineDrive(0.5 + 0.2j, 0.9),
                           v2=GaussianDrive(0.3j, 1.5, 0.8),
                           v3=PiecewiseDrive((0.0, 2.0, 4.0),
                                             (0.1, 0.3 - 0.2j, -0.1)))
    identity = np.eye(dim, dtype=complex).ravel().view(float)
    outcome = assert_runs_match(_schrodinger_rhs(ham), identity, 4.0,
                                IntegratorSettings(max_step=0.05),
                                np.linspace(0.0, 4.0, 17))
    assert outcome[2] == "completed"


@CHARTS
def test_overflowing_and_nan_drives_match_the_reference(chart):
    # A coupling that jumps from 0 to 1e300 right after t = 0.3 overflows
    # the stages there to inf and inf - inf, and one that jumps to NaN
    # poisons them: the steps shrink, and both loops end the same way;
    # for NaN in the same NonFiniteDerivativeError.
    settings = IntegratorSettings(max_step=0.1, max_steps=3000)
    outcomes = []
    for jump in (1e300, math.nan):
        late = PiecewiseDrive((0.0, 0.3, 0.30001, 1.0),
                              (0.0, 0.0, jump, jump))
        ham = _hamiltonian(chart, [ConstantDrive(0.2), ConstantDrive(0.1)],
                           [late, ConstantDrive(0.3), ConstantDrive(0.4j)])
        for weighted in (False, True):
            outcomes.append(_chart_run(chart, ham, 1.0, weighted, settings))
    assert outcomes[-1][0] is NonFiniteDerivativeError
    assert "nonfinite_retries=0," not in str(outcomes[0])


def test_overflowing_stages_match_the_reference():
    # y' = -y^3 from y(0) = 10 with a first step of 1 overflows the later
    # stages and is retried; y' = y^2 from y(0) = 1 blows up at t = 1,
    # where error rejections shrink the step below the floor
    settings = IntegratorSettings(max_step=1.0, initial_step=1.0)
    grid = np.linspace(0.0, 2.0, 21)
    outcome = assert_runs_match(lambda t, y: [-v * v * v for v in y], [10.0],
                                2.0, settings, grid)
    assert "nonfinite_retries=0," not in outcome[4]
    error, message = assert_runs_match(lambda t, y: [v * v for v in y], [1.0],
                                       2.0, IntegratorSettings(max_step=0.1),
                                       grid)
    assert message.startswith("step size underflow at t = 0.99")


@pytest.mark.parametrize("grid", [[0.25, 0.9], np.linspace(0.0, 1.0, 101)],
                         ids=["on_a_step_end", "several_per_step"])
def test_samples_find_their_steps_as_in_the_reference(grid):
    # A rotation with loose tolerances takes 8 steps of max_step, which
    # end at the multiples of 0.125. On the first grid the sample 0.25
    # lies on a step end and the steps that end at 0.375 to 0.875 hold
    # no sample; on the second each step holds 12 or 13 samples. The
    # reference assigns samples to steps by counting them.
    settings = IntegratorSettings(max_step=0.125, initial_step=0.125,
                                  rel_tol=1e-3, abs_tol=1e-3)
    outcome = assert_runs_match(lambda t, y: [-y[1], y[0]], [1.0, 0.0], 1.0,
                                settings, grid)
    assert "attempts=8, accepted=8," in outcome[4]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nan_and_infinite_weights_match_the_reference(bad):
    # once y passes 0.5 the weight of y1 is NaN or inf, which fails every
    # attempt until the step is below the floor
    def weight(y):
        return [bad if abs(y[0]) > 0.5 else 1.0, 1.0]

    settings = IntegratorSettings(max_step=1.0, initial_step=1.0)
    outcome = assert_runs_match(lambda t, y: [-50.0 * (v - 1.0) for v in y],
                                [0.0, 0.0], 1.0, settings,
                                np.linspace(0.0, 1.0, 11),
                                error_weight=weight)
    assert outcome[0] is NonFiniteDerivativeError


@CHARTS
def test_step_limit_matches_the_reference(chart):
    ham = _hamiltonian(chart, [CosineDrive(0.8, 1.3), ConstantDrive(-0.2)],
                       [CosineDrive(0.6 - 0.3j, 0.7), ConstantDrive(0.2),
                        ConstantDrive(0.1j)])
    settings = IntegratorSettings(max_step=0.1, max_steps=37)
    assert _chart_run(chart, ham, 10.0, True, settings)[2] == "step_limit"


@CHARTS
def test_step_underflow_matches_the_reference(chart):
    # Near t = 1e15 the doubles are 0.125 apart, so a step of 0.05 does
    # not move t; and a derivative of 1e200 sin(y) fails error control
    # at any step, until the step is below the floor.
    ham = _hamiltonian(chart, [ConstantDrive(0.3), ConstantDrive(0.1)],
                       [ConstantDrive(0.8)] * 3)
    rhs = chart.chart_rhs(ham)
    settings = IntegratorSettings(max_step=0.05)
    expected = _outcome(reference_dopri5.integrate, rhs,
                        np.zeros(chart.STATE_SIZE), 1.0e15, 1.0000000000001e15,
                        settings, [], escape=chart.escaped)
    assert expected == (IntegrationError,
                        "step size underflow at t = 1e+15")
    for fn in (rhs, _called(rhs)):
        assert _outcome(integrate, fn, np.zeros(chart.STATE_SIZE), 1.0e15,
                        1.0000000000001e15, settings, [],
                        escape=chart.escaped) == expected
    assert assert_runs_match(
        lambda t, y: [1e200 * math.sin(v) for v in y], [1.0], 1.0, settings,
        []) == (IntegrationError, "step size underflow at t = 0")


@CHARTS
def test_a_complex_diagonal_drive_raises_as_in_the_reference(chart):
    # A diagonal drive that is not real by construction is checked at
    # each sample; at t = 0 its imaginary part is 0.2 * cos(pi / 2),
    # within the tolerance, and the first stage time fails.
    ham = _hamiltonian(chart, [CosineDrive(0.3 + 0.2j, 1.0, math.pi / 2),
                               ConstantDrive(0.1)],
                       [ConstantDrive(0.5 - 0.3j)] * 3)
    error, message = _chart_run(chart, ham, 1.0, weighted=True)
    assert error is ValueError and "must evaluate real" in message


def test_later_results_of_the_wrong_length_match_the_reference():
    def rhs(t, y):
        rhs.calls += 1
        return [-v for v in y] + [0.0] * (rhs.calls > 3)
    for fn in (reference_dopri5.integrate, integrate):
        rhs.calls = 0
        outcome = _outcome(fn, rhs, np.ones(3), 0.0, 1.0,
                           IntegratorSettings(max_step=0.1), [])
        assert outcome == (ValueError,
                           "too many values to unpack (expected 3)")


def test_one_loop_per_state_size_and_rates():
    for chart in (two_level, three_level):
        assert (_loop(chart.STATE_SIZE, chart._RATES)
                is _loop(chart.STATE_SIZE, chart._RATES))
        assert (_loop(chart.STATE_SIZE, chart._RATES)
                is not _loop(chart.STATE_SIZE))
    assert _loop(8).__code__.co_filename == "<dopri5 loop d=8>"
    assert (_loop(8, three_level._RATES).__code__.co_filename
            == "<dopri5 loop d=8, inlined rates>")
    settings = IntegratorSettings(max_step=0.1)
    rng = np.random.default_rng(241)
    for chart in (two_level, three_level):
        propagate(_random(chart, rng, False), 0.0, 0.5, settings, [0.5])
    compiled = _loop.cache_info().currsize
    for chart in (two_level, three_level):
        for strong in (False, True, False):
            propagate(_random(chart, rng, strong), 0.0, 0.5, settings, [0.5])
    assert _loop.cache_info().currsize == compiled
