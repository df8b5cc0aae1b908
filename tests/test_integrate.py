"""Tests for the adaptive integrator: accuracy, dense output, stop modes."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from chartprop import (ChartSingularityError, ConstantDrive,
                       ConvergenceScenario, CosineDrive, Hamiltonian2,
                       Hamiltonian3, IntegrationError, IntegratorSettings,
                       NonFiniteDerivativeError, StepLimitError,
                       convergence_probe, integrate, three_level, two_level)


def decay(t, y):
    return [-v for v in y]


def rotation(t, y):
    return np.array([y[1], -y[0]])


def counting(rhs):
    """rhs wrapped to count its calls in .calls."""
    def counted(t, y):
        counted.calls += 1
        return rhs(t, y)
    counted.calls = 0
    return counted


def blowup(t, y):
    return [v * v for v in y]


def stiff(t, y):
    # y' = -50 (y - 1), one copy per component
    return [-50.0 * (v - 1.0) for v in y]


def escapes(y):
    return abs(y[0]) >= 1e6


def test_settings_validation():
    s = IntegratorSettings(max_step=0.5)
    assert s.rel_tol == 1e-9
    assert s.abs_tol == 1e-12
    assert s.initial_step == 0.005
    assert s.max_steps == 10_000_000
    with pytest.raises(ValueError):
        IntegratorSettings(max_step=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_step=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_step=1.0, initial_step=-1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_step=1.0, max_steps=0)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "max_step",
                                  "initial_step"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_settings_reject_non_finite_values(name, value):
    values = {"max_step": 0.1, name: value}
    with pytest.raises(ValueError, match="finite"):
        IntegratorSettings(**values)


def test_exponential_decay_accuracy():
    settings = IntegratorSettings(max_step=0.2)
    traj = integrate(decay, [1.0], 0.0, 5.0, settings, np.linspace(0, 5, 11))
    traj.require_completed()
    assert traj.status == "completed"
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8


def test_sample_grid_is_returned_exactly():
    settings = IntegratorSettings(max_step=0.3)
    grid = np.linspace(0.0, 2.0, 41)
    traj = integrate(rotation, [1.0, 0.0], 0.0, 2.0, settings, grid)
    assert np.array_equal(traj.times, grid)


def test_unsorted_and_duplicate_samples_are_merged():
    settings = IntegratorSettings(max_step=0.3)
    traj = integrate(decay, [1.0], 0.0, 1.0, settings,
                     [0.75, 0.25, 0.75, 0.5])
    assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_endpoints_always_included():
    settings = IntegratorSettings(max_step=0.5)
    traj = integrate(decay, [1.0], 0.0, 3.0, settings, [1.5])
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 3.0


def test_dense_output_accuracy_between_steps():
    # Samples falling inside accepted steps come from the interpolant;
    # they must track the solution at, or near, integration accuracy.
    settings = IntegratorSettings(max_step=0.5, rel_tol=1e-9, abs_tol=1e-12)
    grid = np.linspace(0.0, 6.28, 2001)
    traj = integrate(rotation, [1.0, 0.0], 0.0, 6.28, settings, grid)
    exact = np.cos(traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-7


def test_input_validation():
    settings = IntegratorSettings(max_step=0.1)
    with pytest.raises(ValueError):
        integrate(decay, [1.0], 1.0, 0.0, settings, [])
    with pytest.raises(ValueError):
        integrate(decay, [1.0], 0.0, 1.0, settings, [2.0])
    with pytest.raises(ValueError, match="within"):
        integrate(decay, [1.0], 0.0, 1.0, settings, [0.5, np.nan])
    with pytest.raises(ValueError):
        integrate(decay, [[1.0, 2.0]], 0.0, 1.0, settings, [0.5])


def test_step_limit_reported():
    settings = IntegratorSettings(max_step=1e-4, max_steps=10)
    traj = integrate(decay, [1.0], 0.0, 1.0, settings, [0.5])
    assert traj.status == "step_limit"
    assert traj.times[-1] < 1.0
    with pytest.raises(StepLimitError):
        traj.require_completed()


def test_escape_stops_near_blowup():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the escape predicate
    # must stop the run just below the threshold, close to the pole.
    settings = IntegratorSettings(max_step=0.1)
    traj = integrate(blowup, [1.0], 0.0, 2.0, settings,
                     np.linspace(0, 2, 21),
                     escape=lambda y: abs(y[0]) >= 1e6)
    assert traj.status == "singularity"
    assert traj.singularity_time == traj.times[-1]
    assert 0.999 < traj.singularity_time < 1.0
    assert np.all(np.diff(traj.times) > 0)
    with pytest.raises(ChartSingularityError):
        traj.require_completed()


def test_non_finite_rhs_raises():
    def bad(t, y):
        return [math.nan] * len(y) if t > 0.5 else decay(t, y)
    settings = IntegratorSettings(max_step=0.1)
    with pytest.raises(NonFiniteDerivativeError):
        integrate(bad, [1.0], 0.0, 1.0, settings, [0.9])
    with pytest.raises(NonFiniteDerivativeError):
        integrate(lambda t, y: [math.inf] * len(y), [1.0], 0.0, 1.0,
                  settings, [0.5])


@pytest.mark.parametrize("error", [
    IntegrationError("integration failed"),
    ChartSingularityError(1.5707953),
    StepLimitError(np.float64(3.04921740775)),
    NonFiniteDerivativeError(1.25),
], ids=lambda e: type(e).__name__)
def test_integration_errors_survive_pickle_and_copy(error):
    # A run's error may cross a process boundary; it must come back as
    # the same error, message and time included.
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert getattr(clone, "time", None) == getattr(error, "time", None)


def test_step_limit_error_names_the_last_time():
    settings = IntegratorSettings(max_step=1e-4, max_steps=10)
    traj = integrate(decay, [1.0], 0.0, 1.0, settings, [0.5])
    with pytest.raises(StepLimitError) as caught:
        traj.require_completed()
    assert caught.value.time == traj.times[-1]
    assert str(caught.value) == f"step limit hit at t = {traj.times[-1]:.12g}"


def test_runs_are_deterministic():
    settings = IntegratorSettings(max_step=0.25)
    grid = np.linspace(0.0, 4.0, 101)
    a = integrate(rotation, [1.0, 0.0], 0.0, 4.0, settings, grid)
    b = integrate(rotation, [1.0, 0.0], 0.0, 4.0, settings, grid)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


def test_tolerance_actually_controls_error():
    loose = IntegratorSettings(max_step=0.5, rel_tol=1e-5, abs_tol=1e-8)
    tight = IntegratorSettings(max_step=0.5, rel_tol=1e-11, abs_tol=1e-14)
    grid = [8.0]
    exact = np.cos(8.0)
    e_loose = abs(integrate(rotation, [1.0, 0.0], 0.0, 8.0, loose,
                            grid).final_state[0] - exact)
    e_tight = abs(integrate(rotation, [1.0, 0.0], 0.0, 8.0, tight,
                            grid).final_state[0] - exact)
    assert e_tight < e_loose / 100


def test_convergence_probe_errors_fall_with_tolerance():
    scenario = ConvergenceScenario(
        rhs=rotation,
        initial=np.array([1.0, 0.0]),
        t_start=0.0,
        t_end=2.0,
        max_step=0.2,
        reconstruct=lambda state: state,
        reference=np.array([np.cos(2.0), -np.sin(2.0)]),
    )
    rows = convergence_probe(scenario, [1e-9, 1e-6, 1e-3])
    assert [tol for tol, _ in rows] == [1e-3, 1e-6, 1e-9]
    errs = [err for _, err in rows]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[1] / errs[2] > 10


def test_early_stop_trajectory_is_well_formed():
    settings = IntegratorSettings(max_step=0.05)
    traj = integrate(blowup, [1.0], 0.0, 2.0, settings,
                     np.linspace(0, 2, 201),
                     escape=lambda y: abs(y[0]) >= 1e6)
    # every emitted sample lies at or before the stop time, grid strictly
    # increasing, states finite
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(np.isfinite(traj.states))
    assert traj.times[-1] == traj.singularity_time
    assert abs(traj.final_state[0]) < 1e6


def test_sample_density_does_not_change_the_steps():
    # Dense output only reads accepted steps: the RHS calls and the
    # final state are the same with no interior samples and with many,
    # also when only t_end, or nothing at all, is requested.
    settings = IntegratorSettings(max_step=0.3)
    finals, counts = [], []
    for grid in ([], [6.0], np.linspace(0.0, 6.0, 2),
                 np.linspace(0.0, 6.0, 2001)):
        rhs = counting(rotation)
        traj = integrate(rhs, [1.0, 0.0], 0.0, 6.0, settings, grid)
        assert len(traj.times) == max(len(grid), 2)
        assert traj.status == "completed"
        finals.append(traj.final_state)
        counts.append(rhs.calls)
    assert len(set(counts)) == 1
    for final in finals[1:]:
        assert np.array_equal(final, finals[0])


def test_sample_on_a_step_end():
    # With a constant derivative every step passes error control and
    # grows to max_step: the steps end at 0.125, 0.375, 0.625, 0.875, 1.
    def constant(t, y):
        return np.array([1.0, -2.0])
    settings = IntegratorSettings(max_step=0.25, initial_step=0.125)
    traj = integrate(constant, [0.0, 0.0], 0.0, 1.0, settings, [0.375, 0.5])
    assert np.array_equal(traj.times, [0.0, 0.375, 0.5, 1.0])
    # the sample on the step end is the step's own result: the same
    # state as a run that ends there
    short = integrate(constant, [0.0, 0.0], 0.0, 0.375, settings, [])
    assert np.array_equal(short.times, [0.0, 0.375])
    assert np.array_equal(traj.states[1], short.final_state)
    assert np.allclose(traj.states[2], [0.5, -1.0], rtol=0, atol=1e-15)


def test_error_state_restored_after_return_and_raise():
    before = np.geterr()
    settings = IntegratorSettings(max_step=0.1)
    integrate(decay, [1.0], 0.0, 1.0, settings, [0.5])
    assert np.geterr() == before
    with pytest.raises(NonFiniteDerivativeError):
        integrate(lambda t, y: [math.nan] * len(y), [1.0], 0.0, 1.0,
                  settings, [0.5])
    assert np.geterr() == before


def test_overflowing_stage_warns_nothing():
    # y' = y^2 from y(0) = 1 blows up at t = 1; without an escape
    # predicate the stages overflow. That is handled by shrinking the
    # step until the run fails with an IntegrationError, and must not
    # surface as a RuntimeWarning (here turned into an exception).
    settings = IntegratorSettings(max_step=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            integrate(blowup, [1.0], 0.0, 2.0, settings, [2.0])


COSINE3 = Hamiltonian3(h1=CosineDrive(0.3, 1.7), h2=CosineDrive(-0.2, 0.6, 0.4),
                       v1=CosineDrive(0.6 - 0.2j, 1.1), v2=CosineDrive(0.4j, 0.9),
                       v3=CosineDrive(0.2 + 0.2j, 2.3, 1.0))


def test_extra_samples_leave_requested_samples_unchanged():
    # Dense output of a sample depends only on the step that holds it:
    # adding sample times B to a grid A changes neither the steps nor
    # the bits of the rows at A, although A's rows then sit at other
    # offsets in the evaluation blocks.
    settings = IntegratorSettings(max_step=0.05)
    grid_a = np.linspace(0.0, 6.0, 121)
    grid_b = np.random.default_rng(7).uniform(0.0, 6.0, 997)
    runs = []
    for grid in (grid_a, np.concatenate((grid_a, grid_b))):
        rhs = counting(three_level.chart_rhs(COSINE3))
        traj = integrate(rhs, np.zeros(8), 0.0, 6.0, settings, grid,
                         escape=three_level.escaped)
        assert traj.status == "completed"
        runs.append((traj, rhs.calls))
    (a, calls_a), (ab, calls_ab) = runs
    assert calls_a == calls_ab
    assert len(ab.times) == 121 + 997
    rows = np.searchsorted(ab.times, a.times)
    assert np.array_equal(ab.times[rows], a.times)
    assert np.array_equal(ab.states[rows], a.states)


def test_many_samples_inside_one_step():
    # A linear problem at a loose tolerance takes a few long steps, so
    # each holds hundreds of samples, more than one evaluation block.
    settings = IntegratorSettings(max_step=10.0, rel_tol=1e-6, abs_tol=1e-9)
    rhs = counting(rotation)
    grid = np.linspace(0.0, 6.0, 20001)
    traj = integrate(rhs, [1.0, 0.0], 0.0, 6.0, settings, grid)
    assert traj.status == "completed"
    attempts = (rhs.calls - 1) // 6
    assert len(grid) / attempts > 300
    assert np.array_equal(traj.times, grid)
    assert traj.states.shape == (20001, 2)
    exact = np.column_stack((np.cos(grid), -np.sin(grid)))
    assert np.max(np.abs(traj.states - exact)) < 1e-4
    # the end of the run is a step end: it carries y1 itself
    end_only = integrate(rotation, [1.0, 0.0], 0.0, 6.0, settings, [])
    assert np.array_equal(traj.final_state, end_only.final_state)
    # every 7th sample alone gives the same bits
    sparse = integrate(rotation, [1.0, 0.0], 0.0, 6.0, settings, grid[::7])
    assert np.array_equal(sparse.states[:-1], traj.states[::7])


@pytest.mark.parametrize("settings, escape, status", [
    (IntegratorSettings(max_step=0.05), escapes, "singularity"),
    (IntegratorSettings(max_step=1e-3, max_steps=250), None, "step_limit"),
], ids=["singularity", "step_limit"])
def test_early_stop_rows_then_last_committed_state(settings, escape, status):
    grid = np.linspace(0.0, 2.0, 201)
    traj = integrate(blowup, [1.0], 0.0, 2.0, settings, grid, escape=escape)
    assert traj.status == status
    stop = traj.times[-1]
    # the samples before the stop, then the stop time itself
    before = grid[grid < stop]
    assert np.array_equal(traj.times, np.append(before, stop))
    assert traj.states.shape == (len(before) + 1, 1)
    if status == "singularity":
        assert stop == traj.singularity_time
        assert 0.999 < stop < 1.0
    exact = 1.0 / (1.0 - traj.times[:-1])
    assert np.max(np.abs(traj.states[:-1, 0] / exact - 1.0)) < 1e-7
    # The closing row is the last committed state: a run that requests
    # the stop time as a sample takes the same steps and returns that
    # state there, as its step-end result, with the same earlier rows.
    again = integrate(blowup, [1.0], 0.0, 2.0, settings,
                      np.append(grid, stop), escape=escape)
    assert again.status == status
    assert np.array_equal(again.times, traj.times)
    assert np.array_equal(again.states, traj.states)


@pytest.mark.parametrize("grid, t_end, escape", [
    (np.linspace(0.0, 1.0, 37), 1.0, None),
    ([1.0], 1.0, None),
    ([], 1.0, None),
    (np.linspace(0.0, 2.0, 21), 2.0, escapes),
], ids=["completed", "end_only", "no_samples", "singularity"])
def test_states_are_a_c_contiguous_float64_matrix(grid, t_end, escape):
    traj = integrate(blowup if escape else rotation,
                     [1.0] if escape else [1.0, 0.0], 0.0, t_end,
                     IntegratorSettings(max_step=0.05), grid, escape=escape)
    d = 1 if escape else 2
    assert traj.states.shape == (len(traj.times), d)
    assert traj.states.dtype == np.float64
    assert traj.states.flags.c_contiguous
    assert traj.times.dtype == np.float64
    assert traj.times.flags.c_contiguous
    # what integrate_schrodinger relies on: pairs of columns view as
    # complex without a copy
    if d == 2:
        assert traj.states.view(complex).shape == (len(traj.times), 1)


def test_first_time_is_t_start_itself():
    # A requested -0.0 merges with t_start = 0.0; the trajectory still
    # starts at t_start, sign of zero included.
    settings = IntegratorSettings(max_step=0.1)
    traj = integrate(decay, [1.0], 0.0, 1.0, settings, [-0.0, 0.5])
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0])
    assert not np.signbit(traj.times[0])


# Chart runs for the step accounting: a driven two-level system, a
# driven three-level system, and the tangent orbit h = 0, v = 1 that
# leaves the chart at t = pi / 2.
CHART_RUNS = pytest.mark.parametrize("chart, ham, t_end, status", [
    (two_level, Hamiltonian2(h=ConstantDrive(0.3), v=CosineDrive(0.8, 2.0)),
     6.0, "completed"),
    (three_level, COSINE3, 6.0, "completed"),
    (two_level, Hamiltonian2(h=ConstantDrive(0.0), v=ConstantDrive(1.0)),
     2.0, "singularity"),
], ids=["two_level", "three_level", "pole"])


@CHART_RUNS
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_stats_account_for_every_attempt(chart, ham, t_end, status, weighted):
    rhs = counting(chart.chart_rhs(ham))
    settings = IntegratorSettings(max_step=0.05)
    traj = integrate(rhs, np.zeros(chart.STATE_SIZE), 0.0, t_end, settings,
                     np.linspace(0.0, t_end, 41), escape=chart.escaped,
                     error_weight=chart.error_weight if weighted else None)
    assert traj.status == status
    stats = traj.stats
    assert stats.rhs_calls == rhs.calls == 1 + 6 * stats.attempts
    # each attempt ends one way; the singular stop ends the last one
    assert stats.attempts == (stats.accepted + stats.error_rejections
                              + stats.nonfinite_retries
                              + stats.escape_halvings
                              + (status == "singularity"))
    assert stats.accepted > 0
    assert 0 < stats.smallest_step <= stats.largest_step <= 0.05
    assert all(type(value) in (int, float) for value in vars(stats).values())
    if status == "singularity":
        assert stats.escape_halvings > 0


def test_stats_of_a_run_without_accepted_steps():
    settings = IntegratorSettings(max_step=0.1, max_steps=3)
    traj = integrate(blowup, [1e5], 0.0, 1.0, settings, [], escape=escapes)
    assert traj.status == "step_limit"
    stats = traj.stats
    assert stats.attempts == 3 and stats.accepted == 0
    assert stats.smallest_step is None and stats.largest_step is None


@CHART_RUNS
def test_identity_weight_reproduces_the_plain_run(chart, ham, t_end, status):
    # w(y) = |y| is the scale of a run without error_weight, so the
    # weighted path must give the same bits, steps and counters.
    settings = IntegratorSettings(max_step=0.05)
    grid = np.linspace(0.0, t_end, 41)
    runs = [integrate(chart.chart_rhs(ham), np.zeros(chart.STATE_SIZE), 0.0,
                      t_end, settings, grid, escape=chart.escaped,
                      error_weight=weight)
            for weight in (None, lambda y: np.abs(y))]
    plain, weighted = runs
    assert plain.status == weighted.status == status
    assert plain.singularity_time == weighted.singularity_time
    assert np.array_equal(plain.times, weighted.times)
    assert plain.states.tobytes() == weighted.states.tobytes()
    assert plain.stats == weighted.stats


def test_infinite_weight_fails_the_step():
    # y' = -50 (y - 1) from y(0) = 0: a first step of length 1 is far
    # outside the stability region and lands at a wild y1. A weight of
    # inf there would scale the error estimate to zero; instead the step
    # must be retried, shorter, like a non-finite estimate.
    def wild_is_infinite(y):
        return np.full(len(y), np.inf if abs(y[0]) > 2.0 else 1.0)

    settings = IntegratorSettings(max_step=1.0, initial_step=1.0)
    grid = np.linspace(0.0, 1.0, 11)
    traj = integrate(stiff, [0.0], 0.0, 1.0, settings, grid,
                     error_weight=wild_is_infinite)
    assert traj.status == "completed"
    assert traj.stats.nonfinite_retries >= 1
    exact = 1.0 - np.exp(-50.0 * grid)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8
    # a weight that is never finite leaves no step to accept
    with pytest.raises(NonFiniteDerivativeError):
        integrate(stiff, [0.0], 0.0, 1.0, settings, grid,
                  error_weight=lambda y: np.full(len(y), np.nan))


# The state reaches rhs, escape and error_weight as a list of floats;
# rhs may return a tuple, a list or an array.
RETURN_TYPES = pytest.mark.parametrize("wrap", [tuple, list, np.array],
                                       ids=["tuple", "list", "array"])


@CHART_RUNS
def test_rhs_return_type_does_not_change_the_run(chart, ham, t_end, status):
    settings = IntegratorSettings(max_step=0.05)
    grid = np.linspace(0.0, t_end, 41)
    seen = []

    def run(wrap):
        rhs = chart.chart_rhs(ham)

        def wrapped(t, y):
            seen.append(type(y))
            return wrap(rhs(t, y))
        return integrate(wrapped, np.zeros(chart.STATE_SIZE), 0.0, t_end,
                         settings, grid, escape=chart.escaped,
                         error_weight=chart.error_weight)

    runs = [run(wrap) for wrap in (tuple, list, np.array)]
    assert set(seen) == {list}
    first = runs[0]
    assert first.status == status
    for other in runs[1:]:
        assert other.status == first.status
        assert other.singularity_time == first.singularity_time
        assert np.array_equal(other.times, first.times)
        assert other.states.tobytes() == first.states.tobytes()
        assert other.stats == first.stats


@RETURN_TYPES
def test_escape_and_weight_receive_the_state_as_a_list(wrap):
    seen = set()

    def weight(y):
        seen.add(("weight", type(y), type(y[0])))
        return [abs(v) for v in y]

    def escape(y):
        seen.add(("escape", type(y), type(y[0])))
        return False

    traj = integrate(lambda t, y: wrap([y[1], -y[0]]), [1.0, 0.0], 0.0, 1.0,
                     IntegratorSettings(max_step=0.25), [0.5],
                     escape=escape, error_weight=weight)
    assert traj.status == "completed"
    element = np.float64 if wrap is np.array else float
    assert seen == {("weight", list, float), ("weight", list, element),
                    ("escape", list, element)}


def test_rhs_of_the_wrong_length_is_rejected():
    settings = IntegratorSettings(max_step=0.1)
    for bad in ((1.0,), [1.0, 2.0, 3.0], np.zeros((2, 1)), 1.0):
        with pytest.raises(ValueError, match="rhs returned shape"):
            integrate(lambda t, y: bad, [1.0, 0.0], 0.0, 1.0, settings, [])


@pytest.mark.parametrize("wild", [0, 1])
def test_nan_weight_only_in_y1_fails_the_attempt(wild):
    # The first step of length 1 lands at a wild y1, whose weight has a
    # NaN in component `wild`; the weight of y stays finite. Python's
    # max(a, nan) is a, but the attempt must fail as with an infinite
    # weight: the same retries, steps and bits.
    def weight_of(bad):
        def weight(y):
            w = [1.0, 1.0]
            if abs(y[0]) > 2.0:
                w[wild] = bad
            return w
        return weight

    settings = IntegratorSettings(max_step=1.0, initial_step=1.0)
    grid = np.linspace(0.0, 1.0, 11)
    nan_run, inf_run = (integrate(stiff, [0.0, 0.0], 0.0, 1.0, settings,
                                  grid, error_weight=weight_of(bad))
                        for bad in (np.nan, np.inf))
    assert nan_run.status == "completed"
    assert nan_run.stats.nonfinite_retries >= 1
    assert nan_run.stats == inf_run.stats
    assert nan_run.states.tobytes() == inf_run.states.tobytes()
    exact = 1.0 - np.exp(-50.0 * grid)
    assert np.max(np.abs(nan_run.states[:, 0] - exact)) < 1e-8


def test_nan_weight_of_the_initial_state_fails_every_attempt():
    # w(y) is carried from the last accepted step; a NaN in the first
    # one must fail every attempt, as a NaN scale does.
    def nan_at_start(y):
        return [math.nan if y[0] == 1.0 else 1.0, 1.0]

    settings = IntegratorSettings(max_step=0.1)
    with pytest.raises(NonFiniteDerivativeError):
        integrate(decay, [1.0, 1.0], 0.0, 1.0, settings, [],
                  error_weight=nan_at_start)
    # with max_steps below the number of retries, the run stops at t_start
    traj = integrate(decay, [1.0, 1.0], 0.0, 1.0,
                     IntegratorSettings(max_step=0.1, max_steps=3), [],
                     error_weight=nan_at_start)
    assert traj.status == "step_limit"
    assert traj.stats.nonfinite_retries == 3
    assert np.array_equal(traj.times, [0.0])


def test_zero_scale_fails_the_attempt_without_zero_division():
    # A weight of -abs_tol / rel_tol makes the scale exactly 0 (powers
    # of two keep the product exact). The attempt must fail like a
    # non-finite estimate, not raise ZeroDivisionError.
    settings = IntegratorSettings(max_step=0.1, rel_tol=2.0 ** -30,
                                  abs_tol=2.0 ** -40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDerivativeError):
            integrate(decay, [1.0], 0.0, 1.0, settings, [],
                      error_weight=lambda y: [-2.0 ** -10])


@RETURN_TYPES
def test_overflowing_stage_is_retried_silently(wrap):
    # y' = -y^3 from y(0) = 10: a first step of length 1 overflows the
    # later stages to inf and NaN. No exception or warning may escape;
    # the step shrinks and the run completes on the exact solution
    # y = 1 / sqrt(2 t + 1/100).
    settings = IntegratorSettings(max_step=1.0, initial_step=1.0)
    grid = np.linspace(0.0, 2.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(lambda t, y: wrap([-v * v * v for v in y]), [10.0],
                         0.0, 2.0, settings, grid)
    assert traj.status == "completed"
    assert traj.stats.nonfinite_retries >= 1
    exact = 1.0 / np.sqrt(2.0 * grid + 0.01)
    assert np.max(np.abs(traj.states[:, 0] / exact - 1.0)) < 1e-7


def test_one_step_matches_a_numpy_evaluation_of_the_tableau():
    # The Dormand-Prince 5(4) tableau written out as matrices and
    # applied with numpy, independently of the loop, on y' = M y.
    a = np.zeros((7, 7))
    a[1, :1] = [1 / 5]
    a[2, :2] = [3 / 40, 9 / 40]
    a[3, :3] = [44 / 45, -56 / 15, 32 / 9]
    a[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
    a[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656]
    b = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                  11 / 84, 0.0])
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3))
    y0 = rng.normal(size=3)
    h = 0.37
    k = np.zeros((7, 3))
    for i in range(7):
        k[i] = m @ (y0 + h * (a[i] @ k))
    want = y0 + h * (b @ k)

    settings = IntegratorSettings(max_step=h, initial_step=h, rel_tol=1.0,
                                  abs_tol=1.0)
    traj = integrate(lambda t, y: (m @ np.array(y)).tolist(), y0, 0.0, h,
                     settings, [])
    assert traj.stats.attempts == traj.stats.accepted == 1
    got = traj.final_state
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
