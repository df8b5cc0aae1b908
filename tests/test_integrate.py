"""Tests for the adaptive integrator: accuracy, dense output, stop modes."""

import warnings

import numpy as np
import pytest

from chartprop import (ChartSingularityError, ConvergenceScenario,
                       IntegrationError, IntegratorSettings,
                       NonFiniteDerivativeError, StepLimitError,
                       convergence_probe, integrate)


def decay(t, y):
    return -y


def rotation(t, y):
    return np.array([y[1], -y[0]])


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
    traj = integrate(lambda t, y: y * y, [1.0], 0.0, 2.0, settings,
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
        return np.full_like(y, np.nan) if t > 0.5 else -y
    settings = IntegratorSettings(max_step=0.1)
    with pytest.raises(NonFiniteDerivativeError):
        integrate(bad, [1.0], 0.0, 1.0, settings, [0.9])
    with pytest.raises(NonFiniteDerivativeError):
        integrate(lambda t, y: np.full_like(y, np.inf), [1.0], 0.0, 1.0,
                  settings, [0.5])


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
    traj = integrate(lambda t, y: y * y, [1.0], 0.0, 2.0, settings,
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
    # final state are the same with no interior samples and with many.
    settings = IntegratorSettings(max_step=0.3)
    finals, counts = [], []
    for n in (2, 2001):
        calls = []

        def counted(t, y):
            calls.append(t)
            return rotation(t, y)
        traj = integrate(counted, [1.0, 0.0], 0.0, 6.0, settings,
                         np.linspace(0.0, 6.0, n))
        assert len(traj.times) == n
        finals.append(traj.final_state)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert np.array_equal(finals[0], finals[1])


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
        integrate(lambda t, y: np.full_like(y, np.nan), [1.0], 0.0, 1.0,
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
            integrate(lambda t, y: y * y, [1.0], 0.0, 2.0, settings, [2.0])
