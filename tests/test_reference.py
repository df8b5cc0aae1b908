"""Tests for the direct matrix-integration oracle and comparisons."""

import numpy as np
import pytest

from chartprop import (ConstantDrive, CosineDrive, Hamiltonian2, Hamiltonian3,
                       IntegratorSettings, compare, integrate_schrodinger,
                       schrodinger_residuals, unitarity_errors)
from exact import exact_unitaries

HAM2 = Hamiltonian2(h=ConstantDrive(0.4), v=ConstantDrive(0.8 - 0.3j))
HAM3 = Hamiltonian3(h1=ConstantDrive(0.2), h2=ConstantDrive(-0.5),
                    v1=ConstantDrive(0.7j), v2=ConstantDrive(0.3),
                    v3=ConstantDrive(0.2 + 0.4j))


def test_constant_hamiltonian_matches_eigendecomposition():
    settings = IntegratorSettings(max_step=0.1)
    times = np.linspace(0.0, 5.0, 26)
    for ham in (HAM2, HAM3):
        oracle = integrate_schrodinger(ham, 0.0, 5.0, settings, times)
        exact = exact_unitaries(ham.matrix(0.0), times)
        assert oracle.unitaries.shape == exact.shape
        dev = np.max(np.linalg.norm(oracle.unitaries - exact, axis=(1, 2)))
        assert dev < 1e-8
        assert oracle.drift < 1e-8


def test_oracle_starts_at_identity():
    settings = IntegratorSettings(max_step=0.1)
    oracle = integrate_schrodinger(HAM3, 0.0, 1.0, settings, [0.0, 1.0])
    assert np.array_equal(oracle.unitaries[0], np.eye(3, dtype=complex))


def test_unitarity_errors_metric():
    us = np.stack([np.eye(2, dtype=complex),
                   np.diag([np.exp(0.5j), np.exp(-0.5j)])])
    errs = unitarity_errors(us)
    assert errs.shape == (2,)
    assert np.all(errs < 1e-15)
    us = np.stack([1.001 * np.eye(2, dtype=complex)])
    assert unitarity_errors(us)[0] > 1e-3


def test_compare_reports_worst_time():
    settings = IntegratorSettings(max_step=0.1)
    times = np.linspace(0.0, 2.0, 21)
    oracle = integrate_schrodinger(HAM2, 0.0, 2.0, settings, times)
    perturbed = oracle.unitaries.copy()
    perturbed[7] = perturbed[7] + 1e-4
    report = compare(times, perturbed, oracle)
    assert report.time_of_max == times[7]
    assert abs(report.max_frobenius_error - 2e-4) < 1e-6
    assert report.errors.shape == (21,)


def test_compare_requires_matching_grids():
    settings = IntegratorSettings(max_step=0.1)
    times = np.linspace(0.0, 1.0, 11)
    oracle = integrate_schrodinger(HAM2, 0.0, 1.0, settings, times)
    with pytest.raises(ValueError):
        compare(times[:-1], oracle.unitaries[:-1], oracle)
    shifted = times.copy()
    shifted[3] += 1e-9
    with pytest.raises(ValueError):
        compare(shifted, oracle.unitaries, oracle)


def test_schrodinger_residuals_small_on_true_solution():
    times = np.linspace(0.0, 3.0, 3001)
    us = exact_unitaries(HAM3.matrix(0.0), times)
    res = schrodinger_residuals(times, us, HAM3)
    assert res.shape == times.shape
    # second-order differencing floor for a smooth flow on this grid
    assert np.max(res) < 1e-5


def test_schrodinger_residuals_flag_wrong_hamiltonian():
    times = np.linspace(0.0, 3.0, 301)
    us = exact_unitaries(HAM3.matrix(0.0), times)
    wrong = Hamiltonian3(h1=ConstantDrive(0.2), h2=ConstantDrive(-0.5),
                         v1=ConstantDrive(0.7j), v2=ConstantDrive(0.3),
                         v3=ConstantDrive(-0.2 - 0.4j))  # v3 sign flipped
    res = schrodinger_residuals(times, us, wrong)
    assert np.max(res) > 0.1


def test_schrodinger_residual_guards_short_grids():
    res = schrodinger_residuals(np.array([0.0]),
                                np.eye(2, dtype=complex)[None], HAM2)
    assert np.array_equal(res, [0.0])
    times = np.array([0.0, 1e-4])
    us = np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    res = schrodinger_residuals(times, us, HAM2)
    assert res.shape == (2,)
    assert np.all(np.isfinite(res))


def test_time_dependent_oracle_tracks_known_rotation():
    # h = 0, v = cos(w t): the Hamiltonian commutes with itself at all
    # times, so U is exp(-i sx * integral of v) with analytic integral.
    w = 1.3
    ham = Hamiltonian2(h=ConstantDrive(0.0), v=CosineDrive(1.0, w))
    settings = IntegratorSettings(max_step=0.05)
    times = np.linspace(0.0, 4.0, 9)
    oracle = integrate_schrodinger(ham, 0.0, 4.0, settings, times)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for t, u in zip(times, oracle.unitaries):
        theta = np.sin(w * t) / w
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
        assert np.linalg.norm(u - expected) < 1e-7


TIME_DEPENDENT = (
    Hamiltonian2(h=CosineDrive(0.3, 1.7), v=CosineDrive(0.8 - 0.3j, 0.9)),
    Hamiltonian3(h1=CosineDrive(0.2, 1.1), h2=ConstantDrive(-0.5),
                 v1=CosineDrive(0.7j, 2.3), v2=ConstantDrive(0.3),
                 v3=CosineDrive(0.2 + 0.4j, 0.4)),
)


@pytest.mark.parametrize("ham", TIME_DEPENDENT, ids=["n2", "n3"])
def test_oracle_rhs_is_minus_i_h_u(ham):
    from chartprop.reference import _schrodinger_rhs
    rhs = _schrodinger_rhs(ham)
    rng = np.random.default_rng(ham.dim)
    for t in (0.0, 0.37, 4.2, -1.5):
        u = (rng.standard_normal((ham.dim, ham.dim))
             + 1j * rng.standard_normal((ham.dim, ham.dim)))
        got = rhs(t, u.ravel().view(float).tolist())
        assert isinstance(got, tuple) and len(got) == 2 * ham.dim ** 2
        want = -1j * ham.matrix(t) @ u
        got = np.array(got).view(complex).reshape(ham.dim, ham.dim)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
