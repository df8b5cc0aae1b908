"""Tests for the exact constant-Hamiltonian exponential of exact.py."""

import numpy as np
import pytest

from exact import exact_unitaries


def random_traceless_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / dim * np.eye(dim)


def test_exact_unitaries_pauli_x_closed_form():
    # exp(-i t sx) = cos(t) I - i sin(t) sx
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    times = (0.0, 0.3, 1.0, -2.5)
    for t, u in zip(times, exact_unitaries(sx, times)):
        expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * sx
        assert np.linalg.norm(u - expected) < 1e-14


def test_exact_unitaries_group_properties():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        h = random_traceless_hermitian(rng, dim)
        u0, u1, u2, u12 = exact_unitaries(h, [0.0, 0.7, 1.1, 1.8])
        assert np.linalg.norm(u1 @ u2 - u12) < 1e-13
        assert np.linalg.norm(u0 - np.eye(dim)) < 1e-14


def test_exact_unitaries_satisfy_schrodinger_equation():
    # i dU/dt = H U, checked with a central difference.
    rng = np.random.default_rng(4)
    h = random_traceless_hermitian(rng, 3)
    dt = 1e-6
    um, u, up = exact_unitaries(h, [0.5 - dt, 0.5, 0.5 + dt])
    du = (up - um) / (2 * dt)
    assert np.linalg.norm(1j * du - h @ u) < 1e-9


@pytest.mark.parametrize("matrix, message", [
    (np.diag([1.0, 1.0]), "trace off zero"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
    (np.array([[np.nan, 0.0], [0.0, 0.0]]), "not Hermitian"),
], ids=["trace_2", "not_hermitian", "nan"])
def test_exact_unitaries_reject_input_outside_su_n(matrix, message):
    with pytest.raises(ValueError, match=message):
        exact_unitaries(matrix, [1.0])


@pytest.mark.parametrize("distort, message", [
    (lambda w, p: (w, 1.1 * p), "not unitary"),
    (lambda w, p: (w + 0.5, p), "determinant off unity"),
], ids=["scaled_eigenvectors", "shifted_eigenvalues"])
def test_exact_unitaries_check_their_output(monkeypatch, distort, message):
    # A faulty eigensolver: the result is no longer unitary, or unitary
    # with a determinant exp(-1.5i) instead of 1.
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: distort(*eigh(h)))
    h = random_traceless_hermitian(np.random.default_rng(5), 3)
    with pytest.raises(ValueError, match=message):
        exact_unitaries(h, [0.0, 1.0])
