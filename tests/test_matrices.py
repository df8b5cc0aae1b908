"""Tests for the small dense-matrix layer."""

import numpy as np
import pytest

from chartprop import (HermitianTraceless, MatrixInvariantError, UnitaryMatrix,
                       hermitian_expm)


def random_special_unitary(rng, dim):
    # QR of a Gaussian matrix, phase-fixed so the determinant is 1.
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / dim)


def random_traceless_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / dim * np.eye(dim)


def test_unitary_matrix_accepts_special_unitaries():
    rng = np.random.default_rng(1)
    for dim in (2, 3):
        for _ in range(20):
            u = UnitaryMatrix(random_special_unitary(rng, dim))
            assert u.dim == dim
            defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(dim))
            assert defect <= 1e-12 * dim


def test_unitary_matrix_rejects_bad_input():
    with pytest.raises(MatrixInvariantError):
        UnitaryMatrix(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))
    # unitary but determinant -1
    with pytest.raises(MatrixInvariantError):
        UnitaryMatrix(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        UnitaryMatrix(np.eye(4, dtype=complex))  # only 2x2 and 3x3 supported
    with pytest.raises(ValueError):
        UnitaryMatrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_unitary_matrix_is_read_only():
    u = UnitaryMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 0.0


def test_hermitian_traceless_validation():
    rng = np.random.default_rng(2)
    h = HermitianTraceless(random_traceless_hermitian(rng, 3))
    assert h.dim == 3
    with pytest.raises(MatrixInvariantError):
        HermitianTraceless(np.diag([1.0, 1.0]).astype(complex))  # trace 2
    with pytest.raises(MatrixInvariantError):
        HermitianTraceless(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_hermitian_expm_pauli_x_closed_form():
    # exp(-i t sx) = cos(t) I - i sin(t) sx
    sx = HermitianTraceless(np.array([[0, 1], [1, 0]], dtype=complex))
    for t in (0.0, 0.3, 1.0, -2.5):
        u = hermitian_expm(sx, t).matrix
        expected = (np.cos(t) * np.eye(2)
                    - 1j * np.sin(t) * np.array([[0, 1], [1, 0]]))
        assert np.linalg.norm(u - expected) < 1e-14


def test_hermitian_expm_group_properties():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        h = HermitianTraceless(random_traceless_hermitian(rng, dim))
        u1 = hermitian_expm(h, 0.7).matrix
        u2 = hermitian_expm(h, 1.1).matrix
        u12 = hermitian_expm(h, 1.8).matrix
        assert np.linalg.norm(u1 @ u2 - u12) < 1e-13
        assert np.linalg.norm(hermitian_expm(h, 0.0).matrix
                              - np.eye(dim)) < 1e-14


def test_hermitian_expm_satisfies_schrodinger_equation():
    # i dU/dt = H U, checked with a central difference.
    rng = np.random.default_rng(4)
    h = HermitianTraceless(random_traceless_hermitian(rng, 3))
    dt = 1e-6
    up = hermitian_expm(h, 0.5 + dt).matrix
    um = hermitian_expm(h, 0.5 - dt).matrix
    du = (up - um) / (2 * dt)
    u = hermitian_expm(h, 0.5).matrix
    assert np.linalg.norm(1j * du - h.matrix @ u) < 1e-9
