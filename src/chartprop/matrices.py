"""Small dense complex matrices (2x2 and 3x3) with structural guards.

Evolution operators and Hamiltonians in this package are plain numpy
arrays; the wrapper types below exist to check the structure that the
rest of the code relies on (unitarity with unit determinant, Hermiticity
with zero trace) eagerly, at construction, instead of letting a violated
assumption propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Frobenius tolerances for structural checks; generous for 2x2/3x3 doubles.
UNITARY_TOL = 1e-12
DET_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12


class MatrixInvariantError(ValueError):
    """A matrix failed the structural check its wrapper type promises."""


def _as_square(a):
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] not in (2, 3):
        raise ValueError(f"matrix must be 2x2 or 3x3, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise MatrixInvariantError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class UnitaryMatrix:
    """A special-unitary matrix, verified at construction.

    Requires ||M^dag M - I||_F <= UNITARY_TOL * dim and |det M - 1| <= DET_TOL.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        dim = m.shape[0]
        defect = np.linalg.norm(m.conj().T @ m - np.eye(dim))
        if defect > UNITARY_TOL * dim:
            raise MatrixInvariantError(f"not unitary: ||M^dag M - I||_F = {defect:.3e}")
        det_err = abs(np.linalg.det(m) - 1.0)
        if det_err > DET_TOL:
            raise MatrixInvariantError(f"determinant off unity by {det_err:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HermitianTraceless:
    """A Hermitian matrix with zero trace, verified at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        defect = np.linalg.norm(m - m.conj().T)
        if defect > HERMITIAN_TOL:
            raise MatrixInvariantError(f"not Hermitian: ||M - M^dag||_F = {defect:.3e}")
        tr = abs(np.trace(m))
        if tr > TRACE_TOL:
            raise MatrixInvariantError(f"trace off zero by {tr:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


def hermitian_expm(h: HermitianTraceless, t: float) -> UnitaryMatrix:
    """exp(-i t H) for Hermitian traceless H, via eigendecomposition.

    Diagonalizing keeps the result unitary to rounding for any t, which
    makes this the exact reference propagator for constant Hamiltonians.
    Raises numpy.linalg.LinAlgError if the eigensolver fails.
    """
    w, p = np.linalg.eigh(h.matrix)
    u = (p * np.exp(-1j * t * w)) @ p.conj().T
    return UnitaryMatrix(u)
