"""The exact evolution operator of a constant Hamiltonian, the ground
truth that criterion 1 and the chart tests compare against.

exp(-i t H) comes from one eigendecomposition of H, which keeps the
result unitary to rounding at any t and makes it independent of both
the chart and the direct-matrix oracle.
"""

import numpy as np

# Frobenius tolerances of the checks; generous for 2x2 and 3x3 doubles.
TOL = 1e-12


def exact_unitaries(matrix, times) -> np.ndarray:
    """Stacked exp(-i t H), shape (len(times), n, n), for a constant
    Hermitian traceless H given as an n x n matrix.

    Raises ValueError when H is not Hermitian or not traceless within
    TOL, or when an operator is not special unitary: ||U^dag U - I||_F
    within TOL * n and |det U - 1| within TOL. A NaN fails every check.
    """
    h = np.asarray(matrix, dtype=complex)
    dim = h.shape[0]
    defect = np.linalg.norm(h - h.conj().T)
    if not defect <= TOL:
        raise ValueError(f"not Hermitian: ||H - H^dag||_F = {defect:.3e}")
    if not abs(np.trace(h)) <= TOL:
        raise ValueError(f"trace off zero by {abs(np.trace(h)):.3e}")
    w, p = np.linalg.eigh(h)
    us = np.stack([(p * np.exp(-1j * float(t) * w)) @ p.conj().T
                   for t in np.asarray(times)])
    defect = np.max(np.linalg.norm(
        np.conj(np.swapaxes(us, -1, -2)) @ us - np.eye(dim), axis=(-2, -1)))
    if not defect <= TOL * dim:
        raise ValueError(f"not unitary: ||U^dag U - I||_F = {defect:.3e}")
    det_err = np.max(np.abs(np.linalg.det(us) - 1.0))
    if not det_err <= TOL:
        raise ValueError(f"determinant off unity by {det_err:.3e}")
    return us
