"""Independent reference solutions and trajectory comparison.

Two references are available for checking a chart-coordinate run:

* direct integration of the matrix equation i dU/dt = H(t) U with the
  same Runge-Kutta engine but a completely different state (all real
  components of U, no chart), so agreement validates the chart
  equations rather than exercising the integrator twice;
* the exact eigendecomposition exponential, for constant H only, which
  is independent of both.

The direct integration applies no unitarity reprojection on purpose.
Its drift away from the unitary group is measured and reported; the
contrast with the chart reconstruction, which is unitary by
construction at any time, is the main comparative diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrate import IntegrationStats, IntegratorSettings, integrate
from .matrices import HermitianTraceless, hermitian_expm


def _schrodinger_rhs(ham):
    dim = ham.dim

    # The integrator passes the state as a list of floats and takes a
    # list back; the product itself stays one numpy matmul.
    def rhs(t, vec):
        u = np.array(vec).view(complex).reshape(dim, dim)
        du = ham.matrix(t) @ u
        du *= -1j
        return du.ravel().view(float).tolist()

    return rhs


def unitarity_errors(unitaries) -> np.ndarray:
    """Frobenius deviation of U^dag U from I for stacked matrices."""
    u = np.asarray(unitaries, dtype=complex)
    dim = u.shape[-1]
    gram = np.conjugate(np.swapaxes(u, -1, -2)) @ u
    return np.linalg.norm(gram - np.eye(dim), axis=(-2, -1))


@dataclass(frozen=True)
class OracleTrajectory:
    """Directly integrated evolution operators on a sample grid.

    drift is the worst unitarity deviation along the run; it is
    recorded, never corrected. stats is the run's step accounting.
    """

    times: np.ndarray        # (N,)
    unitaries: np.ndarray    # (N, dim, dim)
    drift: float
    stats: Optional[IntegrationStats] = None


@dataclass(frozen=True)
class ComparisonReport:
    """Per-sample Frobenius distances between two unitary trajectories."""

    max_frobenius_error: float
    time_of_max: float
    errors: np.ndarray
    oracle_drift: float


def integrate_schrodinger(ham, t_start, t_end, settings: IntegratorSettings,
                          sample_times) -> OracleTrajectory:
    """Directly integrate i dU/dt = H(t) U from U(t_start) = I."""
    dim = ham.dim
    initial = np.eye(dim, dtype=complex).ravel().view(float)
    traj = integrate(_schrodinger_rhs(ham), initial, t_start, t_end,
                     settings, sample_times).require_completed()
    unitaries = np.ascontiguousarray(traj.states).view(complex)
    unitaries = unitaries.reshape(len(traj.times), dim, dim)
    drift = float(np.max(unitarity_errors(unitaries)))
    return OracleTrajectory(times=traj.times, unitaries=unitaries, drift=drift,
                            stats=traj.stats)


def exact_constant_unitaries(h: HermitianTraceless, times) -> np.ndarray:
    """Stacked exp(-i t H) for constant H, via eigendecomposition."""
    return np.stack([hermitian_expm(h, float(t)).matrix for t in np.asarray(times)])


def compare(times, unitaries, reference: OracleTrajectory) -> ComparisonReport:
    """Frobenius distances between a reconstructed trajectory and a reference.

    The grids must match sample for sample; comparing interpolants
    would blur exactly the discrepancies this is meant to expose.
    """
    times = np.asarray(times, dtype=float)
    if times.shape != reference.times.shape or np.any(times != reference.times):
        raise ValueError("sample grids differ; integrate both on the same grid")
    errors = np.linalg.norm(np.asarray(unitaries, dtype=complex)
                            - reference.unitaries, axis=(-2, -1))
    peak = int(np.argmax(errors))
    return ComparisonReport(max_frobenius_error=float(errors[peak]),
                            time_of_max=float(times[peak]),
                            errors=errors,
                            oracle_drift=reference.drift)


def schrodinger_residuals(times, unitaries, ham) -> np.ndarray:
    """Frobenius norm of i dU/dt - H(t) U(t) along a sampled trajectory.

    dU/dt comes from second-order finite differences on the sample
    grid, so the result has a truncation floor proportional to the
    grid spacing squared; it measures trajectory consistency, not
    integrator tolerance, unless the grid is fine.
    """
    times = np.asarray(times, dtype=float)
    u = np.asarray(unitaries, dtype=complex)
    if len(times) < 2:
        return np.zeros(len(times))
    du = np.gradient(u, times, axis=0, edge_order=2 if len(times) > 2 else 1)
    resid = 1j * du - ham.matrix_grid(times) @ u
    return np.linalg.norm(resid, axis=(-2, -1))
