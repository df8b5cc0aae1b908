"""Direct integration of the matrix equation, and trajectory comparison.

The reference for checking a chart-coordinate run integrates
i dU/dt = H(t) U with the same Runge-Kutta engine but a completely
different state (all real components of U, no chart), so agreement
validates the chart equations rather than exercising the integrator
twice.

The direct integration applies no unitarity reprojection on purpose.
Its drift away from the unitary group is measured and reported; the
contrast with the chart reconstruction, which is unitary by
construction at any time, is the main comparative diagnostic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .integrate import (IntegrationStats, IntegratorSettings, _chart_rhs,
                        _Rates, integrate)


@functools.cache
def _rates(dim):
    """-i M U as rates (a `integrate._Rates`), built once per dimension.

    The drives m_k are the entries of M and the reads y_k the real and
    imaginary parts of U's entries, interleaved, all in row-major order.
    The body forms each entry s_k of M U as a sum of dim complex
    products, left to right; -i (a + ib) is returned as (b, -a).
    """
    n = dim * dim
    body = [f"u_{k} = complex(y_{2 * k}, y_{2 * k + 1})" for k in range(n)]
    body += [f"s_{i * dim + j} = " + " + ".join(
                 f"m_{i * dim + k} * u_{k * dim + j}" for k in range(dim))
             for i in range(dim) for j in range(dim)]
    return _Rates(", ".join(f"m_{k}" for k in range(n)), "",
                  ", ".join(f"y_{k}" for k in range(2 * n)),
                  "\n".join(body),
                  tuple(part for k in range(n)
                        for part in (f"s_{k}.imag", f"-s_{k}.real")))


def _schrodinger_rhs(ham):
    # integrate writes the rates inline, as for a chart, and samples
    # their drives, the matrix entries, once per distinct stage time:
    # the stage sampler makes the five ham.matrix calls of an attempt
    matrix = ham.matrix

    def sample(t):
        return matrix(t).ravel().tolist()

    def stages(t0, t1, t2, t3, t4):
        return (*sample(t0), *sample(t1), *sample(t2), *sample(t3),
                *sample(t4))
    return _chart_rhs(_rates(ham.dim), sample, stages)


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
    stats: IntegrationStats


@dataclass(frozen=True)
class ComparisonReport:
    """Per-sample Frobenius distances between two unitary trajectories."""

    max_frobenius_error: float
    time_of_max: float
    errors: np.ndarray


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
                            errors=errors)


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
