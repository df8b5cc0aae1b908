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
from typing import Optional

import numpy as np

from .integrate import (IntegrationStats, IntegratorSettings,
                        compile_function, integrate)


@functools.cache
def _minus_i_product(dim):
    """The product -i M U of dim x dim complex matrices, generated and
    compiled once per dimension.

    product(m, y) takes M as its dim * dim entries in row-major order
    (complex or real numbers) and U as the real and imaginary parts of
    its entries, interleaved in row-major order, the oracle's state
    vector; it returns -i M U in that layout, as a tuple of floats. The
    body is straight-line code, one sum of dim products per entry, and
    -i (a + ib) is written as b - ia, with no multiplication. The source
    is registered with linecache under the filename
    "<oracle product n=dim>", so tracebacks show its lines.
    """
    n = dim * dim
    rows = [[f"m_{i * dim + k} * u_{k * dim + j}" for k in range(dim)]
            for i in range(dim) for j in range(dim)]
    lines = ["def product(m, y):",
             f"    {', '.join(f'm_{k}' for k in range(n))}, = m",
             f"    {', '.join(f'y_{k}' for k in range(2 * n))}, = y"]
    lines += [f"    u_{k} = c(y_{2 * k}, y_{2 * k + 1})" for k in range(n)]
    lines += [f"    s_{k} = {' + '.join(terms)}" for k, terms in enumerate(rows)]
    lines.append("    return ("
                 + ", ".join(f"s_{k}.imag, -s_{k}.real" for k in range(n))
                 + ")")
    return compile_function("\n".join(lines) + "\n",
                            f"<oracle product n={dim}>", "product",
                            {"c": complex})


def _schrodinger_rhs(ham):
    # The integrator passes the state as a list of floats and takes a
    # sequence back; the matrix entries go straight into the product.
    product = _minus_i_product(ham.dim)
    matrix = ham.matrix

    def rhs(t, vec):
        return product(matrix(t).ravel().tolist(), vec)
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
