"""Three-level canonical form on flag-manifold chart coordinates.

A traceless Hermitian 3x3 Hamiltonian drives the evolution operator
through three complex chart coordinates (x, y, z) and two phases
(phi1, phi2): 8 real unknowns instead of the 18 of the raw matrix flow.
The operator is rebuilt as U = V * D * P where V collects the chart
coordinates column-wise, D = diag(1/sqrt(d1), sqrt(d1/d2), sqrt(d2))
normalizes with

    d1 = 1 + |x|^2 + |y|^2,      d2 = 1 + |z|^2 + |x z - y|^2,

and P = diag(e^{i phi1}, e^{i phi2}, e^{-i(phi1 + phi2)}) carries the
phases (the third one is never independent). The x, y, z equations are
coupled Riccati equations; phi1, phi2 are quadratures.

The logarithmic rates of d1 and d2 obey closed-form identities in the
chart coordinates and Hamiltonian entries. They are implemented here as
`log_delta_rates` and used as an independent diagnostic: a transcription
error in any coordinate equation shows up as a mismatch between the
identity and the finite-differenced d1, d2 along a trajectory.

The flat state is [Re x, Im x, Re y, Im y, Re z, Im z, phi1, phi2],
its zero the chart origin, the image of U = I. `charts._describe` builds
the flat-vector functions from the rates `_RATES`, as for `two_level`.

Same chart caveat as the two-level case: one chart cannot cover the
whole manifold, so trajectories may blow up in finite time; coordinates
reaching SINGULARITY_THRESHOLD count as escaped.
"""

from __future__ import annotations

import numpy as np

from .charts import _describe
from .integrate import _Rates

SINGULARITY_THRESHOLD = 1e6

COORD_COLUMNS = ("re_x", "im_x", "re_y", "im_y", "re_z", "im_z",
                 "phi1", "phi2", "phi3")


def _deltas(x, y, z):
    """Normalization denominators d1, d2 (both >= 1) and x z - y."""
    cross = x * z - y
    d1 = 1.0 + np.abs(x) ** 2 + np.abs(y) ** 2
    d2 = 1.0 + np.abs(z) ** 2 + np.abs(cross) ** 2
    return d1, d2, cross


def log_delta_rates(x, y, z, v1, v2, v3) -> tuple:
    """(d ln d1 / dt, d ln d2 / dt) in closed form, on arrays or scalars.

    These follow from the coordinate equations alone, so checking them
    against finite differences of d1, d2 along a trajectory
    cross-validates the x, y, z right-hand sides without any reference
    to the evolution operator. Both are differences of conjugate pairs,
    hence -2 or +2 times an imaginary part.
    """
    rate1 = -2.0 * (v1.conjugate() * x + v2.conjugate() * y).imag
    cross = x * z - y
    rate2 = 2.0 * ((v2.conjugate() * cross).imag - (v3.conjugate() * z).imag)
    return rate1, rate2


def coord_block(states) -> np.ndarray:
    """Output-table columns named by COORD_COLUMNS, shape (N, 9): the
    flat states as integrated, to the bit, and the dependent phase
    phi3 = -(phi1 + phi2) spelled out."""
    states = np.asarray(states, dtype=float)
    return np.column_stack([states, -(states[:, 6] + states[:, 7])])


def reconstruct_batch(states) -> np.ndarray:
    """Stacked evolution operators along a trajectory, shape (N, 3, 3).

    Special-unitary by construction: a unitarity failure signals an
    implementation bug, not bad input, since the normalized column frame
    is unitary for every finite chart point.
    """
    x, y, z, phi1, phi2 = coords_from_states(states)
    d1, d2, cross = _deltas(x, y, z)
    w = np.conjugate(x) + np.conjugate(y) * z

    e1 = np.exp(1j * phi1)
    e2 = np.exp(1j * phi2)
    e3 = np.conjugate(e1 * e2)
    # Column scalings: normalization diag(1/sqrt(d1), sqrt(d1/d2), sqrt(d2))
    # times the phase diag(e1, e2, e3).
    c1 = e1 / np.sqrt(d1)
    c2 = e2 * np.sqrt(d1 / d2)
    c3 = e3 * np.sqrt(d2)

    u = np.empty(x.shape + (3, 3), dtype=complex)
    u[..., 0, 0] = c1
    u[..., 1, 0] = x * c1
    u[..., 2, 0] = y * c1
    u[..., 0, 1] = -w / d1 * c2
    u[..., 1, 1] = (1.0 - x * w / d1) * c2
    u[..., 2, 1] = (z - y * w / d1) * c2
    u[..., 0, 2] = np.conjugate(cross) / d2 * c3
    u[..., 1, 2] = -np.conjugate(z) / d2 * c3
    u[..., 2, 2] = c3 / d2
    return u


# The rates (an `integrate._Rates`) that `charts._describe` builds on:
#
#     dx = -i * [v1 + (h2 - h1) x - conj(v1) x^2 + conj(v3) y - conj(v2) x y]
#     dy = -i * [v2 + (h3 - h1) y - conj(v2) y^2 + v3 x - conj(v1) x y]
#     dz = -i * [v3 + (h3 - h2) z - conj(v3) z^2 + (x z - y)(conj(v1) + conj(v2) z)]
#     dphi1 = -Re(h1 + conj(v1) x + conj(v2) y)
#     dphi2 =  Re(-h2 - conj(v3) z + conj(v1) x + conj(v2) x z)
#
# The body shares the products a, b, c and g between the brackets B of
# the coordinate rates and returns -i B as (Im B, -Re B). That moves the
# last bits of the coordinate rates against the expanded forms; the phase
# rates add the same real parts in the same order, so they keep their
# bits and stay exactly real. conj(v) is (v_re, -v_im), and a float
# meeting a complex gets a +0.0 imaginary part (sg_im = 0.0 - ...).
_RATES = _Rates(
    "h1, h2, v1, v2, v3",
    "v1, v2, v3",
    "re_x, im_x, re_y, im_y, re_z, im_z",
    """
    h3 = -(h1 + h2)
    # a = conj(v1) x, b = conj(v2) y, c = conj(v3) z, g = a + b
    a_re = v1_re * re_x + v1_im * im_x
    a_im = v1_re * im_x - v1_im * re_x
    b_re = v2_re * re_y + v2_im * im_y
    b_im = v2_re * im_y - v2_im * re_y
    c_re = v3_re * re_z + v3_im * im_z
    c_im = v3_re * im_z - v3_im * re_z
    g_re = a_re + b_re
    sg_im = 0.0 - (a_im + b_im)
    # Bx = v1 + (h2 - h1 - g) x + conj(v3) y
    sx_re = (h2 - h1) - g_re
    bx_re = ((v1_re + (sx_re * re_x - sg_im * im_x))
             + (v3_re * re_y + v3_im * im_y))
    bx_im = ((v1_im + (sx_re * im_x + sg_im * re_x))
             + (v3_re * im_y - v3_im * re_y))
    # By = v2 + (h3 - h1 - g) y + v3 x
    sy_re = (h3 - h1) - g_re
    by_re = ((v2_re + (sy_re * re_y - sg_im * im_y))
             + (v3_re * re_x - v3_im * im_x))
    by_im = ((v2_im + (sy_re * im_y + sg_im * re_y))
             + (v3_re * im_x + v3_im * re_x))
    # Bz = v3 + (h3 - h2 - c) z + e f, e = x z - y, f = conj(v1) + conj(v2) z
    sz_re = (h3 - h2) - c_re
    sz_im = 0.0 - c_im
    e_re = (re_x * re_z - im_x * im_z) - re_y
    e_im = (re_x * im_z + im_x * re_z) - im_y
    f_re = v1_re + (v2_re * re_z + v2_im * im_z)
    f_im = -v1_im + (v2_re * im_z - v2_im * re_z)
    bz_re = ((v3_re + (sz_re * re_z - sz_im * im_z))
             + (e_re * f_re - e_im * f_im))
    bz_im = ((v3_im + (sz_re * im_z + sz_im * re_z))
             + (e_re * f_im + e_im * f_re))
    # m = conj(v2) x, whose product with z ends dphi2
    m_re = v2_re * re_x + v2_im * im_x
    m_im = v2_re * im_x - v2_im * re_x
    """,
    ("bx_im", "-bx_re", "by_im", "-by_re", "bz_im", "-bz_re",
     "-((h1 + a_re) + b_re)",
     "((-h2 - c_re) + a_re) + (m_re * re_z - m_im * im_z)"))

(STATE_SIZE, coords_from_states, chart_rhs, error_weight,
 escaped) = _describe(_RATES, SINGULARITY_THRESHOLD)


def delta_residuals(times, states, ham) -> tuple:
    """Deviation of finite-differenced d(ln d1)/dt, d(ln d2)/dt from the
    closed-form identities, along a sampled trajectory.

    Returns two arrays over the grid. Central differences are second
    order, so the truncation floor scales with the grid spacing squared;
    use a fine grid when the target is tight.
    """
    times = np.asarray(times, dtype=float)
    x, y, z, _, _ = coords_from_states(states)
    if len(times) < 2:
        return np.zeros(len(times)), np.zeros(len(times))
    d1, d2, _ = _deltas(x, y, z)
    _, _, v1, v2, v3 = ham.sample_grid(times)
    rate1, rate2 = log_delta_rates(x, y, z, v1, v2, v3)
    order = 2 if len(times) > 2 else 1
    fd1 = np.gradient(np.log(d1), times, edge_order=order)
    fd2 = np.gradient(np.log(d2), times, edge_order=order)
    return np.abs(fd1 - rate1), np.abs(fd2 - rate2)


def extra_residuals(times, states, ham) -> dict:
    """Chart-specific residual columns by name: the two log-delta
    identities of `delta_residuals`."""
    d1_res, d2_res = delta_residuals(times, states, ham)
    return {"delta1": d1_res, "delta2": d2_res}
