"""Two-level canonical form: a complex Riccati coordinate plus a phase.

The evolution operator of a traceless Hermitian 2x2 Hamiltonian factors
as U = Q(z) * diag(e^{i phi}, e^{-i phi}) with

    Q(z) = (1 + |z|^2)^(-1/2) * [[1, -conj(z)], [z, 1]],

so the full matrix flow collapses to one complex coordinate z on the
Bloch sphere plus one real phase phi (3 real unknowns instead of 8).
z obeys a Riccati equation and phi a quadrature. The flat state is
[Re z, Im z, phi], its zero the chart origin, the image of U = I.
`charts._describe` builds the flat-vector functions from the rates
`_RATES`, as for `three_level`.

z covers the sphere minus one point. Trajectories can run off the chart
in finite time (a genuine Riccati blow-up, not a numerical artifact);
anything with |z| at or beyond SINGULARITY_THRESHOLD counts as escaped.
"""

from __future__ import annotations

import numpy as np

from .charts import _describe
from .integrate import _Rates

SINGULARITY_THRESHOLD = 1e6

COORD_COLUMNS = ("re_z", "im_z", "phi")


def coord_block(states) -> np.ndarray:
    """Output-table columns named by COORD_COLUMNS, shape (N, 3): the
    flat states as integrated, to the bit."""
    return np.asarray(states, dtype=float)


def extra_residuals(times, states, ham) -> dict:
    """Chart-specific residual columns by name; this chart has none."""
    return {}


def reconstruct_batch(states) -> np.ndarray:
    """Stacked evolution operators along a trajectory, shape (N, 2, 2);
    special-unitary by construction."""
    z, phi = coords_from_states(states)
    root = np.sqrt(1.0 + np.abs(z) ** 2)
    ep = np.exp(1j * phi)
    em = np.conjugate(ep)
    u = np.empty(z.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = ep / root
    u[..., 0, 1] = -np.conjugate(z) * em / root
    u[..., 1, 0] = z * ep / root
    u[..., 1, 1] = em / root
    return u


# The rates (an `integrate._Rates`) that `charts._describe` builds on:
#
#     dz   = i * (conj(v) z^2 + 2 h z - v)
#     dphi = -(v conj(z) + conj(v) z + 2 h) / 2
#
# With a = conj(v) z and B = (a + 2 h) z - v, dz = i B is (-Im B, Re B)
# and dphi = -(Re a + h). v conj(z) and conj(v) z have the same real part
# to the bit, so dphi keeps the bits of the expanded form and is exactly
# real; dz moves in its last bits. In the lines, a float meeting a
# complex gets a +0.0 imaginary part (s_im = a_im + 0.0).
_RATES = _Rates(
    "h, v",
    "v",
    "re_z, im_z",
    """
    # a = conj(v) z, s = a + 2 h, B = s z - v
    a_re = v_re * re_z + v_im * im_z
    a_im = v_re * im_z - v_im * re_z
    s_re = a_re + 2.0 * h
    s_im = a_im + 0.0
    b_re = (s_re * re_z - s_im * im_z) - v_re
    b_im = (s_re * im_z + s_im * re_z) - v_im
    """,
    ("-b_im", "b_re", "-(a_re + h)"))

(STATE_SIZE, coords_from_states, chart_rhs, error_weight,
 escaped) = _describe(_RATES, SINGULARITY_THRESHOLD)
