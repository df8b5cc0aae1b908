"""Two-level canonical form: a complex Riccati coordinate plus a phase.

The evolution operator of a traceless Hermitian 2x2 Hamiltonian factors
as U = Q(z) * diag(e^{i phi}, e^{-i phi}) with

    Q(z) = (1 + |z|^2)^(-1/2) * [[1, -conj(z)], [z, 1]],

so the full matrix flow collapses to one complex coordinate z on the
Bloch sphere plus one real phase phi (3 real unknowns instead of 8).
z obeys a Riccati equation and phi a quadrature; both right-hand sides
live here, together with the reconstruction of U and the error weights
that measure integration errors in the geometry of U, all on the flat
state vector the integrator advances. `three_level` exposes the same names.
The zero state is the chart origin, the image of U = I.

z covers the sphere minus one point. Trajectories can run off the chart
in finite time (a genuine Riccati blow-up, not a numerical artifact);
anything with |z| at or beyond SINGULARITY_THRESHOLD counts as escaped.
"""

from __future__ import annotations

import numpy as np

from .integrate import _chart_rhs

SINGULARITY_THRESHOLD = 1e6

STATE_SIZE = 3  # flat layout: [Re z, Im z, phi]

COORD_COLUMNS = ("re_z", "im_z", "phi")


def coords_from_states(states) -> tuple:
    """(z, phi) arrays from stacked flat states of shape (N, 3)."""
    states = np.asarray(states, dtype=float)
    return states[..., 0] + 1j * states[..., 1], states[..., 2]


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


# The rates of chart_rhs, stated once for `integrate`, which compiles
# them into chart_rhs and into the step attempt that writes them inline
# (see `integrate._attempt` for the layout). The lines repeat, one
# operation at a time, what CPython does with the complex values
# a = conj(v) z and B = (a + 2 h) z - v: a float meeting a complex is
# promoted with a +0.0 imaginary part, and x - (-p) is written x + p, the
# same IEEE operation, so every bit and signed zero is kept.
_RATES = (
    "h, v",
    "re_z, im_z",
    """
    v_re = v.real
    v_im = v.imag
    # a = conj(v) z, s = a + 2 h, B = s z - v
    a_re = v_re * re_z + v_im * im_z
    a_im = v_re * im_z - v_im * re_z
    s_re = a_re + 2.0 * h
    s_im = a_im + 0.0
    b_re = (s_re * re_z - s_im * im_z) - v_re
    b_im = (s_re * im_z + s_im * re_z) - v_im
    """,
    ("-b_im", "b_re", "-(a_re + h)"))


def chart_rhs(ham):
    """Flat-vector derivative function for a 2-level Hamiltonian.

        dz   = i * (conj(v) z^2 + 2 h z - v)
        dphi = -(v conj(z) + conj(v) z + 2 h) / 2

    The rates compute a = conj(v) z once: with B = (a + 2 h) z - v,
    dz = i B is returned as (-Im B, Re B), with no complex
    multiplication, and dphi = -(Re a + h). v conj(z) and conj(v) z
    have the same real part to the bit, so dphi keeps the bits of the
    expanded form and is exactly real; dz moves in its last bits.

    The rates are written in real arithmetic (`_RATES`) that repeats
    CPython's complex operations one by one, signed zeros included, so
    that `integrate` can write them inline in its step attempt without
    changing a bit: there a stage builds no complex value and no input
    for phi, which no rate reads. `ham.sample` is called once per
    distinct t: the function keeps the last (t, sample) pair, since the
    6th and 7th stages of a DOPRI5 attempt both run at t + h. That is
    exact, as a sample depends on t alone. A `ham.sample` that raises
    leaves the pair as it was.
    """
    return _chart_rhs(_RATES, ham.sample)


def error_weight(vec) -> tuple:
    """Per-component error weights of a flat state for `integrate`.

    An error dz moves the operator by about |dz| / (1 + |z|^2), the
    Fubini-Study line element, while an error in phi moves it by about
    |dphi|. So both parts of z get 1 + |z|^2 and phi gets 1.
    """
    re_z, im_z, _ = vec
    wz = 1.0 + (re_z * re_z + im_z * im_z)
    return wz, wz, 1.0


def escaped(vec) -> bool:
    """True once the flat state has left the chart's trusted region."""
    re_z, im_z, _ = vec
    return re_z * re_z + im_z * im_z >= SINGULARITY_THRESHOLD ** 2
