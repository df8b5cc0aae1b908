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

Everything works on the flat state vector the integrator advances, and
`two_level` exposes the same names. The zero state is the chart origin,
the image of U = I.

Same chart caveat as the two-level case: one chart cannot cover the
whole manifold, so trajectories may blow up in finite time; coordinates
reaching SINGULARITY_THRESHOLD count as escaped.
"""

from __future__ import annotations

import numpy as np

SINGULARITY_THRESHOLD = 1e6

STATE_SIZE = 8  # flat layout: [Re x, Im x, Re y, Im y, Re z, Im z, phi1, phi2]

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


def coords_from_states(states) -> tuple:
    """(x, y, z, phi1, phi2) arrays from stacked flat states (N, 8)."""
    states = np.asarray(states, dtype=float)
    return (states[..., 0] + 1j * states[..., 1],
            states[..., 2] + 1j * states[..., 3],
            states[..., 4] + 1j * states[..., 5],
            states[..., 6], states[..., 7])


def coord_block(states) -> np.ndarray:
    """Output-table columns named by COORD_COLUMNS, shape (N, 9); the
    dependent phase phi3 = -(phi1 + phi2) is spelled out."""
    x, y, z, phi1, phi2 = coords_from_states(states)
    return np.column_stack([x.real, x.imag, y.real, y.imag, z.real, z.imag,
                            phi1, phi2, -(phi1 + phi2)])


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


def chart_rhs(ham):
    """Flat-vector derivative function for a 3-level Hamiltonian.

        dx = -i * [v1 + (h2 - h1) x - conj(v1) x^2 + conj(v3) y - conj(v2) x y]
        dy = -i * [v2 + (h3 - h1) y - conj(v2) y^2 + v3 x - conj(v1) x y]
        dz = -i * [v3 + (h3 - h2) z - conj(v3) z^2 + (x z - y)(conj(v1) + conj(v2) z)]
        dphi1 = -Re(h1 + conj(v1) x + conj(v2) y)
        dphi2 =  Re(-h2 - conj(v3) z + conj(v1) x + conj(v2) x z)

    The body factors out the products the equations share. With
    a = conj(v1) x, b = conj(v2) y, g = a + b and c = conj(v3) z, the
    brackets read v1 + (h2 - h1 - g) x + conj(v3) y,
    v2 + (h3 - h1 - g) y + v3 x and
    v3 + (h3 - h2 - c) z + (x z - y)(conj(v1) + conj(v2) z), and -i B is
    returned as (Im B, -Re B), with no complex multiplication. That moves
    the last bits of the coordinate rates against the expanded forms.
    The phase rates add the same real parts in the same order as the
    expanded forms, so they keep their bits and stay exactly real.

    `ham.sample` is called once per distinct t: the function keeps the
    last (t, sample) pair, since the 6th and 7th stages of a DOPRI5
    attempt both run at t + h. That is exact, as a sample depends on t
    alone. A `ham.sample` that raises leaves the pair as it was.
    """
    sample = ham.sample
    last_t = last = None

    def rhs(t, vec):
        nonlocal last_t, last
        if t != last_t:
            last = sample(t)
            last_t = t
        h1, h2, v1, v2, v3 = last
        re_x, im_x, re_y, im_y, re_z, im_z, _, _ = vec
        x = complex(re_x, im_x)
        y = complex(re_y, im_y)
        z = complex(re_z, im_z)
        h3 = -(h1 + h2)
        v1c = v1.conjugate()
        v2c = v2.conjugate()
        v3c = v3.conjugate()
        a = v1c * x
        b = v2c * y
        c = v3c * z
        g = a + b
        bx = v1 + (h2 - h1 - g) * x + v3c * y
        by = v2 + (h3 - h1 - g) * y + v3 * x
        bz = v3 + (h3 - h2 - c) * z + (x * z - y) * (v1c + v2c * z)
        dphi1 = -((h1 + a.real) + b.real)
        dphi2 = ((-h2 - c.real) + a.real) + (v2c * x * z).real
        return (bx.imag, -bx.real, by.imag, -by.real,
                bz.imag, -bz.real, dphi1, dphi2)
    return rhs


def error_weight(vec) -> tuple:
    """Per-component error weights of a flat state for `integrate`.

    An error dc in a chart coordinate c moves the operator by about
    |dc| / (1 + |c|^2), the Fubini-Study line element, while an error in
    a phase moves it by about its own size. So both parts of x, y and z
    get 1 + |c|^2 and the phases get 1.
    """
    re_x, im_x, re_y, im_y, re_z, im_z, _, _ = vec
    wx = 1.0 + (re_x * re_x + im_x * im_x)
    wy = 1.0 + (re_y * re_y + im_y * im_y)
    wz = 1.0 + (re_z * re_z + im_z * im_z)
    return wx, wx, wy, wy, wz, wz, 1.0, 1.0


def escaped(vec) -> bool:
    """True once any coordinate has left the chart's trusted region."""
    lim = SINGULARITY_THRESHOLD ** 2
    re_x, im_x, re_y, im_y, re_z, im_z, _, _ = vec
    return (re_x * re_x + im_x * im_x >= lim
            or re_y * re_y + im_y * im_y >= lim
            or re_z * re_z + im_z * im_z >= lim)


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
