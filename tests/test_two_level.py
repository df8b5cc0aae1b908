"""Tests for the two-level chart: Riccati flow and reconstruction."""

import numpy as np

from chartprop import ConstantDrive, Hamiltonian2
from chartprop.two_level import (chart_rhs, coords_from_states,
                                 reconstruct_batch)
from exact import exact_unitaries


def rates(z, h, v, phi=0.0):
    """(dz, dphi) from chart_rhs at one point, for constant entries (h, v)."""
    ham = Hamiltonian2(h=ConstantDrive(h), v=ConstantDrive(v))
    z = complex(z)
    d = chart_rhs(ham)(0.0, [z.real, z.imag, phi])
    assert len(d) == 3 and all(type(value) is float for value in d)
    return complex(d[0], d[1]), d[2]


def test_rhs_off_diagonal_coupling():
    # h = 0, v = i at z = 1: dz/dt = i(conj(v) z^2 - v) = 2, dphi/dt = 0.
    dz, dphi = rates(1.0 + 0.0j, 0.0, 1.0j)
    assert dz == 2.0 + 0.0j
    assert dphi == 0.0


def test_rhs_pure_detuning():
    # v = 0 keeps the origin fixed and winds the phase at rate -h.
    dz, dphi = rates(0.0j, 0.5, 0.0j)
    assert dz == 0.0j
    assert dphi == -0.5


def test_rhs_phase_rate_is_real_by_construction():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-2, 2)
        h = rng.normal()
        v = complex(*rng.normal(size=2))
        _, dphi = rates(z, h, v, rng.normal())
        # v conj(z) + conj(v) z + 2h is a sum of conjugate pairs plus a
        # real number, so the rate equals its own closed form exactly.
        assert dphi == -0.5 * (v * z.conjugate() + v.conjugate() * z
                               + 2 * h).real


def test_reconstruction_first_column_structure():
    z, phi = 0.6 - 0.3j, 0.9
    u = reconstruct_batch(np.array([z.real, z.imag, phi]))
    norm = np.sqrt(1 + abs(z) ** 2)
    assert abs(u[0, 0] - np.exp(1j * phi) / norm) < 1e-15
    assert abs(u[1, 0] - z * np.exp(1j * phi) / norm) < 1e-15
    assert abs(u[0, 1] + z.conjugate() * np.exp(-1j * phi) / norm) < 1e-15
    assert abs(u[1, 1] - np.exp(-1j * phi) / norm) < 1e-15


def test_chart_matches_unitary_flow_locally():
    # Extract z = u10/u00 and phi = arg u00 from the exact propagator of
    # a constant Hamiltonian, then compare finite differences of those
    # coordinates against the chart vector field.
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rng.normal() * 0.7
        v = complex(*rng.normal(size=2)) * 0.7
        mat = np.array([[h, v.conjugate()], [v, h * -1.0]], dtype=complex)
        t0, dt = 0.4, 1e-6

        def coords(t):
            u = exact_unitaries(mat, [t])[0]
            return u[1, 0] / u[0, 0], np.angle(u[0, 0])

        z0, phi0 = coords(t0)
        zp, phip = coords(t0 + dt)
        zm, phim = coords(t0 - dt)
        dz, dphi = rates(z0, h, v, phi0)
        assert abs((zp - zm) / (2 * dt) - dz) < 1e-7
        assert abs((phip - phim) / (2 * dt) - dphi) < 1e-7


def test_coords_from_states_and_batch_reconstruction():
    rng = np.random.default_rng(8)
    states = rng.normal(size=(40, 3))
    z, phi = coords_from_states(states)
    assert np.array_equal(z, states[:, 0] + 1j * states[:, 1])
    assert np.array_equal(phi, states[:, 2])
    batch = reconstruct_batch(states)
    assert batch.shape == (40, 2, 2)
    for i in range(0, 40, 7):
        single = reconstruct_batch(states[i])
        # a stack and a single state may take different numpy loops
        assert np.max(np.abs(batch[i] - single)) < 1e-15
