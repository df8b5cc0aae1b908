"""Tests for the three-level chart: coupled Riccati flow, normalization
identities, and reconstruction."""

import numpy as np

from chartprop import (ConstantDrive, CosineDrive, Hamiltonian2, Hamiltonian3,
                       IntegratorSettings, SumDrive, propagate, two_level)
from chartprop.three_level import (chart_rhs, coords_from_states,
                                   delta_residuals, log_delta_rates,
                                   reconstruct_batch)
from exact import exact_unitaries


def state(x=0j, y=0j, z=0j, phi1=0.0, phi2=0.0):
    x, y, z = complex(x), complex(y), complex(z)
    return np.array([x.real, x.imag, y.real, y.imag, z.real, z.imag,
                     phi1, phi2])


def constant(h1=0.0, h2=0.0, v1=0j, v2=0j, v3=0j):
    return Hamiltonian3(h1=ConstantDrive(h1), h2=ConstantDrive(h2),
                        v1=ConstantDrive(v1), v2=ConstantDrive(v2),
                        v3=ConstantDrive(v3))


def rates(vec, **entries):
    """(dx, dy, dz, dphi1, dphi2) from chart_rhs at one point, for
    constant Hamiltonian entries."""
    d = chart_rhs(constant(**entries))(0.0, vec.tolist())
    assert len(d) == 8 and all(type(value) is float for value in d)
    return (complex(d[0], d[1]), complex(d[2], d[3]), complex(d[4], d[5]),
            d[6], d[7])


def random_complex(rng, scale=1.0):
    return complex(*rng.normal(size=2)) * scale


def deltas(vec):
    x, y, z, _, _ = coords_from_states(vec)
    return (1.0 + abs(x) ** 2 + abs(y) ** 2,
            1.0 + abs(z) ** 2 + abs(x * z - y) ** 2)


def test_rhs_origin_with_diagonal_hamiltonian():
    # Diagonal terms only wind the phases: dphi1 = -h1, dphi2 = -h2.
    dx, dy, dz, dphi1, dphi2 = rates(state(), h1=1.0, h2=-0.5)
    assert (dx, dy, dz) == (0.0j, 0.0j, 0.0j)
    assert dphi1 == -1.0
    assert dphi2 == 0.5


def test_rhs_origin_with_couplings():
    # At the origin each coordinate is seeded by its own coupling:
    # dx = -i v1, dy = -i v2, dz = -i v3.
    dx, dy, dz, dphi1, dphi2 = rates(state(), v1=1.0 + 0j, v2=2.0j,
                                     v3=-1.0 + 0j)
    assert dx == -1.0j
    assert dy == 2.0 + 0.0j
    assert dz == 1.0j
    assert dphi1 == 0.0
    assert dphi2 == 0.0


def test_rhs_quadratic_saturation():
    # x = 1 with real v1: the linear and quadratic Riccati terms cancel,
    # and the drive shows up only through the phases.
    dx, dy, dz, dphi1, dphi2 = rates(state(x=1.0), v1=1.0 + 0j)
    assert (dx, dy, dz) == (0.0j, 0.0j, 0.0j)
    assert dphi1 == -1.0
    assert dphi2 == 1.0


def test_phase_rates_are_real_floats():
    # Each phase rate is the real part of its closed form, exactly.
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, y, z = (random_complex(rng) for _ in range(3))
        vec = state(x, y, z, rng.normal(), rng.normal())
        h1, h2 = rng.normal(), rng.normal()
        v1, v2, v3 = (random_complex(rng) for _ in range(3))
        _, _, _, dphi1, dphi2 = rates(vec, h1=h1, h2=h2, v1=v1, v2=v2, v3=v3)
        v1c, v2c, v3c = v1.conjugate(), v2.conjugate(), v3.conjugate()
        assert dphi1 == -(h1 + v1c * x + v2c * y).real
        assert dphi2 == (-h2 - v3c * z + v1c * x + v2c * x * z).real


def test_log_delta_rates_examples():
    # x = 1, v1 = i: the first normalization grows at rate 2.
    r1, r2 = log_delta_rates(1.0 + 0j, 0j, 0j, 1.0j, 0j, 0j)
    assert (r1, r2) == (2.0, 0.0)
    # z = i, v3 = 1: only the second normalization responds.
    r1, r2 = log_delta_rates(0j, 0j, 1.0j, 0j, 0j, 1.0 + 0j)
    assert (r1, r2) == (0.0, -2.0)


def test_log_delta_rates_match_flow_derivative():
    # d/dt ln Delta along the chart flow, by finite differences of the
    # state moved with the rhs, must agree with the closed form.
    rng = np.random.default_rng(10)
    for _ in range(50):
        x, y, z = (random_complex(rng, 0.8) for _ in range(3))
        vec = state(x, y, z, rng.normal(), rng.normal())
        h1, h2 = rng.normal(), rng.normal()
        v1, v2, v3 = (random_complex(rng) for _ in range(3))
        d = np.array(chart_rhs(constant(h1, h2, v1, v2, v3))(0.0,
                                                            vec.tolist()))
        eps = 1e-7
        plus, minus = deltas(vec + eps * d), deltas(vec - eps * d)
        fd1 = (np.log(plus[0]) - np.log(minus[0])) / (2 * eps)
        fd2 = (np.log(plus[1]) - np.log(minus[1])) / (2 * eps)
        r1, r2 = log_delta_rates(x, y, z, v1, v2, v3)
        assert abs(fd1 - r1) < 1e-6 * (1 + abs(r1))
        assert abs(fd2 - r2) < 1e-6 * (1 + abs(r2))


def test_reconstruction_x_only_rotation():
    u = reconstruct_batch(state(x=1.0))
    s = 1 / np.sqrt(2)
    expected = np.array([[s, -s, 0], [s, s, 0], [0, 0, 1]], dtype=complex)
    assert np.linalg.norm(u - expected) < 1e-15


def test_reconstruction_column_structure():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x, y, z = (random_complex(rng) for _ in range(3))
        phi1, phi2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        vec = state(x, y, z, phi1, phi2)
        u = reconstruct_batch(vec)
        d1, d2 = deltas(vec)
        # first column: (1, x, y) normalized, phase phi1
        c1 = np.array([1.0, x, y]) * np.exp(1j * phi1) / np.sqrt(d1)
        assert np.max(np.abs(u[:, 0] - c1)) < 1e-14
        # third column: (conj(xz - y), -conj(z), 1) / sqrt(d2), phase
        # -(phi1 + phi2)
        cross = x * z - y
        c3 = (np.array([np.conj(cross), -np.conj(z), 1.0])
              * np.exp(-1j * (phi1 + phi2)) / np.sqrt(d2))
        assert np.max(np.abs(u[:, 2] - c3)) < 1e-14


def test_chart_matches_unitary_flow_locally():
    # Coordinates read off the exact propagator: x = u10/u00, y = u20/u00,
    # and z from the third column, which is proportional to
    # (conj(xz - y), -conj(z), 1).
    rng = np.random.default_rng(14)
    for _ in range(10):
        h1, h2 = rng.normal(size=2) * 0.6
        v1, v2, v3 = (random_complex(rng, 0.6) for _ in range(3))
        mat = np.array([
            [h1, np.conj(v1), np.conj(v2)],
            [v1, h2, np.conj(v3)],
            [v2, v3, -(h1 + h2)],
        ])
        t0, dt = 0.3, 1e-6

        def coords(t):
            u = exact_unitaries(mat, [t])[0]
            x = u[1, 0] / u[0, 0]
            y = u[2, 0] / u[0, 0]
            z = -np.conj(u[1, 2] / u[2, 2])
            phi1 = np.angle(u[0, 0])
            return x, y, z, phi1

        x0, y0, z0, phi0 = coords(t0)
        xp, yp, zp, phip = coords(t0 + dt)
        xm, ym, zm, phim = coords(t0 - dt)
        dx, dy, dz, dphi1, _ = rates(state(x0, y0, z0, phi0), h1=h1, h2=h2,
                                     v1=v1, v2=v2, v3=v3)
        assert abs((xp - xm) / (2 * dt) - dx) < 1e-6
        assert abs((yp - ym) / (2 * dt) - dy) < 1e-6
        assert abs((zp - zm) / (2 * dt) - dz) < 1e-6
        assert abs((phip - phim) / (2 * dt) - dphi1) < 1e-6


def test_two_level_block_embedding():
    # v2 = v3 = 0 with h2 = -h1 leaves the third level inert; the x
    # equation must then reduce to the two-level Riccati flow and phi1
    # to the two-level phase.
    rng = np.random.default_rng(15)
    for _ in range(50):
        z = random_complex(rng)
        h = rng.normal()
        v = random_complex(rng)
        dx, dy, dz, dphi1, _ = rates(state(x=z, phi1=0.7, phi2=-0.7),
                                     h1=h, h2=-h, v1=v)
        ham2 = Hamiltonian2(h=ConstantDrive(h), v=ConstantDrive(v))
        d2 = two_level.chart_rhs(ham2)(0.0, [z.real, z.imag, 0.7])
        dz2, dphi2 = complex(d2[0], d2[1]), d2[2]
        assert abs(dx - dz2) < 1e-15 * (1 + abs(dz2))
        assert dy == 0.0j
        assert dz == 0.0j
        assert abs(dphi1 - dphi2) < 1e-15 * (1 + abs(dphi2))


def test_batch_reconstruction_matches_single():
    rng = np.random.default_rng(16)
    states = rng.normal(size=(30, 8))
    batch = reconstruct_batch(states)
    assert batch.shape == (30, 3, 3)
    for i in range(0, 30, 5):
        single = reconstruct_batch(states[i])
        assert np.max(np.abs(batch[i] - single)) < 1e-15


def test_delta_residual_guards():
    ham = constant(v1=0.5)
    r1, r2 = delta_residuals(np.array([0.0]), np.zeros((1, 8)), ham)
    assert np.array_equal(r1, [0.0]) and np.array_equal(r2, [0.0])
    times = np.array([0.0, 1e-3])
    states = np.zeros((2, 8))
    states[1, 0] = 5e-4  # roughly the flow of v1 = 0.5 for 1e-3
    r1, r2 = delta_residuals(times, states, ham)
    assert r1.shape == (2,)
    assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))


# The spin-1 lift of criterion 2's h = 0, v = 1: h1 = h2 = 0 and
# v1 = v3 = sqrt(2), whose orbit is x = z = -i sqrt(2) tan t and
# y = -tan^2 t with both phases 0, up to the pole at pi / 2. Each bound
# is at least 10 times the error measured when the test was added.
SPIN1_TANGENT = Hamiltonian3(h1=ConstantDrive(0.0), h2=ConstantDrive(0.0),
                             v1=ConstantDrive(np.sqrt(2.0)),
                             v2=ConstantDrive(0.0),
                             v3=ConstantDrive(np.sqrt(2.0)))


def test_spin1_tangent_orbit_matches_closed_form():
    # criterion 2's tight settings and grid; measured: x 2.2e-8,
    # y 7.2e-8 (2.1e-9 relative to 1 + tan^2 t), z 2.0e-8, phases 0,
    # U 5.2e-10
    tight = IntegratorSettings(max_step=0.1, rel_tol=1e-10, abs_tol=1e-13)
    grid = np.linspace(0.0, 1.4, 141)
    traj, unitaries, _ = propagate(SPIN1_TANGENT, 0.0, 1.4, tight, grid)
    assert traj.status == "completed"
    x, y, z, phi1, phi2 = coords_from_states(traj.states)
    tan = np.tan(traj.times)
    assert np.max(np.abs(x + 1j * np.sqrt(2.0) * tan)) <= 3e-7
    assert np.max(np.abs(y + tan ** 2)) <= 1e-6
    assert np.max(np.abs(y + tan ** 2) / (1.0 + tan ** 2)) <= 3e-8
    assert np.max(np.abs(z + 1j * np.sqrt(2.0) * tan)) <= 3e-7
    assert np.max(np.abs(phi1)) <= 1e-12 and np.max(np.abs(phi2)) <= 1e-12
    exact = exact_unitaries(SPIN1_TANGENT.matrix(0.0), grid)
    assert np.max(np.linalg.norm(unitaries - exact, axis=(1, 2))) <= 1e-8


def test_spin1_tangent_orbit_stops_before_the_pole():
    # criterion 2's pole settings; measured: the stop at 1.5697971,
    # 1.0e-3 before pi / 2, after 26 escape halvings
    settings = IntegratorSettings(max_step=0.1, rel_tol=1e-9, abs_tol=1e-12)
    traj, _, _ = propagate(SPIN1_TANGENT, 0.0, 2.0, settings,
                           np.linspace(0.0, 2.0, 21))
    assert traj.status == "singularity"
    assert 0.0 < np.pi / 2 - traj.singularity_time <= 0.01
    assert traj.stats.escape_halvings > 0


def spin1(u):
    """D1 of each 2x2 unitary [[a, b], [c, d]] in u: the 3x3 operator
    [[a^2, r ab, b^2], [r ac, ad + bc, r bd], [c^2, r cd, d^2]], r = sqrt 2."""
    a, b, c, d = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    r = np.sqrt(2.0)
    rows = [[a * a, r * a * b, b * b],
            [r * a * c, a * d + b * c, r * b * d],
            [c * c, r * c * d, d * d]]
    return np.moveaxis(np.array(rows), 2, 0)


def test_spin1_lift_of_a_time_dependent_drive():
    # H2 = (h, v) lifts to H3 = (2h, 0, sqrt2 v, 0, sqrt2 v), and U3 =
    # D1(U2): two chart runs, no oracle. Measured: 1.96e-10 (Frobenius,
    # largest over the 201 samples); the bound is 10 times that.
    def drives(h_scale, v_scale):
        return (CosineDrive(0.3 * h_scale, 1.1),
                SumDrive((ConstantDrive((0.8 + 0.2j) * v_scale),
                          CosineDrive(0.5j * v_scale, 0.7))))
    h, v = drives(1.0, 1.0)
    h1, v13 = drives(2.0, np.sqrt(2.0))
    zero = ConstantDrive(0.0)
    settings = IntegratorSettings(max_step=0.1, rel_tol=1e-11, abs_tol=1e-14)
    grid = np.linspace(0.0, 10.0, 201)
    traj2, u2, _ = propagate(Hamiltonian2(h=h, v=v), 0.0, 10.0, settings,
                             grid)
    traj3, u3, _ = propagate(Hamiltonian3(h1=h1, h2=zero, v1=v13, v2=zero,
                                          v3=v13),
                             0.0, 10.0, settings, grid)
    assert traj2.status == traj3.status == "completed"
    assert np.max(np.linalg.norm(u3 - spin1(u2), axis=(1, 2))) <= 2e-9
