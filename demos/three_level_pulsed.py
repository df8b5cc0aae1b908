"""Three-level ladder system driven by Gaussian pulses.

The three-level evolution operator lives on five chart coordinates:
three complex (x, y, z) and two phases. This demo runs a two-pulse
sequence, watches the normalization functions Delta1 and Delta2 grow
and shrink, and verifies the closed-form growth-rate identities that
the coordinates satisfy along any trajectory.
"""

import numpy as np

from chartprop import (ConstantDrive, GaussianDrive, Hamiltonian3,
                       IntegratorSettings, compare, integrate_schrodinger,
                       propagate, unitarity_errors)

# pulse 1 couples levels 1-2, pulse 2 couples levels 2-3, slight overlap
ham = Hamiltonian3(
    h1=ConstantDrive(0.1),
    h2=ConstantDrive(-0.05),
    v1=GaussianDrive(0.5, center=3.0, width=1.0),
    v2=ConstantDrive(0.0),
    v3=GaussianDrive(0.4 + 0.15j, center=6.0, width=1.2),
)

settings = IntegratorSettings(max_step=0.1)
times = np.linspace(0.0, 12.0, 6001)

traj, unitaries, chart = propagate(ham, 0.0, 12.0, settings, times)
traj.require_completed()

x, y, z, phi1, phi2 = chart.coords_from_states(traj.states)
d1 = 1 + np.abs(x) ** 2 + np.abs(y) ** 2
d2 = 1 + np.abs(z) ** 2 + np.abs(x * z - y) ** 2

populations = np.abs(unitaries[:, :, 0]) ** 2   # from initial state e1

print("two-pulse three-level sequence, t in [0, 12]")
print()
print("    t     Delta1   Delta2     P1      P2      P3")
for i in range(0, 6001, 500):
    print(f"  {times[i]:5.1f}  {d1[i]:7.3f}  {d2[i]:7.3f}  "
          f"{populations[i, 0]:.4f}  {populations[i, 1]:.4f}  "
          f"{populations[i, 2]:.4f}")

# the populations always sum to one because U stays unitary by
# construction; the defect is at rounding level no matter how long the
# run or how large the coordinates
print()
print(f"max |P1+P2+P3 - 1|:          {np.abs(populations.sum(axis=1) - 1).max():.3e}")
print(f"reconstruction unitarity:    {unitarity_errors(unitaries).max():.3e}")

# growth-rate identities: d(ln Delta)/dt has a closed form in the
# coordinates and the instantaneous couplings; the finite-difference
# residual is pure differencing noise
r1, r2 = chart.delta_residuals(traj.times, traj.states, ham)
print(f"Delta identity residuals:    {r1.max():.3e}, {r2.max():.3e}")

oracle = integrate_schrodinger(ham, 0.0, 12.0, settings, times)
report = compare(times, unitaries, oracle)
print(f"vs direct matrix integration: {report.max_frobenius_error:.3e}")
print(f"direct integration drift:     {oracle.drift:.3e}")
