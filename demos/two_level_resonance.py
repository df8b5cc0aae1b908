"""Two-level system under a cosine drive, propagated in chart coordinates.

The evolution operator U(t) of a driven two-level system is carried by
one complex Riccati variable z(t) and one real phase phi(t). This demo
integrates that pair for a detuned cosine drive with `propagate`, the
chart run `chartprop run` makes, which also rebuilds U on the time grid,
and checks the result against direct integration of i dU/dt = HU.

Run:  python3 demos/two_level_resonance.py
"""

import numpy as np

from chartprop import (ConstantDrive, CosineDrive, Hamiltonian2,
                       IntegratorSettings, compare, integrate_schrodinger,
                       propagate, unitarity_errors)

# detuning 0.15, coupling amplitude 0.5 at angular frequency 1.0
ham = Hamiltonian2(h=ConstantDrive(0.15),
                   v=CosineDrive(0.5, 1.0))

settings = IntegratorSettings(max_step=0.1)
times = np.linspace(0.0, 30.0, 301)

traj, unitaries, chart = propagate(ham, 0.0, 30.0, settings, times)
traj.require_completed()
z, _ = chart.coords_from_states(traj.states)

# |U[1,0]|^2 is the excited-state population for a system starting in
# the first basis state
population = np.abs(unitaries[:, 1, 0]) ** 2

print("driven two-level system, t in [0, 30]")
print(f"  samples: {len(times)}")
print(f"  max |z| along the trajectory: {np.abs(z).max():.4f}")
print(f"  max excited population:       {population.max():.4f}")
print()
print("    t      |z|      population")
for i in range(0, 301, 30):
    print(f"  {times[i]:5.1f}  {np.abs(z[i]):7.4f}  {population[i]:10.4f}")

# cross-check against the direct matrix integration
oracle = integrate_schrodinger(ham, 0.0, 30.0, settings, times)
report = compare(times, unitaries, oracle)
print()
print(f"max distance to the direct integration: "
      f"{report.max_frobenius_error:.3e} at t = {report.time_of_max:.2f}")
print(f"reconstruction unitarity defect:        "
      f"{unitarity_errors(unitaries).max():.3e}")
print(f"direct integration unitarity drift:     {oracle.drift:.3e}")

# The chart has a pole: a resonant pure coupling drives z to infinity
# in finite time. The integrator detects this and stops cleanly.
resonant = Hamiltonian2(h=ConstantDrive(0.0), v=ConstantDrive(1.0))
blowup, _, _ = propagate(resonant, 0.0, 2.0, settings,
                         np.linspace(0.0, 2.0, 21))
print()
print(f"resonant constant drive: status = {blowup.status}, "
      f"pole near t = {blowup.singularity_time:.6f} (pi/2 = {np.pi/2:.6f})")
