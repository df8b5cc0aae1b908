"""Tolerance ladder for the chart propagation of a pulsed system.

Runs `propagate` on one three-level scenario at a sequence of
tolerances and prints the final-time operator error against a tightly
converged reference. The chart's error weights make the tolerance act
on the operator, so the error falls roughly in proportion to it until
the rounding floor.
"""

from chartprop import (ConstantDrive, CosineDrive, GaussianDrive,
                       Hamiltonian3, IntegratorSettings, convergence_probe,
                       propagate)

ham = Hamiltonian3(
    h1=CosineDrive(0.3, 1.2),
    h2=ConstantDrive(-0.2),
    v1=GaussianDrive(0.9, center=4.0, width=1.0),
    v2=CosineDrive(0.25j, 2.0),
    v3=ConstantDrive(0.1),
)
t_end = 8.0

# reference: the same chart run at a tolerance far below anything probed
ref_settings = IntegratorSettings(max_step=0.05, rel_tol=1e-13,
                                  abs_tol=1e-16)
ref_traj, ref_unitaries, _ = propagate(ham, 0.0, t_end, ref_settings, [t_end])
ref_traj.require_completed()

tolerances = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11]
rows = convergence_probe(ham, t_end, 0.05, ref_unitaries[-1], tolerances)

print("final-time operator error vs relative tolerance, t_end = 8")
print()
print("  rel_tol    error      ratio")
previous = None
for tol, err in rows:
    ratio = "" if previous is None else f"{previous / err:9.1f}"
    print(f"  {tol:8.0e}  {err:9.3e}  {ratio}")
    previous = err

print()
print("each 100x tolerance cut should buy roughly 100x accuracy")
print("until rounding noise dominates")
