"""Tolerance ladder for the chart propagation of a pulsed system.

Integrates one three-level scenario at a sequence of tolerances and
prints the final-time operator error against a tightly converged
reference. Fifth-order behavior shows as roughly three decades of
error per decade of tolerance until the rounding floor.
"""

import numpy as np

from chartprop import (ConstantDrive, ConvergenceScenario, CosineDrive,
                       GaussianDrive, Hamiltonian3, IntegratorSettings,
                       convergence_probe, integrate)
from chartprop.three_level import (STATE_SIZE, chart_rhs, escaped,
                                   reconstruct_batch)

ham = Hamiltonian3(
    h1=CosineDrive(0.3, 1.2),
    h2=ConstantDrive(-0.2),
    v1=GaussianDrive(0.9, center=4.0, width=1.0),
    v2=CosineDrive(0.25j, 2.0),
    v3=ConstantDrive(0.1),
)

rhs = chart_rhs(ham)
initial = np.zeros(STATE_SIZE)  # the chart origin, U = I
t_end = 8.0

# reference: the same flow at a tolerance far below anything probed
ref_settings = IntegratorSettings(max_step=0.05, rel_tol=1e-13,
                                  abs_tol=1e-16)
ref_traj = integrate(rhs, initial, 0.0, t_end, ref_settings, [t_end],
                     escape=escaped)
ref_traj.require_completed()
reference = reconstruct_batch(ref_traj.final_state[None])[0]

scenario = ConvergenceScenario(
    rhs=rhs,
    initial=initial,
    t_start=0.0,
    t_end=t_end,
    max_step=0.05,
    reconstruct=lambda state: reconstruct_batch(state[None])[0],
    reference=reference,
)

tolerances = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11]
rows = convergence_probe(scenario, tolerances)

print("final-time operator error vs relative tolerance, t_end = 8")
print()
print("  rel_tol    error      ratio")
previous = None
for tol, err in rows:
    ratio = "" if previous is None else f"{previous / err:9.1f}"
    print(f"  {tol:8.0e}  {err:9.3e}  {ratio}")
    previous = err

print()
print("each 100x tolerance cut should buy roughly 100x accuracy or")
print("better until rounding noise dominates")
