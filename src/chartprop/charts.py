"""The chart run for either dimension, `propagate`: the one place that
picks the chart (`two_level` or `three_level`) for a Hamiltonian and
runs the canonical form from U = I to the rebuilt operators.
"""

from __future__ import annotations

import numpy as np

from . import three_level, two_level
from .integrate import IntegratorSettings, integrate

CHARTS = {2: two_level, 3: three_level}


def propagate(ham, t_start, t_end, settings, sample_times) -> tuple:
    """U(t) of ham from U(t_start) = I in chart coordinates, integrated
    with the chart's escape test and error weights. Returns (trajectory,
    unitaries, chart): the `integrate` trajectory of the flat chart
    state, the (N, n, n) operators at its times, and the chart module.
    An early stop (a chart singularity, the step limit) comes back with
    its rows up to the stop, not raised."""
    chart = CHARTS[ham.dim]
    trajectory = integrate(chart.chart_rhs(ham), np.zeros(chart.STATE_SIZE),
                           t_start, t_end, settings, sample_times,
                           escape=chart.escaped,
                           error_weight=chart.error_weight)
    return trajectory, chart.reconstruct_batch(trajectory.states), chart


def convergence_probe(ham, t_end, max_step, reference, tolerances) -> list:
    """[(tolerance, error), ...], loosest first: the Frobenius distance
    to `reference` of U(t_end) from `propagate` on [0, t_end], at each
    rel_tol with abs_tol = 1e-3 rel_tol. Errors should fall as the
    tolerance tightens; a flat or rising tail signals an accuracy floor
    or an integrator defect."""
    rows = []
    for tol in sorted(tolerances, reverse=True):
        settings = IntegratorSettings(max_step=max_step, rel_tol=tol,
                                      abs_tol=tol * 1e-3)
        trajectory, unitaries, _ = propagate(ham, 0.0, t_end, settings,
                                             [t_end])
        trajectory.require_completed()
        rows.append((float(tol), float(np.linalg.norm(unitaries[-1]
                                                      - reference))))
    return rows
