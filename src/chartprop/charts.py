"""The chart run for either dimension, `propagate`: the one place that
picks the chart (`two_level` or `three_level`) for a Hamiltonian and
runs the canonical form from U = I to the rebuilt operators.
"""

from __future__ import annotations

import numpy as np

from . import three_level, two_level
from .integrate import integrate

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

