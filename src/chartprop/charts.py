"""The charts of both dimensions, built from their rates by `_describe`,
and the chart run `propagate`: the one place that picks the chart
(`two_level` or `three_level`) for a Hamiltonian and runs the canonical
form from U = I to the rebuilt operators.
"""

from __future__ import annotations

import numpy as np

from .integrate import _chart_rhs, _names, compile_function, integrate


def _describe(rates, threshold) -> tuple:
    """(STATE_SIZE, coords_from_states, chart_rhs, error_weight, escaped)
    of the chart of `rates`, whose reads are its coordinates' real and
    imaginary parts in pairs; the components after them are its phases.

    An error dc in a coordinate c moves the operator by about
    |dc| / (1 + |c|^2), the Fubini-Study line element, and an error in a
    phase by about its own size: hence the weights 1 + (re * re + im * im)
    and 1. error_weight and escaped are generated once per chart as
    straight-line code ("<chart checks d=N>") that unpacks the flat
    state, so a state of another length raises ValueError; escaped is
    false on a NaN modulus.
    """
    reads = _names(rates.reads)
    size = len(rates.derivatives)
    phases = size - len(reads)
    moduli = [f"{re} * {re} + {im} * {im}"
              for re, im in zip(reads[0::2], reads[1::2])]
    unpack = f"    {', '.join(reads + ['_'] * phases)}, = vec"
    weights = [f"_w{k}" for k in range(len(moduli))]
    source = "\n".join([
        "def error_weight(vec):",
        '    """1 + |c|^2 on both parts of each coordinate c, 1 per phase."""',
        unpack,
        *(f"    {w} = 1.0 + ({m})" for w, m in zip(weights, moduli)),
        "    return " + ", ".join([f"{w}, {w}" for w in weights]
                                  + ["1.0"] * phases),
        "def escaped(vec):",
        '    """True once a coordinate c has |c| >= SINGULARITY_THRESHOLD."""',
        unpack,
        "    return " + " or ".join(f"{m} >= {threshold ** 2!r}"
                                    for m in moduli),
        ""])
    checks = {}
    compile_function(source, f"<chart checks d={size}>", "escaped", checks)

    def coords_from_states(states) -> tuple:
        """The chart coordinates as complex arrays, then the phases, from
        stacked flat states of shape (..., STATE_SIZE)."""
        states = np.asarray(states, dtype=float)
        return (*(states[..., k] + 1j * states[..., k + 1]
                  for k in range(0, len(reads), 2)),
                *(states[..., k] for k in range(len(reads), size)))

    def chart_rhs(ham):
        """Flat-vector derivative function of the chart for `ham`.

        The chart's rates repeat CPython's complex operations one by one
        in real arithmetic (x - (-p) written as x + p, the same IEEE
        operation), signed zeros included, so `integrate` writes them
        inline in its step loop without changing a bit; an attempt there
        takes its drive values from one call of the Hamiltonian's stage
        sampler. On an object without one, `integrate` calls this
        function at every stage. Called, it samples through `ham.sample`
        once per distinct t: it keeps the last (t, sample) pair, since
        the 6th and 7th stages of a DOPRI5 attempt both run at t + h. A
        `ham.sample` that raises leaves the pair as it was.
        """
        return _chart_rhs(rates, ham.sample, getattr(ham, "_stages", None))

    return (size, coords_from_states, chart_rhs, checks["error_weight"],
            checks["escaped"])


from . import three_level, two_level  # noqa: E402  (they import _describe)

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
