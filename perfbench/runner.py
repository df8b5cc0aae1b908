"""Parsed workload members, untraced propagation, and output checks.

A member is one trajectory: a parsed config, its sample grid and
integrator settings, and the outcome it must reach. Propagating a
member is what the ensemble workloads time: `integrate` on the chart
flow plus `reconstruct_batch`. Checks run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from chartprop import (IntegratorSettings, compare, integrate,
                       integrate_schrodinger, parse_config, three_level,
                       two_level, unitarity_errors)

UNITARITY_LIMIT = 1e-11
ORACLE_LIMIT = 1e-6
POLE_TIME_LIMIT = 0.01

# Flat chart-state sizes; the zero vector is the chart origin, U = I.
_STATE_SIZE = {2: 3, 3: 8}
_CHART = {2: two_level, 3: three_level}


@dataclass(frozen=True)
class Member:
    index: int
    config: object                  # chartprop RunConfig
    samples: int
    expect: str                     # "completed" or "singularity"
    pole_time: Optional[float]
    settings: IntegratorSettings
    grid: np.ndarray
    initial: np.ndarray

    @property
    def chart(self):
        return _CHART[self.config.system]

    @property
    def chart_name(self) -> str:
        return "two_level" if self.config.system == 2 else "three_level"


def direct(_name, fn, *args, **kwargs):
    """Call fn; the untraced stand-in for Tracer.span."""
    return fn(*args, **kwargs)


def build_member(index, source, samples, expect="completed", pole_time=None,
                 span=direct) -> Member:
    """Parse one config (text, open file or mapping) into a member."""
    config = span("drives.parse_config", parse_config, source)
    settings = IntegratorSettings(max_step=config.max_step,
                                  rel_tol=config.rel_tol,
                                  abs_tol=config.abs_tol)
    return Member(index=index, config=config, samples=samples, expect=expect,
                  pole_time=pole_time, settings=settings,
                  grid=np.linspace(config.t_start, config.t_end, samples),
                  initial=np.zeros(_STATE_SIZE[config.system]))


def build_members(specs, span=direct) -> list:
    return [build_member(i, spec.doc, spec.samples, spec.expect,
                         spec.pole_time, span)
            for i, spec in enumerate(specs)]


def propagate(member):
    """Chart integration plus reconstruction: one ensemble member."""
    chart = member.chart
    config = member.config
    traj = integrate(chart.chart_rhs(config.hamiltonian), member.initial,
                     config.t_start, config.t_end, member.settings,
                     member.grid, escape=chart.escaped)
    return traj, chart.reconstruct_batch(traj.states)


def check_member(member, traj, unitaries, span=direct, ham=None) -> list:
    """Problems with one propagated member; an empty list means correct.

    Checks the run status (and the pole time of a singular member),
    unitarity of every reconstructed sample, and agreement with the
    direct matrix integration on the same grid.
    """
    ham = member.config.hamiltonian if ham is None else ham
    problems = []
    if traj.status != member.expect:
        problems.append(f"status {traj.status}, expected {member.expect}")
    elif member.expect == "completed" and len(traj.times) != member.samples:
        problems.append(f"{len(traj.times)} samples, expected "
                        f"{member.samples}")
    elif member.pole_time is not None:
        gap = abs(traj.singularity_time - member.pole_time)
        if not gap <= POLE_TIME_LIMIT:
            problems.append(f"pole time off by {gap:.3g}")
    worst = float(np.max(span("reference.unitarity_errors",
                              unitarity_errors, unitaries)))
    if not worst <= UNITARITY_LIMIT:
        problems.append(f"unitarity error {worst:.3g}")
    oracle = span("reference.oracle", integrate_schrodinger, ham,
                  traj.times[0], traj.times[-1], member.settings, traj.times)
    error = span("reference.compare", compare, traj.times, unitaries,
                 oracle).max_frobenius_error
    if not error <= ORACLE_LIMIT:
        problems.append(f"oracle disagreement {error:.3g}")
    return [f"member {member.index}: {p}" for p in problems]
