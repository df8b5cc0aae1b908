"""Seeded inputs for the benchmark workloads, as chartprop config documents.

The generators produce plain config documents (YAML text or mappings);
the library receives only what `parse_config` builds from them, so the
benchmark exercises the same input path a user does.

Workloads:

* cli_dense: the one `chartprop run` a user makes. Fixed three-level
  Hamiltonian, T = 200, 20001 samples, oracle comparison, CSV file.
  Its input does not depend on the seed.
* ensemble_weak: alternating two- and three-level members with the
  time-dependent cosine/Gaussian families at 0.2x amplitude. Far from
  the chart poles (max |coord| below 3), so pole handling has nothing
  to do here.
* ensemble_strong: alternating members with strong cosine drives that
  make near-pole excursions (max |coord| in the tens to hundreds), plus
  the closed-form tangent orbit h = 0, v = 1 that leaves the chart at
  t = pi / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DENSE_SAMPLES = 20001
DENSE_CONFIG_TEXT = """\
system: 3
time: {start: 0.0, end: 200.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.1}
hamiltonian:
  h1: {shape: constant, value: 0.2}
  h2: {shape: constant, value: -0.1}
  v1: {shape: cosine, amplitude: [0.4, 0.1], angular_frequency: 1.1}
  v2: {shape: constant, value: 0.3}
  v3: {shape: gaussian, amplitude: [0.0, 0.5], center: 5.0, width: 1.5}
"""

# Members per ensemble. Seed-to-seed cost variation of the ensemble
# falls with the square root of its size; these sizes keep that spread
# at a few percent while a pass still fits at least twice into a
# 30-second run.
WEAK_MEMBERS = 160
STRONG_MEMBERS = 48

_INTEGRATOR = {"rel_tol": 1e-9, "abs_tol": 1e-12, "max_step": 0.1}
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MemberSpec:
    """One ensemble member before parsing: config document, sample
    count, and the run status the member must end with (for a
    singularity, also the time at which the chart must be left)."""

    doc: dict
    samples: int
    expect: str = "completed"
    pole_time: Optional[float] = None


def _document(system, hamiltonian, t_end):
    return {"system": system,
            "time": {"start": 0.0, "end": float(t_end)},
            "integrator": dict(_INTEGRATOR),
            "hamiltonian": hamiltonian}


def _weak_hamiltonian(rng, system):
    # Criterion-3 families (cosine or Gaussian, same parameter ranges)
    # with every amplitude scaled by 0.2. At 0.3 about one draw in 400
    # passes |coord| = 10; at 0.2 the largest modulus over 1920 draws
    # (seeds 1-12) was 2.2.
    scale = 0.2

    def envelope(amplitude):
        if rng.integers(0, 2) == 0:
            return {"shape": "cosine", "amplitude": amplitude,
                    "angular_frequency": float(rng.uniform(0.3, 3.0)),
                    "phase_offset": float(rng.uniform(0.0, 6.28))}
        return {"shape": "gaussian", "amplitude": amplitude,
                "center": float(rng.uniform(2.0, 8.0)),
                "width": float(rng.uniform(0.6, 2.5))}

    def real():
        return envelope(scale * float(rng.uniform(-1.0, 1.0)))

    def cplx():
        return envelope([scale * float(x) for x in rng.uniform(-0.7, 0.7, 2)])

    if system == 2:
        return {"h": real(), "v": cplx()}
    return {"h1": real(), "h2": real(), "v1": cplx(), "v2": cplx(),
            "v3": cplx()}


def _strong_hamiltonian(rng, system):
    # Cosine only: diagonal amplitudes in +-2 sqrt(2), off-diagonal
    # re/im parts in +-2, angular frequencies in [0.3, 3].
    def cosine(amplitude):
        return {"shape": "cosine", "amplitude": amplitude,
                "angular_frequency": float(rng.uniform(0.3, 3.0)),
                "phase_offset": float(rng.uniform(0.0, _TWO_PI))}

    def real():
        return cosine(float(rng.uniform(-2.0 * math.sqrt(2.0),
                                        2.0 * math.sqrt(2.0))))

    def cplx():
        return cosine([float(x) for x in rng.uniform(-2.0, 2.0, 2)])

    if system == 2:
        return {"h": real(), "v": cplx()}
    return {"h1": real(), "h2": real(), "v1": cplx(), "v2": cplx(),
            "v3": cplx()}


TANGENT_POLE = MemberSpec(
    doc=_document(2, {"h": {"shape": "constant", "value": 0.0},
                      "v": {"shape": "constant", "value": 1.0}}, 2.0),
    samples=21, expect="singularity", pole_time=math.pi / 2)


def ensemble_specs(workload, seed) -> list:
    """Member specs of an ensemble workload, alternating two- and
    three-level systems; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    if workload == "ensemble_weak":
        return [MemberSpec(_document(system, _weak_hamiltonian(rng, system),
                                     10.0), 101)
                for system in (2 + i % 2 for i in range(WEAK_MEMBERS))]
    if workload == "ensemble_strong":
        specs = [MemberSpec(_document(system,
                                      _strong_hamiltonian(rng, system), 20.0),
                            201)
                 for system in (2 + i % 2 for i in range(STRONG_MEMBERS))]
        return specs + [TANGENT_POLE]
    raise ValueError(f"not an ensemble workload: {workload!r}")
