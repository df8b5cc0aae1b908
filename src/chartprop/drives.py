"""Drive signals, Hamiltonian containers, and run configuration.

A drive is a scalar function of time (real or complex valued) built
from a small set of named shapes. Hamiltonians bundle the drives for
the independent entries of a traceless Hermitian matrix: diagonal
entries are real drives, off-diagonal couplings are complex drives,
and the last diagonal entry is always derived from tracelessness.

Configs are YAML mappings (JSON is a subset, so .json files load with
the same parser). `parse_config` validates shape and types and reports
errors with the path of the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Union

import numpy as np
import yaml


class ConfigError(ValueError):
    """Config document rejected; message carries the field path."""


# ---------------------------------------------------------------------------
# drive shapes

def _as_float(value, path):
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        # YAML leaves exponent-only literals like "1e-9" as strings.
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")


def _as_finite(value, path):
    number = _as_float(value, path)
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number}")
    return number


def _as_complex(value, path):
    # Plain scalars mean real values; complex values are written [re, im].
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{path}: complex value must be [re, im], got {value!r}")
        return complex(_as_float(value[0], f"{path}[0]"),
                       _as_float(value[1], f"{path}[1]"))
    return complex(_as_float(value, path))


def _exact_real(value):
    """value.real when value is exactly real, else None.

    An imaginary part of -0.0 does not count: the real part of
    complex(a, -0.0) * x is a * x + 0.0, which is +0.0 where a * x is
    -0.0, so a float closure would not reproduce the complex one to the
    bit.
    """
    if value.imag == 0.0 and math.copysign(1.0, value.imag) > 0.0:
        return value.real
    return None


def _complex_out(value):
    # Emit real scalars as bare floats, everything else as [re, im].
    c = complex(value)
    if c.imag == 0.0:
        return c.real
    return [c.real, c.imag]


# Scalar formulas of the cosine and Gaussian shapes, each written once:
# the factory binds the parameters and returns a closure of t. A drive
# keeps its complex closure for `evaluate`; a Hamiltonian samples an
# entry with it, or with a float closure built from the real amplitude.

def _cosine(amplitude, angular_frequency, phase_offset):
    def at(t):
        return amplitude * math.cos(angular_frequency * t + phase_offset)
    return at


def _gaussian(amplitude, center, width):
    def at(t):
        arg = (t - center) / width
        return amplitude * math.exp(-0.5 * arg * arg)
    return at


class _RebuiltOnCopy:
    """Mixin for frozen dataclasses that keep closures built in
    __post_init__: pickling and copying rebuild the object through
    __init__, because closures do not pickle."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)


@dataclass(frozen=True)
class ConstantDrive:
    """Time-independent value."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))

    def evaluate(self, t):
        if isinstance(t, (float, int)):
            return self.value
        return np.full(np.shape(t), self.value)

    def scalar(self, real=False):
        """This drive as a function of a scalar t, built once.

        real=False gives complex values. real=True gives float values,
        or None unless the parameters make the drive exactly real, so
        that no per-sample realness check is needed. A piecewise drive,
        which has no closed form, returns None.
        """
        value = _exact_real(self.value) if real else self.value
        if value is None:
            return None
        return lambda t: value

    def to_spec(self):
        return {"shape": "constant", "value": _complex_out(self.value)}


@dataclass(frozen=True)
class CosineDrive(_RebuiltOnCopy):
    """amplitude * cos(angular_frequency * t + phase_offset)."""

    amplitude: complex
    angular_frequency: float
    phase_offset: float = 0.0
    _at: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "angular_frequency", float(self.angular_frequency))
        object.__setattr__(self, "phase_offset", float(self.phase_offset))
        object.__setattr__(self, "_at", _cosine(
            self.amplitude, self.angular_frequency, self.phase_offset))

    def evaluate(self, t):
        if isinstance(t, (float, int)):
            return self._at(t)
        return self.amplitude * np.cos(self.angular_frequency * np.asarray(t)
                                       + self.phase_offset)

    def scalar(self, real=False):
        """See ConstantDrive.scalar."""
        if not real:
            return self._at
        amplitude = _exact_real(self.amplitude)
        if amplitude is None:
            return None
        return _cosine(amplitude, self.angular_frequency, self.phase_offset)

    def to_spec(self):
        return {
            "shape": "cosine",
            "amplitude": _complex_out(self.amplitude),
            "angular_frequency": self.angular_frequency,
            "phase_offset": self.phase_offset,
        }


@dataclass(frozen=True)
class GaussianDrive(_RebuiltOnCopy):
    """amplitude * exp(-(t - center)^2 / (2 width^2))."""

    amplitude: complex
    center: float
    width: float
    _at: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "width", float(self.width))
        if not self.width > 0:
            raise ValueError(f"gaussian width must be positive, got {self.width}")
        object.__setattr__(self, "_at", _gaussian(
            self.amplitude, self.center, self.width))

    def evaluate(self, t):
        if isinstance(t, (float, int)):
            return self._at(t)
        arg = (np.asarray(t) - self.center) / self.width
        return self.amplitude * np.exp(-0.5 * arg * arg)

    def scalar(self, real=False):
        """See ConstantDrive.scalar."""
        if not real:
            return self._at
        amplitude = _exact_real(self.amplitude)
        if amplitude is None:
            return None
        return _gaussian(amplitude, self.center, self.width)

    def to_spec(self):
        return {
            "shape": "gaussian",
            "amplitude": _complex_out(self.amplitude),
            "center": self.center,
            "width": self.width,
        }


@dataclass(frozen=True)
class PiecewiseDrive(_RebuiltOnCopy):
    """Linear interpolation through (t, value) knots, clamped outside."""

    times: tuple
    values: tuple
    # (knot times, real parts, imaginary parts) as float arrays
    _knots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("piecewise drive needs at least two (t, value) knots")
        ts = np.asarray(self.times, dtype=float)
        if not np.all(np.diff(ts) > 0):
            raise ValueError("piecewise knot times must be strictly increasing")
        vs = np.asarray(self.values, dtype=complex)
        knots = (ts, vs.real.copy(), vs.imag.copy())
        for array in knots:
            array.flags.writeable = False
        object.__setattr__(self, "_knots", knots)

    def evaluate(self, t):
        ts, re, im = self._knots
        # np.interp clamps to the end values outside the knot range.
        return np.interp(t, ts, re) + 1j * np.interp(t, ts, im)

    def scalar(self, real=False):
        """None: no closed form; Hamiltonians sample it through evaluate."""
        return None

    def to_spec(self):
        return {
            "shape": "piecewise",
            "knots": [[float(t), _complex_out(v)]
                      for t, v in zip(self.times, self.values)],
        }


@dataclass(frozen=True)
class SumDrive:
    """Pointwise sum of component drives."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) == 0:
            raise ValueError("sum drive needs at least one term")

    def evaluate(self, t):
        total = self.terms[0].evaluate(t)
        for term in self.terms[1:]:
            total = total + term.evaluate(t)
        return total

    def scalar(self, real=False):
        """See ConstantDrive.scalar: the terms' functions summed in
        order, or None when a term has none."""
        parts = [term.scalar(real) for term in self.terms]
        if any(part is None for part in parts):
            return None
        first, rest = parts[0], parts[1:]

        def at(t):
            total = first(t)
            for part in rest:
                total = total + part(t)
            return total
        return at

    def to_spec(self):
        return {"shape": "sum", "terms": [term.to_spec() for term in self.terms]}


DriveSignal = Union[ConstantDrive, CosineDrive, GaussianDrive,
                    PiecewiseDrive, SumDrive]

_DRIVE_FIELDS = {
    "constant": {"value"},
    "cosine": {"amplitude", "angular_frequency", "phase_offset"},
    "gaussian": {"amplitude", "center", "width"},
    "piecewise": {"knots"},
    "sum": {"terms"},
}


def drive_from_spec(spec, path="drive"):
    """Build a drive from its mapping form; inverse of to_spec."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a drive mapping with a 'shape' key")
    if "shape" not in spec:
        raise ConfigError(f"{path}: missing 'shape'")
    shape = spec["shape"]
    if shape not in _DRIVE_FIELDS:
        raise ConfigError(f"{path}.shape: unknown shape {shape!r}, "
                          f"expected one of {sorted(_DRIVE_FIELDS)}")
    extra = set(spec) - _DRIVE_FIELDS[shape] - {"shape"}
    if extra:
        raise ConfigError(f"{path}: unexpected keys {sorted(extra)} for shape {shape!r}")

    def need(key):
        if key not in spec:
            raise ConfigError(f"{path}.{key}: required for shape {shape!r}")
        return spec[key]

    if shape == "constant":
        return ConstantDrive(_as_complex(need("value"), f"{path}.value"))
    if shape == "cosine":
        return CosineDrive(
            amplitude=_as_complex(need("amplitude"), f"{path}.amplitude"),
            angular_frequency=_as_float(need("angular_frequency"),
                                        f"{path}.angular_frequency"),
            phase_offset=_as_float(spec.get("phase_offset", 0.0),
                                   f"{path}.phase_offset"),
        )
    if shape == "gaussian":
        try:
            return GaussianDrive(
                amplitude=_as_complex(need("amplitude"), f"{path}.amplitude"),
                center=_as_float(need("center"), f"{path}.center"),
                width=_as_float(need("width"), f"{path}.width"),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if shape == "piecewise":
        knots = need("knots")
        if not isinstance(knots, (list, tuple)):
            raise ConfigError(f"{path}.knots: expected a list of [t, value] pairs")
        times, values = [], []
        for i, knot in enumerate(knots):
            if not isinstance(knot, (list, tuple)) or len(knot) != 2:
                raise ConfigError(f"{path}.knots[{i}]: expected [t, value]")
            times.append(_as_float(knot[0], f"{path}.knots[{i}][0]"))
            values.append(_as_complex(knot[1], f"{path}.knots[{i}][1]"))
        try:
            return PiecewiseDrive(tuple(times), tuple(values))
        except ValueError as exc:
            raise ConfigError(f"{path}.knots: {exc}") from None
    # sum
    terms = need("terms")
    if not isinstance(terms, (list, tuple)) or not terms:
        raise ConfigError(f"{path}.terms: need a non-empty list of drives")
    return SumDrive(tuple(
        drive_from_spec(term, f"{path}.terms[{i}]") for i, term in enumerate(terms)
    ))


# ---------------------------------------------------------------------------
# Hamiltonians

def _require_real(value, t, what):
    # Diagonal drives must stay real; a stray imaginary part would
    # silently break Hermiticity, so fail loudly instead.
    c = complex(value)
    if abs(c.imag) > 1e-14 * (1.0 + abs(c)):
        raise ValueError(f"{what} must evaluate real, got {c} at t={t}")
    return c.real


def _entry_sampler(drive, what=None):
    """Scalar sampler of one Hamiltonian entry, built once per Hamiltonian.

    A coupling (what=None) returns complex values. A diagonal entry,
    named by `what`, returns float values: a drive whose scalar function
    is real by construction needs no check, and every other diagonal
    drive is checked for realness at each sample.
    """
    if what is None:
        return drive.scalar() or (lambda t: complex(drive.evaluate(t)))
    return drive.scalar(real=True) or (
        lambda t: _require_real(drive.evaluate(t), t, what))


def _grid_values(drive, times, what=None):
    """One entry over a whole time grid: complex for a coupling (what
    is None), real and checked for a diagonal entry named by `what`."""
    out = np.broadcast_to(np.asarray(drive.evaluate(times), dtype=complex),
                          np.shape(times))
    if what is None:
        return out
    if np.any(np.abs(out.imag) > 1e-14 * (1.0 + np.abs(out))):
        raise ValueError(f"{what} must evaluate real everywhere on the grid")
    return out.real.copy()


class _Hamiltonian(_RebuiltOnCopy):
    """Traceless Hermitian dim x dim matrix built from its independent drives.

    Each subclass is a frozen dataclass with one drive field per name in
    KEYS, plus `_samplers`, and sets the layout:

    * `dim`, the number of levels;
    * `KEYS`, the dim - 1 real diagonal drives first, then the complex
      couplings in lower-triangle column order;
    * `_SLOTS`, the matrix in row-major order, each slot an index into
      (diagonal drives, derived diagonal, couplings, conjugated couplings).

    `sample(t)` returns the KEYS values at t in that order; it stays a
    short explicit method in each subclass, since the chart right-hand
    side calls it at every integrator stage.
    """

    def _drives(self):
        # (drive, label) per key; only diagonal drives carry a label
        n = self.dim - 1
        return [(getattr(self, key), f"diagonal drive {key}" if i < n else None)
                for i, key in enumerate(self.KEYS)]

    def __post_init__(self):
        object.__setattr__(self, "_samplers", tuple(
            _entry_sampler(drive, what) for drive, what in self._drives()))

    def _entries(self, values):
        # Matrix entries in row-major order from KEYS values, scalars or
        # arrays alike. The derived diagonal is -h for two levels and
        # -(h1 + h2) for three: a sum that started from 0 would turn
        # -0.0 + -0.0 into +0.0.
        n = self.dim - 1
        table = [*values[:n], -sum(values[1:n], values[0]), *values[n:]]
        table += [v.conjugate() for v in values[n:]]
        return [table[slot] for slot in self._SLOTS]

    def matrix(self, t) -> np.ndarray:
        """The Hamiltonian matrix at time t."""
        return np.array(self._entries(self.sample(t)),
                        dtype=complex).reshape(self.dim, self.dim)

    def sample_grid(self, times) -> tuple:
        """The KEYS values as arrays over a whole time grid."""
        times = np.asarray(times, dtype=float)
        return tuple(_grid_values(drive, times, what)
                     for drive, what in self._drives())

    def matrix_grid(self, times) -> np.ndarray:
        """Stacked Hamiltonian matrices over a time grid, shape (N, dim, dim)."""
        out = np.empty(np.shape(times) + (self.dim * self.dim,), dtype=complex)
        for k, entry in enumerate(self._entries(self.sample_grid(times))):
            out[..., k] = entry
        return out.reshape(np.shape(times) + (self.dim, self.dim))


@dataclass(frozen=True)
class Hamiltonian2(_Hamiltonian):
    """Traceless Hermitian 2x2: diagonal (h, -h), off-diagonal coupling v.

    Matrix layout:

        [[ h,   conj(v) ],
         [ v,  -h       ]]
    """

    h: DriveSignal
    v: DriveSignal
    _samplers: tuple = field(init=False, repr=False, compare=False)

    dim = 2
    KEYS = ("h", "v")
    _SLOTS = (0, 3,
              2, 1)

    def sample(self, t):
        """(h, v) at time t as (float, complex)."""
        h, v = self._samplers
        return h(t), v(t)


class HamiltonianSample3(NamedTuple):
    """All independent 3x3 entries at one instant; h3 is derived.

    The diagonal entries h1, h2 are floats and the couplings v1, v2, v3
    complex, each from its entry's sampler. A named tuple: cheap to
    build at every integrator stage, and a chart right-hand side unpacks
    it as (h1, h2, v1, v2, v3).
    """

    h1: float
    h2: float
    v1: complex
    v2: complex
    v3: complex

    @property
    def h3(self):
        return -(self.h1 + self.h2)


@dataclass(frozen=True)
class Hamiltonian3(_Hamiltonian):
    """Traceless Hermitian 3x3 with derived third diagonal entry.

    Matrix layout (* marks conjugation):

        [[ h1,  v1*,  v2* ],
         [ v1,  h2,   v3* ],
         [ v2,  v3,   h3  ]]   with  h3 = -(h1 + h2).
    """

    h1: DriveSignal
    h2: DriveSignal
    v1: DriveSignal
    v2: DriveSignal
    v3: DriveSignal
    _samplers: tuple = field(init=False, repr=False, compare=False)

    dim = 3
    KEYS = ("h1", "h2", "v1", "v2", "v3")
    _SLOTS = (0, 6, 7,
              3, 1, 8,
              4, 5, 2)

    def sample(self, t) -> HamiltonianSample3:
        h1, h2, v1, v2, v3 = self._samplers
        return HamiltonianSample3(h1(t), h2(t), v1(t), v2(t), v3(t))


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """Everything a propagation run needs, as parsed from one document."""

    hamiltonian: Union[Hamiltonian2, Hamiltonian3]
    t_start: float
    t_end: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = None            # default (t_end - t_start) / 100

    def __post_init__(self):
        if self.max_step is None:
            object.__setattr__(self, "max_step",
                               (self.t_end - self.t_start) / 100.0)

    @property
    def system(self) -> int:
        """Number of levels, 2 or 3; always that of the Hamiltonian."""
        return self.hamiltonian.dim


_HAMILTONIANS = {2: Hamiltonian2, 3: Hamiltonian3}


def _parse_hamiltonian(mapping, system, t_start, t_end):
    if not isinstance(mapping, dict):
        raise ConfigError("hamiltonian: expected a mapping of drives")
    cls = _HAMILTONIANS[system]
    allowed = set(cls.KEYS) | ({"h3"} if system == 3 else set())
    extra = set(mapping) - allowed
    if extra:
        raise ConfigError(f"hamiltonian: unexpected keys {sorted(extra)} "
                          f"for a {system}-level system")
    drives = {}
    for key in cls.KEYS:
        if key not in mapping:
            raise ConfigError(f"hamiltonian.{key}: required for a "
                              f"{system}-level system")
        drives[key] = drive_from_spec(mapping[key], f"hamiltonian.{key}")
    ham = cls(**drives)
    if "h3" in mapping:
        # Redundant entry tolerated only when consistent with tracelessness.
        h3 = drive_from_spec(mapping["h3"], "hamiltonian.h3")
        for t in np.linspace(t_start, t_end, 11):
            stated = complex(h3.evaluate(t))
            derived = -(complex(ham.h1.evaluate(t)) + complex(ham.h2.evaluate(t)))
            if abs(stated - derived) > 1e-12 * (1.0 + abs(derived)):
                raise ConfigError(
                    f"hamiltonian.h3: must equal -(h1 + h2); differs at t={t} "
                    f"({stated} vs {derived})")
    return ham


def parse_config(source) -> RunConfig:
    """Parse a run config from YAML/JSON text, a mapping, or an open file."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source.read() if hasattr(source, "read") else source
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML/JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    extra = set(raw) - {"system", "time", "integrator", "hamiltonian"}
    if extra:
        raise ConfigError(f"config: unexpected top-level keys {sorted(extra)}")
    for key in ("system", "time", "hamiltonian"):
        if key not in raw:
            raise ConfigError(f"config: missing required key '{key}'")

    system = raw["system"]
    if system not in (2, 3):
        raise ConfigError(f"system: must be 2 or 3, got {system!r}")

    time_map = raw["time"]
    if not isinstance(time_map, dict):
        raise ConfigError("time: expected a mapping with 'start' and 'end'")
    extra = set(time_map) - {"start", "end"}
    if extra:
        raise ConfigError(f"time: unexpected keys {sorted(extra)}")
    for key in ("start", "end"):
        if key not in time_map:
            raise ConfigError(f"time.{key}: required")
    t_start = _as_finite(time_map["start"], "time.start")
    t_end = _as_finite(time_map["end"], "time.end")
    if not t_end > t_start:
        raise ConfigError(f"time: end ({t_end}) must be greater than "
                          f"start ({t_start})")

    rel_tol, abs_tol, max_step = 1e-9, 1e-12, None
    if "integrator" in raw:
        integ = raw["integrator"]
        if not isinstance(integ, dict):
            raise ConfigError("integrator: expected a mapping")
        extra = set(integ) - {"rel_tol", "abs_tol", "max_step"}
        if extra:
            raise ConfigError(f"integrator: unexpected keys {sorted(extra)}")
        if "rel_tol" in integ:
            rel_tol = _as_finite(integ["rel_tol"], "integrator.rel_tol")
        if "abs_tol" in integ:
            abs_tol = _as_finite(integ["abs_tol"], "integrator.abs_tol")
        if "max_step" in integ:
            max_step = _as_finite(integ["max_step"], "integrator.max_step")
        if rel_tol <= 0 or abs_tol <= 0:
            raise ConfigError("integrator: tolerances must be positive")
        if max_step is not None and max_step <= 0:
            raise ConfigError("integrator.max_step: must be positive")

    hamiltonian = _parse_hamiltonian(raw["hamiltonian"], system, t_start, t_end)
    return RunConfig(hamiltonian=hamiltonian, t_start=t_start, t_end=t_end,
                     rel_tol=rel_tol, abs_tol=abs_tol, max_step=max_step)


def config_to_dict(config: RunConfig) -> dict:
    """Plain-data form of a config; parse_config inverts it."""
    ham = config.hamiltonian
    return {
        "system": config.system,
        "time": {"start": config.t_start, "end": config.t_end},
        "integrator": {
            "rel_tol": config.rel_tol,
            "abs_tol": config.abs_tol,
            "max_step": config.max_step,
        },
        "hamiltonian": {key: getattr(ham, key).to_spec() for key in ham.KEYS},
    }


def serialize_config(config: RunConfig) -> str:
    """YAML text for a config; round-trips exactly through parse_config."""
    return yaml.safe_dump(config_to_dict(config), sort_keys=True)
