"""Drive signals, Hamiltonian containers, and run configuration.

A drive is a scalar function of time (real or complex valued) built
from a small set of named shapes. Hamiltonians bundle the drives for
the independent entries of a traceless Hermitian matrix: diagonal
entries are real drives, off-diagonal couplings are complex drives,
and the last diagonal entry is always derived from tracelessness.

Configs are YAML mappings (JSON is a subset, so .json files load with
the same parser). A drive's mapping form is `shape` plus the shape's
keys: its fields for the constant, cosine and Gaussian shapes, `knots`
for the piecewise shape and `terms` for the sum. `parse_config` checks
the keys of every mapping, reads every number as a finite float, and
raises ConfigError with the path of the offending field.
"""

from __future__ import annotations

import functools
import math
import reprlib
from bisect import bisect_right
from dataclasses import MISSING, dataclass, field, fields
from operator import itemgetter
from typing import Callable, NamedTuple, Union, get_args

import numpy as np
import yaml


class ConfigError(ValueError):
    """Config document rejected; message carries the field path."""


# ---------------------------------------------------------------------------
# drive shapes

def _number(value, path):
    """value as a finite float: an int, a float, or a numeric string,
    since YAML reads exponent-only literals like 1e-9 as strings."""
    try:
        # bool is an int subclass; YAML's true and false are not numbers
        if isinstance(value, (float, int, str)) and type(value) is not bool:
            number = float(value)
            if math.isfinite(number):
                return number
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{path}: expected a finite number, "
                      f"got {reprlib.repr(value)}")


def _as_complex(value, path):
    # Plain scalars mean real values; complex values are written [re, im].
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{path}: complex value must be [re, im], "
                              f"got {reprlib.repr(value)}")
        return complex(_number(value[0], f"{path}[0]"),
                       _number(value[1], f"{path}[1]"))
    return complex(_number(value, path))


def _mapping(value, path, required, optional=()):
    """value, checked to be a mapping that has every key in `required`
    and no key outside `required` and `optional`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, "
                          f"got {reprlib.repr(value)}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unexpected key {reprlib.repr(key)}, "
                              f"allowed {[*required, *optional]}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return value


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
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


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


def _linear(times, values):
    """np.interp(t, times, values) at one scalar t, in Python floats.

    The clamping outside the knots, the slope of each segment, the
    arithmetic and np.interp's retry from the right knot when the left
    one gives NaN are all the same, so the value is the same to the
    bit. A NaN t gives NaN.
    """
    first, last = times[0], times[-1]
    slopes = tuple((f1 - f0) / (t1 - t0) for t0, t1, f0, f1
                   in zip(times, times[1:], values, values[1:]))

    def at(t):
        t = float(t)
        if not first <= t < last:
            if t != t:
                return t
            return values[0] if t < first else values[-1]
        j = bisect_right(times, t) - 1
        if t == times[j]:
            return values[j]
        value = slopes[j] * (t - times[j]) + values[j]
        if value != value:
            value = slopes[j] * (t - times[j + 1]) + values[j + 1]
            if value != value and values[j] == values[j + 1]:
                value = values[j]
        return value
    return at


class _RebuiltOnCopy:
    """Mixin for frozen dataclasses that keep closures built in
    __post_init__: pickling and copying rebuild the object through
    __init__, because closures do not pickle."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)


# Reader and writer of a number field's spec value, by the field's
# annotation (text, under `from __future__ import annotations`).
_NUMBER_KINDS = {"complex": (_as_complex, _complex_out), "float": (_number, float)}


@functools.cache
def _number_fields(cls):
    """((name, reader, writer) per init field, required spec keys,
    optional spec keys) of a _NumberFields shape, built once per class:
    fields() for every drive would double the time to parse a config."""
    init = [f for f in fields(cls) if f.init]
    return (tuple((f.name, *_NUMBER_KINDS[f.type]) for f in init),
            ("shape", *(f.name for f in init if f.default is MISSING)),
            tuple(f.name for f in init if f.default is not MISSING))


class _NumberFields:
    """Mixin for the shapes whose spec is `shape` plus their init
    fields, each a number: complex where the field is annotated complex,
    float where it is annotated float. A field with a default may be
    left out."""

    @classmethod
    def from_spec(cls, spec, path):
        numbers, required, optional = _number_fields(cls)
        _mapping(spec, path, required, optional)
        return cls(**{name: read(spec[name], f"{path}.{name}")
                      for name, read, _ in numbers if name in spec})

    def to_spec(self):
        spec = {"shape": self.SHAPE}
        for name, _, write in _number_fields(type(self))[0]:
            spec[name] = write(getattr(self, name))
        return spec


@dataclass(frozen=True)
class ConstantDrive(_NumberFields):
    """Time-independent value."""

    SHAPE = "constant"
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
        that no per-sample realness check is needed. At a scalar t each
        function gives the bits of `evaluate`, or of its real part.
        """
        value = _exact_real(self.value) if real else self.value
        if value is None:
            return None
        return lambda t: value


@dataclass(frozen=True)
class CosineDrive(_NumberFields, _RebuiltOnCopy):
    """amplitude * cos(angular_frequency * t + phase_offset)."""

    SHAPE = "cosine"
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


@dataclass(frozen=True)
class GaussianDrive(_NumberFields, _RebuiltOnCopy):
    """amplitude * exp(-(t - center)^2 / (2 width^2))."""

    SHAPE = "gaussian"
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


@dataclass(frozen=True)
class PiecewiseDrive(_RebuiltOnCopy):
    """Linear interpolation through (t, value) knots, clamped outside."""

    SHAPE = "piecewise"
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
        """See ConstantDrive.scalar. The complex value is composed as in
        evaluate, re + 1j * im; with every imaginary knot value +0.0 its
        real part is re + 0.0, which turns a -0.0 into +0.0."""
        re = _linear(self.times, tuple(v.real for v in self.values))
        if real:
            if any(_exact_real(v) is None for v in self.values):
                return None
            return lambda t: re(t) + 0.0
        im = _linear(self.times, tuple(v.imag for v in self.values))
        return lambda t: re(t) + 1j * im(t)

    @classmethod
    def from_spec(cls, spec, path):
        knots = _mapping(spec, path, ("shape", "knots"))["knots"]
        if not isinstance(knots, (list, tuple)):
            raise ConfigError(f"{path}.knots: expected a list of [t, value] pairs")
        times, values = [], []
        for i, knot in enumerate(knots):
            if not isinstance(knot, (list, tuple)) or len(knot) != 2:
                raise ConfigError(f"{path}.knots[{i}]: expected [t, value]")
            times.append(_number(knot[0], f"{path}.knots[{i}][0]"))
            values.append(_as_complex(knot[1], f"{path}.knots[{i}][1]"))
        return cls(tuple(times), tuple(values))

    def to_spec(self):
        return {"shape": self.SHAPE,
                "knots": [[t, _complex_out(v)]
                          for t, v in zip(self.times, self.values)]}


@dataclass(frozen=True)
class SumDrive:
    """Pointwise sum of component drives."""

    SHAPE = "sum"
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

    @classmethod
    def from_spec(cls, spec, path):
        terms = _mapping(spec, path, ("shape", "terms"))["terms"]
        if not isinstance(terms, (list, tuple)):
            raise ConfigError(f"{path}.terms: expected a list of drives")
        return cls(tuple(drive_from_spec(term, f"{path}.terms[{i}]")
                         for i, term in enumerate(terms)))

    def to_spec(self):
        return {"shape": self.SHAPE, "terms": [term.to_spec() for term in self.terms]}


DriveSignal = Union[ConstantDrive, CosineDrive, GaussianDrive,
                    PiecewiseDrive, SumDrive]

_SHAPES = {cls.SHAPE: cls for cls in get_args(DriveSignal)}


def drive_from_spec(spec, path="drive"):
    """Build a drive from its mapping form; inverse of to_spec."""
    shape = spec.get("shape") if isinstance(spec, dict) else None
    cls = _SHAPES.get(shape) if isinstance(shape, str) else None
    if cls is None:
        raise ConfigError(f"{path}: expected a drive mapping with a shape in "
                          f"{sorted(_SHAPES)}, got {reprlib.repr(spec)}")
    try:
        return cls.from_spec(spec, path)
    except ConfigError:
        raise
    except ValueError as exc:
        # the constructors' own checks: Gaussian width, knots, empty sum
        raise ConfigError(f"{path}: {exc}") from None


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
        return drive.scalar()
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
      (KEYS values, derived diagonal, conjugated couplings), and
      `_pick = itemgetter(*_SLOTS)`, which selects them in one call.

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

    def _entries(self, values, conjugate):
        # Matrix entries in row-major order from KEYS values: Python
        # scalars with conjugate=complex.conjugate, arrays with
        # np.conjugate. The derived diagonal is -h for two levels and
        # -(h1 + h2) for three: a sum that started from 0 would turn
        # -0.0 + -0.0 into +0.0.
        n = self.dim - 1
        return self._pick((*values, -sum(values[1:n], values[0]),
                           *map(conjugate, values[n:])))

    def matrix(self, t) -> np.ndarray:
        """The Hamiltonian matrix at time t."""
        # The direct-matrix oracle calls this at every stage, hence the
        # one-call table and entry selection.
        return np.array(self._entries(self.sample(t), complex.conjugate),
                        dtype=complex).reshape(self.dim, self.dim)

    def sample_grid(self, times) -> tuple:
        """The KEYS values as arrays over a whole time grid."""
        times = np.asarray(times, dtype=float)
        return tuple(_grid_values(drive, times, what)
                     for drive, what in self._drives())

    def matrix_grid(self, times) -> np.ndarray:
        """Stacked Hamiltonian matrices over a time grid, shape (N, dim, dim)."""
        out = np.empty(np.shape(times) + (self.dim * self.dim,), dtype=complex)
        entries = self._entries(self.sample_grid(times), np.conjugate)
        for k, entry in enumerate(entries):
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
              1, 2)
    _pick = itemgetter(*_SLOTS)

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
              2, 1, 8,
              3, 4, 5)
    _pick = itemgetter(*_SLOTS)

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
_INTEGRATOR_KEYS = ("rel_tol", "abs_tol", "max_step")


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
    _mapping(raw, "config", ("system", "time", "hamiltonian"), ("integrator",))

    system = raw["system"]
    if system not in (2, 3):
        raise ConfigError(f"system: must be 2 or 3, got {reprlib.repr(system)}")

    time = _mapping(raw["time"], "time", ("start", "end"))
    t_start = _number(time["start"], "time.start")
    t_end = _number(time["end"], "time.end")
    if not t_end > t_start:
        raise ConfigError(f"time: end ({t_end}) must be greater than "
                          f"start ({t_start})")

    # keys left out take RunConfig's defaults
    settings = {key: _number(value, f"integrator.{key}") for key, value
                in _mapping(raw.get("integrator", {}), "integrator", (),
                            _INTEGRATOR_KEYS).items()}
    for key, value in settings.items():
        if not value > 0:
            raise ConfigError(f"integrator.{key}: must be positive, got {value}")

    cls = _HAMILTONIANS[system]
    drives = _mapping(raw["hamiltonian"], "hamiltonian", cls.KEYS,
                      ("h3",) if system == 3 else ())
    ham = cls(**{key: drive_from_spec(drives[key], f"hamiltonian.{key}")
                 for key in cls.KEYS})
    if "h3" in drives:
        # Redundant entry tolerated only when consistent with tracelessness.
        h3 = drive_from_spec(drives["h3"], "hamiltonian.h3")
        for t in np.linspace(t_start, t_end, 11):
            stated = complex(h3.evaluate(t))
            derived = -(complex(ham.h1.evaluate(t)) + complex(ham.h2.evaluate(t)))
            if abs(stated - derived) > 1e-12 * (1.0 + abs(derived)):
                raise ConfigError(
                    f"hamiltonian.h3: must equal -(h1 + h2); differs at t={t} "
                    f"({stated} vs {derived})")
    return RunConfig(hamiltonian=ham, t_start=t_start, t_end=t_end, **settings)


def config_to_dict(config: RunConfig) -> dict:
    """Plain-data form of a config; parse_config inverts it."""
    ham = config.hamiltonian
    return {
        "system": config.system,
        "time": {"start": config.t_start, "end": config.t_end},
        "integrator": {key: getattr(config, key) for key in _INTEGRATOR_KEYS},
        "hamiltonian": {key: getattr(ham, key).to_spec() for key in ham.KEYS},
    }


def serialize_config(config: RunConfig) -> str:
    """YAML text for a config; round-trips exactly through parse_config."""
    return yaml.safe_dump(config_to_dict(config), sort_keys=True)
