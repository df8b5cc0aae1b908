"""Drive signals, Hamiltonian containers, and run configuration.

A drive is a scalar function of time (real or complex valued) built
from a small set of named shapes. Each shape states its formula once,
as a FORMULA template in t; the code generated from it runs at one t
with math's functions and on a time grid with numpy's. Hamiltonians
bundle the drives for the independent entries of a traceless Hermitian
matrix: diagonal entries are real drives, off-diagonal couplings are
complex drives, and the last diagonal entry is always derived from
tracelessness.

Configs are YAML mappings (JSON is a subset, so .json files load with
the same parser). yaml is imported only where text is read or written:
a config given as a mapping never loads it. A drive's mapping form is
`shape` plus the shape's keys: its fields for the constant, cosine and
Gaussian shapes, `knots` for the piecewise shape and `terms` for the
sum. `parse_config` checks the keys of every mapping, reads every
number as a finite float, and raises ConfigError with the path of the
offending field.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
import re
import reprlib
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from typing import Union, get_args

import numpy as np

from .integrate import (_NODES, IntegratorSettings, compile_function,
                        steps_stall)


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
    """value.real when value is exactly real, else None. An imaginary
    part of -0.0 does not count: the real part of complex(a, -0.0) * x
    is a * x + 0.0, which a float formula does not reproduce where a * x
    is -0.0."""
    if value.imag == 0.0 and math.copysign(1.0, value.imag) > 0.0:
        return value.real
    return None


def _complex_out(value):
    # Exactly real values (see _exact_real) as bare floats, everything
    # else as [re, im]: a bare float reads back with imaginary part +0.0.
    real = _exact_real(value)
    return [value.real, value.imag] if real is None else real


# Diagonal drives must stay real: an imaginary part beyond this share of
# 1 + |value|, or a NaN or infinite one, would silently break
# Hermiticity, so it fails loudly.
_REAL_TOLERANCE = 1e-14


def _require_real(value, t, what):
    c = complex(value)
    if (not math.isfinite(c.imag)
            or abs(c.imag) > _REAL_TOLERANCE * (1.0 + abs(c))):
        raise ValueError(f"{what} must evaluate real, got {c} at t={t}")
    return c.real


def _on_grid(value, times):
    # a formula's value (a constant's is one scalar) in the grid's shape
    return np.broadcast_to(np.asarray(value, dtype=complex), np.shape(times))


def _require_real_grid(value, times, what):
    """_require_real over a whole time grid, as a read-only array; all-zero
    imaginary parts pass fast. The real parts are copied out, so that
    the complex array is freed, except for a broadcast constant, whose
    view holds one value."""
    c = _on_grid(value, times)
    if c.imag.any() and np.any(~np.isfinite(c.imag) | (
            np.abs(c.imag) > _REAL_TOLERANCE * (1.0 + np.abs(c)))):
        raise ValueError(f"{what} must evaluate real everywhere on the grid")
    if 0 in c.strides:
        return c.real
    real = c.real.copy()
    real.flags.writeable = False
    return real


def _interp(t, times, values):
    """numpy's interp(t, times, values) at one scalar t, in Python
    floats and to the bit: the same clamping outside the knots, segment
    slopes and arithmetic, and the same retry from the right knot where
    the left one gives NaN. A NaN t gives NaN."""
    t = float(t)
    j = bisect_right(times, t)  # 0 before the knots, len(times) from the last
    if 0 < j < len(times):
        t0, f0 = times[j - 1], values[j - 1]
        if t == t0:
            return f0
        t1, f1 = times[j], values[j]
        slope = (f1 - f0) / (t1 - t0)
        value = slope * (t - t0) + f0
        if value != value:
            value = slope * (t - t1) + f1
            if value != value and f0 == f1:
                value = f0
        return value
    if t != t:
        return t
    return values[0] if j == 0 else values[-1]


# Drive formulas. FORMULA is a Python expression in t whose constants
# are named in braces. A drive's `_formula(real)` gives its (form,
# constants): the form is the FORMULA, or for a sum the tuple of its
# terms' forms, and the constants are the values of the names in braces
# in the order they first appear, terms in order. `_compiled` compiles
# the code of a form once per process and path, shared by drives and
# Hamiltonians of the same shapes. The scalar and the grid path run the
# same code, each in its namespace:
_NAMESPACES = ({"cos": math.cos, "exp": math.exp, "interp": _interp},
               {"cos": np.cos, "exp": np.exp, "interp": np.interp})

# a diagonal drive of `sample` not real by construction, checked at each t
_CHECKED = "{check}({drive}(t), t, {what})"

_SAMPLER_NUMBERS = itertools.count(1)


def _expressions(forms):
    """(expressions, params) of a tuple of forms: the code of each form
    in t, and the names of its constants in order. A sum's terms are
    added left to right, each in parentheses. The names of the n-th
    FORMULA, counted from 0, get the suffix n (amplitude0,
    angular_frequency0, phase_offset0, value1, ...)."""
    params = []
    leaves = itertools.count()

    def expression(form):
        if isinstance(form, tuple):
            return " + ".join(f"({expression(term)})" for term in form)
        n = next(leaves)
        names = {name: f"{name}{n}" for name in re.findall(r"{(\w+)}", form)}
        params.extend(names.values())
        return form.format(**names)

    return [expression(form) for form in forms], params


@functools.cache
def _compiled(forms, grid):
    """factory(*constants) -> sample(t) for a tuple of forms.

    sample(t) returns the tuple of the forms' values at t, or the value
    of the one form. `grid` picks the namespace: math's functions for a
    scalar t, numpy's for a float array (a drive's `evaluate` only). The
    code is that of `_expressions`, and the factory takes the constants'
    names as parameters in order. The source is registered under the
    filename "<drive sampler k>", k counting the codes compiled.
    """
    values, params = _expressions(forms)
    source = (f"def factory({', '.join(params)}):\n"
              f"    def sample(t):\n"
              f"        return {', '.join(values)}\n"
              f"    return sample\n")
    return compile_function(
        source, f"<drive sampler {next(_SAMPLER_NUMBERS)}>", "factory",
        dict(_NAMESPACES[grid]))


def _joined(parts):
    # (forms, constants) of (form, constants) pairs: the forms as a
    # tuple, the constants concatenated in order
    forms, constants = zip(*parts)
    return forms, tuple(itertools.chain.from_iterable(constants))


def _bound(parts, grid):
    # the `_compiled` function of the parts, with their constants bound
    forms, constants = _joined(parts)
    return _compiled(forms, grid)(*constants)


class _FloatCode(ast.NodeTransformer):
    """The tree of a float value at the time named _t$, the value of
    each assignment expression in it made a statement of its own by
    `statement(source) -> name` and that name read for the target."""

    def __init__(self, statement):
        self.statement, self.names = statement, {"t": "_t$"}

    def visit_Name(self, node):
        return ast.Name(self.names.get(node.id, node.id))

    def visit_NamedExpr(self, node):
        value = ast.unparse(self.visit(node.value))
        self.names[node.target.id] = self.statement(value)
        return self.visit_Name(node.target)


@functools.cache
def _lowered(forms, kinds, splits, count):
    """factory(*constants) -> stages(t_0, ..., t_{count - 1}) for a tuple
    of forms, generated and compiled once per forms, kinds and splits.

    stages returns the forms' values at each of the times in turn, as
    one flat tuple of floats: the real and imaginary part of a complex
    form, whose entry in `splits` is true, the value of a float form.
    kinds says which constants are complex; the factory takes each of
    those as name_re and name_im, in the order of `_expressions`.

    Drive formulas meet complex values in three ways, written in real
    arithmetic as CPython up to 3.13 computes them (as `_RATES` do): a
    complex constant c is its parts; c times a float x is (c_re * x -
    c_im * 0.0, c_re * 0.0 + c_im * x), the products with 0.0 computed
    in the factory; a sum adds the parts, a float taking imaginary part
    +0.0. Any other complex operation raises TypeError. Each float
    value is the form's own code, a statement per time with t renamed,
    in the order the scalar `_compiled` sample evaluates it; the value
    of an assignment expression (a Gaussian's (t - center) / width,
    which cannot raise) goes first, as a statement of its own. So the
    floats are the bits of that sample's .real and .imag, and stages
    raises where it raises. The source is registered under the
    filename "<drive stage sampler k>".
    """
    expressions, params = _expressions(forms)
    complex_params = {name for name, kind in zip(params, kinds) if kind}
    zeros = {}    # a part of a complex constant -> the name of part * 0.0
    # the statements and values at one time, "$" standing for its index
    lines, values = [], []

    def statement(source):
        lines.append(f"        _v{len(lines)}_$ = {source}")
        return f"_v{len(lines) - 1}_$"

    def constant(node):
        # the (re, im) sources of a complex constant, else None
        if isinstance(node, ast.Name) and node.id in complex_params:
            return f"{node.id}_re", f"{node.id}_im"
        if isinstance(node, ast.Constant) and type(node.value) is complex:
            return repr(node.value.real), repr(node.value.imag)

    def value(node):
        # a float value's source, or a complex value's (re, im) sources
        if not any(map(constant, ast.walk(node))):
            source = ast.unparse(_FloatCode(statement).visit(node))
            return (source if isinstance(node, (ast.Name, ast.Constant))
                    else statement(source))
        if (c := constant(node)) is not None:
            return c
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            c, x = constant(node.left), value(node.right)
            if c is not None and isinstance(x, str):
                re0, im0 = (zeros.setdefault(part, f"_k{len(zeros)}")
                            for part in c)
                return f"({c[0]} * {x} - {im0})", f"({re0} + {c[1]} * {x})"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            a, b = ((v, "0.0") if isinstance(v, str) else v
                    for v in (value(node.left), value(node.right)))
            return f"({a[0]} + {b[0]})", f"({a[1]} + {b[1]})"
        raise TypeError(f"cannot write {ast.unparse(node)!r} in real "
                        f"arithmetic")

    for expression, split in zip(expressions, splits):
        parts = value(ast.parse(expression, mode="eval").body)
        if isinstance(parts, str) == split:
            raise TypeError(f"{expression!r} does not give a "
                            f"{'complex' if split else 'float'} value")
        values += [parts] if isinstance(parts, str) else parts
    arguments = [part for name, is_complex in zip(params, kinds)
                 for part in ((f"{name}_re", f"{name}_im") if is_complex
                              else (name,))]
    times = [str(j) for j in range(count)]
    source = "\n".join([
        f"def factory({', '.join(arguments)}):",
        *(f"    {name} = {part} * 0.0" for part, name in zeros.items()),
        f"    def stages({', '.join(f'_t{j}' for j in times)}):",
        *(line.replace("$", j) for j in times for line in lines),
        f"        return "
        f"{', '.join(v.replace('$', j) for j in times for v in values)}",
        "    return stages",
        ""])
    return compile_function(
        source, f"<drive stage sampler {next(_SAMPLER_NUMBERS)}>", "factory",
        dict(_NAMESPACES[False]))


class _RebuiltOnCopy:
    """Mixin for frozen dataclasses that keep functions built from their
    fields: pickling and copying rebuild the object through __init__,
    because closures do not pickle."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)


class _Formula(_RebuiltOnCopy):
    """Mixin for the drive shapes: `evaluate` from the shape's `_formula`."""

    def evaluate(self, t):
        """The drive's complex value at t: a complex for a scalar or 0-d
        t, else an array of t's shape. Both come from the shape's
        FORMULA, built at first use for each."""
        if isinstance(t, (float, int)):
            return self._scalar(t)
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self._scalar(float(t))
        # an overflow gives inf silently, as Python floats do at one t
        with np.errstate(over="ignore"):
            return _on_grid(self._grid(t), t)

    @functools.cached_property
    def _scalar(self):
        return _bound([self._formula(False)], False)

    @functools.cached_property
    def _grid(self):
        return _bound([self._formula(False)], True)


# Reader and writer of a number field's spec value and the coercer of
# its value, by the field's annotation (text, under
# `from __future__ import annotations`).
_NUMBER_KINDS = {"complex": (_as_complex, _complex_out, complex),
                 "float": (_number, float, float)}


@functools.cache
def _number_fields(cls):
    """((name, reader, writer, coercer) per init field, required spec keys,
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
    left out. FORMULA names the fields, in field order."""

    def __post_init__(self):
        for name, _, _, coerce in _number_fields(type(self))[0]:
            object.__setattr__(self, name, coerce(getattr(self, name)))

    def _formula(self, real):
        # (FORMULA, field values); with `real`, the complex fields as
        # floats, or None when one of them is not exactly real
        values = tuple(_exact_real(getattr(self, name))
                       if real and coerce is complex else getattr(self, name)
                       for name, _, _, coerce in _number_fields(type(self))[0])
        return None if None in values else (self.FORMULA, values)

    @classmethod
    def from_spec(cls, spec, path):
        numbers, required, optional = _number_fields(cls)
        _mapping(spec, path, required, optional)
        return cls(**{name: read(spec[name], f"{path}.{name}")
                      for name, read, _, _ in numbers if name in spec})

    def to_spec(self):
        spec = {"shape": self.SHAPE}
        for name, _, write, _ in _number_fields(type(self))[0]:
            spec[name] = write(getattr(self, name))
        return spec


@dataclass(frozen=True)
class ConstantDrive(_NumberFields, _Formula):
    """Time-independent value."""

    SHAPE = "constant"
    FORMULA = "{value}"
    value: complex


@dataclass(frozen=True)
class CosineDrive(_NumberFields, _Formula):
    """amplitude * cos(angular_frequency * t + phase_offset)."""

    SHAPE = "cosine"
    FORMULA = "{amplitude} * cos({angular_frequency} * t + {phase_offset})"
    amplitude: complex
    angular_frequency: float
    phase_offset: float = 0.0


@dataclass(frozen=True)
class GaussianDrive(_NumberFields, _Formula):
    """amplitude * exp(-(t - center)^2 / (2 width^2))."""

    SHAPE = "gaussian"
    FORMULA = "{amplitude} * exp(-0.5 * (g := (t - {center}) / {width}) * g)"
    amplitude: complex
    center: float
    width: float

    def __post_init__(self):
        super().__post_init__()
        if not self.width > 0:
            raise ValueError(f"gaussian width must be positive, got {self.width}")


@dataclass(frozen=True)
class PiecewiseDrive(_Formula):
    """Linear interpolation through (t, value) knots, clamped outside."""

    SHAPE = "piecewise"
    # The complex value is composed from the interpolated real and
    # imaginary knot values. With every imaginary knot value +0.0 its
    # real part is re + 0.0, which turns a -0.0 into +0.0.
    FORMULA = "interp(t, {ts}, {re}) + 1j * interp(t, {ts}, {im})"
    REAL_FORMULA = "interp(t, {ts}, {re}) + 0.0"
    times: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("piecewise drive needs at least two (t, value) knots")
        if not all(t0 < t1 for t0, t1 in zip(self.times, self.times[1:])):
            raise ValueError("piecewise knot times must be strictly increasing")

    def _formula(self, real):
        re = tuple(v.real for v in self.values)
        if real:
            if any(_exact_real(v) is None for v in self.values):
                return None
            return self.REAL_FORMULA, (self.times, re)
        return self.FORMULA, (self.times, re, tuple(v.imag for v in self.values))

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
class SumDrive(_Formula):
    """Pointwise sum of component drives."""

    SHAPE = "sum"
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) == 0:
            raise ValueError("sum drive needs at least one term")

    def _formula(self, real):
        # the terms' forms and constants, or None when a term has none
        parts = [term._formula(real) for term in self.terms]
        return None if None in parts else _joined(parts)

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

class _Hamiltonian(_RebuiltOnCopy):
    """Traceless Hermitian dim x dim matrix built from its independent drives.

    Each subclass is a frozen dataclass with one drive field per name in
    KEYS and sets the layout:

    * `dim`, the number of levels;
    * `KEYS`, the dim - 1 real diagonal drives first, then the complex
      couplings in lower-triangle column order;
    * `_SLOTS`, the matrix in row-major order, each slot an index into
      (KEYS values, derived diagonal, conjugated couplings), and
      `_pick = operator.itemgetter(*_SLOTS)`, which selects them in one call.
    """

    def _parts(self):
        # (form, constants) per drive in KEYS order; see `sample`
        parts = []
        for i, key in enumerate(self.KEYS):
            drive = getattr(self, key)
            parts.append(drive._formula(i < self.dim - 1) or (
                _CHECKED,
                (_require_real, drive.evaluate, f"diagonal drive {key}")))
        return parts

    @functools.cached_property
    def sample(self):
        """The function of t that gives the KEYS values at t as a plain
        tuple: a float per diagonal drive, a complex value per coupling;
        the derived diagonal entry is left to the caller.

        A chart's right-hand side, called, samples it at every distinct
        stage time, and the direct-matrix oracle through `matrix`; so it
        is one function generated from the drives' FORMULA templates at
        first use (`_compiled`). A diagonal drive that is real by
        construction is sampled with its float formula, any other
        through `evaluate`, checked at each sample to be real, with a
        finite imaginary part. The chart's step loop takes the same bits
        from `_stages`, five times at once, on CPython up to 3.13.
        """
        return _bound(self._parts(), False)

    @functools.cached_property
    def _stages(self):
        """The function of the five distinct stage times of a DOPRI5
        attempt that gives the KEYS values at each of them in turn, as
        one flat tuple of floats: a float per diagonal drive, the real
        and imaginary part per coupling. They are the bits of `sample`'s
        values, .real and .imag, and it raises where five calls of
        `sample` would. The chart's step loop calls it once per attempt.

        It is generated at first use from the same drive formulas as
        `sample`, only their complex operations written in real
        arithmetic (`_lowered`), so no shape states a second formula;
        the code is compiled once per shape tree and shared by
        Hamiltonians of the same shapes.
        """
        forms, constants = _joined(self._parts())
        kinds = tuple(isinstance(c, complex) for c in constants)
        splits = tuple(i >= self.dim - 1 for i in range(len(self.KEYS)))
        factory = _lowered(forms, kinds, splits, len(_NODES))
        return factory(*(part for c in constants for part in (
            (c.real, c.imag) if isinstance(c, complex) else (c,))))

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
        # The direct-matrix oracle calls this at every distinct stage
        # time, hence the one-call table and entry selection.
        return np.array(self._entries(self.sample(t), complex.conjugate),
                        dtype=complex).reshape(self.dim, self.dim)

    def sample_grid(self, times) -> tuple:
        """The KEYS values over a whole time grid, each of its shape: the
        drives' `evaluate(times)`, a complex array per coupling and the
        real part, checked for realness, per diagonal drive."""
        values = [getattr(self, key).evaluate(times) for key in self.KEYS]
        for i, key in enumerate(self.KEYS[:self.dim - 1]):
            values[i] = _require_real_grid(values[i], times,
                                           f"diagonal drive {key}")
        return tuple(values)

    def matrix_grid(self, times) -> np.ndarray:
        """Stacked Hamiltonian matrices over a time grid, shape (N, dim, dim)."""
        entries = self._entries(self.sample_grid(times), np.conjugate)
        return np.stack(entries, axis=-1).reshape(
            np.shape(times) + (self.dim, self.dim))


@dataclass(frozen=True)
class Hamiltonian2(_Hamiltonian):
    """Traceless Hermitian 2x2: diagonal (h, -h), off-diagonal coupling v.

    Matrix layout:

        [[ h,   conj(v) ],
         [ v,  -h       ]]
    """

    h: DriveSignal
    v: DriveSignal

    dim = 2
    KEYS = ("h", "v")
    _SLOTS = (0, 3,
              1, 2)
    _pick = operator.itemgetter(*_SLOTS)


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

    dim = 3
    KEYS = ("h1", "h2", "v1", "v2", "v3")
    _SLOTS = (0, 6, 7,
              2, 1, 8,
              3, 4, 5)
    _pick = operator.itemgetter(*_SLOTS)


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """Everything a propagation run needs, as parsed from one document."""

    hamiltonian: Union[Hamiltonian2, Hamiltonian3]
    t_start: float
    t_end: float
    rel_tol: float = IntegratorSettings.rel_tol
    abs_tol: float = IntegratorSettings.abs_tol
    max_step: float = None            # default (t_end - t_start) / 100

    def __post_init__(self):
        if self.max_step is None:
            object.__setattr__(self, "max_step",
                               (self.t_end - self.t_start) / 100.0)

    @property
    def system(self) -> int:
        """Number of levels, 2 or 3; always that of the Hamiltonian."""
        return self.hamiltonian.dim


# The largest |angular_frequency| * spacing(t) a cosine may have on its
# time window, spacing(t) being the gap between t and the next double.
# Past it, rounding t moves the phase by more than this many radians,
# so the drive keeps fewer than about six correct digits; on a window
# that starts at 0 it also runs through more than 7e8 periods, far more
# than any step budget resolves.
_PHASE_ROUNDING_BOUND = 1e-6


def _leaves(drive, path="drive"):
    """(path, leaf) for every drive in drive that is not a sum, the
    terms of sums included, in order."""
    if isinstance(drive, SumDrive):
        for i, term in enumerate(drive.terms):
            yield from _leaves(term, f"{path}.terms[{i}]")
    else:
        yield path, drive


def _check_phases(drive, path, t_start, t_end):
    """Raise ConfigError unless the phase angular_frequency * t +
    phase_offset of every cosine in drive, the terms of a sum included,
    is finite on [t_start, t_end] and more than rounding noise there.
    The phase is linear in t, so the window ends decide: past an
    overflow math.cos has no value, and the spacing of the doubles
    grows with |t|, so the end farther from 0 rounds coarsest."""
    for path, cosine in _leaves(drive, path):
        if not isinstance(cosine, CosineDrive):
            continue
        for t in (t_start, t_end):
            if not math.isfinite(cosine.angular_frequency * t
                                 + cosine.phase_offset):
                raise ConfigError(
                    f"{path}: angular_frequency * t + phase_offset "
                    f"overflows at t = {t!r}")
        t = max(abs(t_start), abs(t_end))
        noise = abs(cosine.angular_frequency) * math.ulp(t)
        if noise > _PHASE_ROUNDING_BOUND:
            raise ConfigError(
                f"{path}: angular_frequency * t + phase_offset is rounding "
                f"noise: |angular_frequency| * spacing({t!r}) = {noise:.3g} "
                f"exceeds {_PHASE_ROUNDING_BOUND:g}")


_HAMILTONIANS = {2: Hamiltonian2, 3: Hamiltonian3}
_INTEGRATOR_KEYS = ("rel_tol", "abs_tol", "max_step")


def parse_config(source) -> RunConfig:
    """Parse a run config from YAML/JSON text, a mapping, or an open file."""
    if isinstance(source, dict):
        raw = source
    else:
        import yaml

        text = source.read() if hasattr(source, "read") else source
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML/JSON: {exc}") from None
        except ValueError as exc:
            # a literal the loader cannot convert, such as an integer of
            # more digits than Python converts from a string
            raise ConfigError(f"config: unreadable value: {exc}") from None
    _mapping(raw, "config", ("system", "time", "hamiltonian"), ("integrator",))

    # an integer: operator.index takes no float such as 3.0
    try:
        cls = _HAMILTONIANS[operator.index(raw["system"])]
    except (TypeError, KeyError):
        raise ConfigError(f"system: must be 2 or 3, got "
                          f"{reprlib.repr(raw['system'])}") from None

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
    # A run needs a finite window, a first step, max_step / 100, that
    # does not underflow to 0, steps that move t on the window, and few
    # enough of them (max_step defaults to window / 100).
    if not math.isfinite(t_end - t_start):
        raise ConfigError("time: end - start overflows a double")
    max_step = settings.get("max_step", (t_end - t_start) / 100.0)
    field = "integrator.max_step" if "max_step" in settings else "time"
    if not max_step / 100.0 > 0:
        raise ConfigError(f"{field}: the first step, max_step / 100 with "
                          f"max_step = {max_step!r}, underflows to 0")
    if steps_stall(t_start, t_end, max_step):
        raise ConfigError(f"{field}: max_step = {max_step!r} is too small to "
                          f"move t on [{t_start!r}, {t_end!r}]")
    # A step moves t by at most max_step plus the rounding of t + h, at
    # most spacing(t_far); a window wider than max_steps such moves can
    # only end in step_limit. The 1e-9 covers this check's own rounding.
    budget = IntegratorSettings.max_steps
    t_far = max(abs(t_start), abs(t_end))
    if t_end - t_start > budget * (max_step + math.ulp(t_far)) * (1 + 1e-9):
        raise ConfigError(f"{field}: {budget} steps of max_step = "
                          f"{max_step!r} cannot cross [{t_start!r}, "
                          f"{t_end!r}]")

    drives = _mapping(raw["hamiltonian"], "hamiltonian", cls.KEYS,
                      ("h3",) if cls.dim == 3 else ())
    built = {key: drive_from_spec(drives[key], f"hamiltonian.{key}")
             for key in (*cls.KEYS, "h3") if key in drives}
    for key, drive in built.items():
        _check_phases(drive, f"hamiltonian.{key}", t_start, t_end)
    h3 = built.pop("h3", None)
    _check_diagonal(built, cls.KEYS[:cls.dim - 1], h3, t_start, t_end)
    return RunConfig(hamiltonian=cls(**built), t_start=t_start, t_end=t_end,
                     **settings)


def _check_diagonal(built, keys, h3, t_start, t_end):
    """Raise ConfigError unless the diagonal drives built[key] evaluate
    real on [t_start, t_end] and a stated h3 equals -(h1 + h2) there.

    Checked on 11 points of the window and at the knot times inside it,
    and by the Hamiltonian at each sample in between. A piecewise drive
    is linear between its knots, so an imaginary part anywhere on the
    window shows at one of these points. The h3 check uses the same
    points: where h1, h2 and h3 are piecewise or constant, h1 + h2 + h3
    is linear between them. A drive that is real by construction (its
    `_formula(True)`, as in `sample`) cannot fail the check, so it is
    evaluated only when h3 is stated and needs its values.
    """
    checked = [key for key in keys
               if h3 is not None or built[key]._formula(True) is None]
    if not checked:
        return
    grid = np.linspace(t_start, t_end, 11)
    drives = [built[key] for key in keys] + ([] if h3 is None else [h3])
    knots = [t for drive in drives for _, leaf in _leaves(drive)
             if isinstance(leaf, PiecewiseDrive)
             for t in leaf.times if t_start <= t <= t_end]
    if knots:  # most configs have none, and np.union1d is not free
        grid = np.union1d(grid, knots)
    diagonal = {}
    for key in checked:
        try:
            diagonal[key] = _require_real_grid(built[key].evaluate(grid), grid,
                                               f"diagonal drive {key}")
        except ValueError as exc:
            raise ConfigError(f"hamiltonian.{key}: {exc}") from None
    if h3 is not None:
        # Redundant entry tolerated only when consistent with tracelessness.
        derived = -(diagonal["h1"] + diagonal["h2"])
        for t, stated, want in zip(grid, h3.evaluate(grid), derived):
            if abs(stated - want) > 1e-12 * (1.0 + abs(want)):
                raise ConfigError(
                    f"hamiltonian.h3: must equal -(h1 + h2); differs at t={t} "
                    f"({stated} vs {want})")


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
    import yaml

    return yaml.safe_dump(config_to_dict(config), sort_keys=True)
