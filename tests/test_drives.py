"""Tests for drive signals, Hamiltonians, and config parsing."""

import copy
import dataclasses
import functools
import io
import json
import linecache
import math
import pickle
import random
import re
import struct
import traceback

import numpy as np
import pytest

from chartprop import (ConfigError, ConstantDrive, CosineDrive, GaussianDrive,
                       Hamiltonian2, Hamiltonian3, IntegratorSettings,
                       PiecewiseDrive, RunConfig, SumDrive, config_to_dict,
                       drive_from_spec, parse_config, serialize_config)
from chartprop import drives
from chartprop.integrate import _NODES

CONFIG3 = """
system: 3
time: {start: 0.0, end: 6.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h1: {shape: constant, value: 0.4}
  h2: {shape: cosine, amplitude: 0.2, angular_frequency: 1.3, phase_offset: 0.1}
  v1: {shape: gaussian, amplitude: [0.3, 0.1], center: 3.0, width: 0.8}
  v2: {shape: constant, value: [0.0, 0.25]}
  v3:
    shape: sum
    terms:
      - {shape: constant, value: 0.05}
      - {shape: piecewise, knots: [[0.0, 0.0], [3.0, [0.2, -0.1]], [6.0, 0.0]]}
"""


def test_constant_drive_scalar_and_grid():
    d = ConstantDrive(1.5 - 0.5j)
    assert d.evaluate(0.3) == 1.5 - 0.5j
    grid = d.evaluate(np.linspace(0, 1, 5))
    assert grid.shape == (5,)
    assert np.all(grid == 1.5 - 0.5j)


def test_cosine_drive_matches_closed_form():
    d = CosineDrive(amplitude=2.0, angular_frequency=3.0, phase_offset=0.7)
    for t in (0.0, 0.5, 1.7):
        assert d.evaluate(t) == 2.0 * math.cos(3.0 * t + 0.7)
    ts = np.linspace(0, 2, 9)
    assert np.allclose(d.evaluate(ts), 2.0 * np.cos(3.0 * ts + 0.7), rtol=0,
                       atol=1e-15)


def test_gaussian_drive_peak_and_width():
    d = GaussianDrive(amplitude=1.0 + 1.0j, center=2.0, width=0.5)
    assert d.evaluate(2.0) == 1.0 + 1.0j
    # one width out: factor exp(-1/2)
    assert abs(d.evaluate(2.5) - (1 + 1j) * math.exp(-0.5)) < 1e-15
    with pytest.raises(ValueError):
        GaussianDrive(amplitude=1.0, center=0.0, width=0.0)


def test_piecewise_drive_interpolates_and_clamps():
    d = PiecewiseDrive((0.0, 1.0, 2.0), (0.0, 1.0 + 2.0j, 0.0))
    assert d.evaluate(0.5) == 0.5 + 1.0j
    assert d.evaluate(-5.0) == 0.0
    assert d.evaluate(99.0) == 0.0
    with pytest.raises(ValueError):
        PiecewiseDrive((0.0, 0.0), (1.0, 2.0))  # knots not increasing
    with pytest.raises(ValueError):
        PiecewiseDrive((0.0,), (1.0,))


def test_sum_drive_adds_terms():
    d = SumDrive((ConstantDrive(1.0), CosineDrive(1.0, 2.0)))
    assert abs(d.evaluate(0.4) - (1.0 + math.cos(0.8))) < 1e-15


def test_drive_spec_round_trip():
    drives = [
        ConstantDrive(0.5 - 2.0j),
        CosineDrive(1.0 + 1.0j, 2.5, -0.3),
        GaussianDrive(0.7, 1.0, 0.4),
        PiecewiseDrive((0.0, 1.0), (1.0j, 2.0)),
        SumDrive((ConstantDrive(1.0), GaussianDrive(1.0, 0.0, 1.0))),
    ]
    for d in drives:
        again = drive_from_spec(d.to_spec())
        assert again == d


def test_drive_from_spec_rejects_bad_input():
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "sawtooth"})
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "constant"})  # missing value
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "constant", "value": 1.0, "width": 2.0})
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "cosine", "amplitude": 1.0})
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "sum", "terms": []})
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "constant", "value": "fast"})
    with pytest.raises(ConfigError):
        drive_from_spec({"shape": "constant", "value": [1.0, 2.0, 3.0]})


def test_complex_values_accepted_as_re_im_pairs():
    d = drive_from_spec({"shape": "constant", "value": [1.0, -2.0]})
    assert d.value == 1.0 - 2.0j


def test_yaml_style_float_strings_are_coerced():
    # YAML 1.1 loaders hand back "1e-9" as a string; the parser must cope.
    d = drive_from_spec({"shape": "cosine", "amplitude": "0.5",
                         "angular_frequency": "1e0"})
    assert d.amplitude == 0.5
    assert d.angular_frequency == 1.0


def test_hamiltonian2_matrix_structure():
    ham = Hamiltonian2(h=ConstantDrive(0.3), v=ConstantDrive(0.5 + 0.2j))
    m = ham.matrix(0.0)
    assert m[0, 0] == 0.3
    assert m[1, 1] == -0.3
    assert m[0, 1] == np.conj(m[1, 0])
    assert m[1, 0] == 0.5 + 0.2j
    h, v = ham.sample(1.7)
    assert h == 0.3 and v == 0.5 + 0.2j
    assert np.array_equal(m, m.conj().T) and np.trace(m) == 0


def test_hamiltonian2_rejects_complex_diagonal():
    ham = Hamiltonian2(h=ConstantDrive(1.0j), v=ConstantDrive(0.0))
    with pytest.raises(ValueError, match="diagonal drive h"):
        ham.sample(0.0)
    with pytest.raises(ValueError, match="^diagonal drive h must evaluate "
                                         "real everywhere on the grid"):
        ham.sample_grid([0.0, 1.0])


@pytest.mark.parametrize("entry", ["h1", "h2"])
def test_hamiltonian3_rejects_complex_diagonal(entry):
    drives = dict(h1=ConstantDrive(0.1), h2=ConstantDrive(0.2),
                  v1=ConstantDrive(0.0), v2=ConstantDrive(0.0),
                  v3=ConstantDrive(0.0))
    drives[entry] = CosineDrive(1.0j, 1.0)
    ham = Hamiltonian3(**drives)
    with pytest.raises(ValueError, match=f"diagonal drive {entry}"):
        ham.sample(0.0)
    with pytest.raises(ValueError, match=f"^diagonal drive {entry} must "
                                         "evaluate real everywhere"):
        ham.matrix_grid([0.0, 1.0])


# Every shape, with exactly real and with complex parameters. The edge
# cases are an amplitude with imaginary part -0.0 (not exactly real:
# it flips the sign of a zero product in complex arithmetic) and an
# imaginary part small enough to pass the per-sample realness check.
REAL_DRIVES = [
    ConstantDrive(0.4),
    ConstantDrive(complex(0.0, -0.0)),
    ConstantDrive(complex(0.5, 1e-17)),
    CosineDrive(-0.7, 1.3, 0.2),
    CosineDrive(complex(0.0, -0.0), 1.0),
    CosineDrive(complex(-0.0, 0.0), 1.0),
    GaussianDrive(0.6, 1.0, 0.4),
    GaussianDrive(complex(0.3, -0.0), 1.0, 0.4),
    PiecewiseDrive((0.0, 1.0, 2.0), (0.1, -0.3, 0.2)),
    SumDrive((ConstantDrive(0.1), CosineDrive(0.2, 2.0))),
    SumDrive((CosineDrive(0.3, 1.0), SumDrive((GaussianDrive(-0.2, 1.0, 0.5),
                                               ConstantDrive(0.1))))),
    SumDrive((GaussianDrive(0.2, 1.0, 0.5),
              PiecewiseDrive((0.0, 3.0), (0.1, -0.1)))),
    SumDrive((ConstantDrive(0.1 + 0.2j), ConstantDrive(0.3 - 0.2j))),
]
COMPLEX_DRIVES = [
    ConstantDrive(0.5 - 0.25j),
    CosineDrive(0.4 + 0.1j, 1.1, -0.3),
    GaussianDrive(-0.2 + 0.5j, 1.5, 0.7),
    PiecewiseDrive((0.0, 2.0), (0.3j, 0.1 - 0.2j)),
    SumDrive((ConstantDrive(0.1j), GaussianDrive(0.3, 1.0, 0.5))),
    SumDrive((CosineDrive(0.2 + 0.1j, 1.0), PiecewiseDrive((0.0, 2.0),
                                                         (0.0, 1.0j)))),
]
SAMPLE_TIMES = [0.0, 0.37, 2.0, 3, np.float64(0.9), np.float64(1.0) / 3]


def _bits(value):
    c = complex(value)
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("drive", REAL_DRIVES + COMPLEX_DRIVES, ids=repr)
def test_coupling_sampler_matches_evaluate_bit_for_bit(drive):
    ham2 = Hamiltonian2(h=ConstantDrive(0.0), v=drive)
    ham3 = Hamiltonian3(h1=ConstantDrive(0.0), h2=ConstantDrive(0.0),
                        v1=drive, v2=drive, v3=drive)
    for t in SAMPLE_TIMES:
        want = _bits(drive.evaluate(t))
        assert type(ham2.sample(t)) is tuple
        assert type(ham3.sample(t)) is tuple
        _, v = ham2.sample(t)
        _, _, v1, v2, v3 = ham3.sample(t)
        for value in (v, v1, v2, v3):
            assert type(value) is complex
            assert _bits(value) == want


@pytest.mark.parametrize("drive", REAL_DRIVES, ids=repr)
def test_diagonal_sampler_matches_evaluate_bit_for_bit(drive):
    zero = ConstantDrive(0.0)
    ham2 = Hamiltonian2(h=drive, v=zero)
    ham3 = Hamiltonian3(h1=drive, h2=drive, v1=zero, v2=zero, v3=zero)
    for t in SAMPLE_TIMES:
        want = complex(drive.evaluate(t)).real.hex()
        assert type(ham2.sample(t)) is tuple
        assert type(ham3.sample(t)) is tuple
        h, _ = ham2.sample(t)
        h1, h2, _, _, _ = ham3.sample(t)
        for value in (h, h1, h2):
            assert type(value) is float
            assert value.hex() == want


@pytest.mark.parametrize("t", [np.int64(2), np.float32(2), np.array(2.0)],
                         ids=["int64", "float32", "0-d array"])
def test_evaluate_on_a_numpy_scalar_is_the_python_scalar_path(t):
    for drive in REAL_DRIVES + COMPLEX_DRIVES:
        value = drive.evaluate(t)
        assert type(value) is complex
        assert _bits(value) == _bits(drive.evaluate(2.0))


@pytest.mark.parametrize("ham", [
    Hamiltonian2(h=CosineDrive(0.3, 1.2), v=GaussianDrive(0.5 + 0.1j, 1.0,
                                                          0.5)),
    Hamiltonian3(h1=PiecewiseDrive((0.0, 2.0), (0.1, -0.1)),
                 h2=ConstantDrive(complex(0.2, -0.0)),
                 v1=CosineDrive(0.4j, 0.7), v2=ConstantDrive(0.25j),
                 v3=SumDrive((ConstantDrive(0.1), GaussianDrive(0.2j, 1.0,
                                                                0.3)))),
], ids=["two_level", "three_level"])
def test_hamiltonian_copies_compare_equal_and_sample_identically(ham):
    copies = [pickle.loads(pickle.dumps(ham)), copy.deepcopy(ham),
              copy.copy(ham), dataclasses.replace(ham)]
    for other in copies:
        assert other == ham
        assert hash(other) == hash(ham)
        for t in SAMPLE_TIMES:
            assert ([_bits(x) for x in other.sample(t)]
                    == [_bits(x) for x in ham.sample(t)])
        # each copy builds its own sampler, on the same compiled code
        assert other.sample is not ham.sample
        assert other.sample.__code__ is ham.sample.__code__
    assert "sample" not in repr(ham)


def test_hamiltonians_of_the_same_shapes_share_the_sampler_code():
    # The sampler is compiled once per form, the shapes of the entries;
    # the constants are bound per Hamiltonian.
    def three(scale):
        return Hamiltonian3(h1=CosineDrive(0.3 * scale, 1.2),
                            h2=GaussianDrive(0.2 * scale, 1.0, 0.5),
                            v1=ConstantDrive(0.1j * scale),
                            v2=SumDrive((CosineDrive(0.2j, scale),
                                         PiecewiseDrive((0.0, scale),
                                                        (0.0, 1.0j)))),
                            v3=CosineDrive(0.5 + 0.1j, 0.7 * scale))
    a, b = three(1.0), three(2.0)
    assert a.sample is not b.sample
    assert a.sample.__code__ is b.sample.__code__
    assert a.sample(0.4) != b.sample(0.4)
    # real and complex diagonal parameters are different forms
    other = Hamiltonian3(h1=CosineDrive(0.3 + 0.1j, 1.2), h2=a.h2, v1=a.v1,
                         v2=a.v2, v3=a.v3)
    assert other.sample.__code__ is not a.sample.__code__
    # the grid path, the drives' own grid functions, is shared the same
    # way; it is the scalar code's source compiled once more, with
    # numpy's functions
    a.sample_grid([0.4])
    b.sample_grid([0.4])
    for key in a.KEYS:
        drive_a, drive_b = getattr(a, key), getattr(b, key)
        assert drive_a._grid is not drive_b._grid
        assert drive_a._grid.__code__ is drive_b._grid.__code__
        assert drive_a._grid.__code__ is not drive_a._scalar.__code__
        assert drive_a._grid.__globals__["exp"] is np.exp
        assert drive_a._scalar.__globals__["exp"] is math.exp
    assert (CosineDrive(0.4, 1.0)._scalar.__code__
            is CosineDrive(-0.2j, 3.0, 1.0)._scalar.__code__)


def test_grid_overflow_gives_inf_without_a_warning():
    # ((t - center) / width)^2 overflows for so narrow a Gaussian. At one
    # t Python floats overflow to inf silently; the grid path does the
    # same (the suite turns a warning into an error), and both give the
    # Gaussian's limit: the amplitude at the center, 0 elsewhere.
    drive = GaussianDrive(0.5, 0.5, 1e-200)
    grid = np.linspace(0.0, 1.0, 11)
    want = np.where(grid == 0.5, 0.5, 0.0)
    assert np.array_equal(drive.evaluate(grid), want)
    assert [drive.evaluate(t) for t in grid.tolist()] == want.tolist()
    for ham in (Hamiltonian2(h=drive, v=drive),
                Hamiltonian3(h1=drive, h2=drive, v1=drive, v2=drive,
                             v3=drive)):
        for values in ham.sample_grid(grid):
            assert np.array_equal(values, want)


def test_sampler_tracebacks_show_the_generated_line():
    # 1e308 * 10 overflows to inf, which math.cos rejects
    drive = CosineDrive(1.0, 1e308)
    ham = Hamiltonian2(h=ConstantDrive(0.0), v=drive)
    for sample in (drive.evaluate, ham.sample,
                   lambda t: ham._stages(0.0, t, t, t, t)):
        with pytest.raises(ValueError, match="math domain error") as failure:
            sample(10.0)
        frame = traceback.extract_tb(failure.value.__traceback__)[-1]
        assert frame.filename.startswith("<drive sampler ")
        assert re.fullmatch(r"_v0_1? = cos\(angular_frequency[01] \* _t1? "
                            r"\+ phase_offset[01]\)", frame.line)


def _stage_bits(values):
    # the bits of a sequence of floats, NaN signs and payloads included
    assert all(type(v) is float for v in values)
    return struct.pack(f"<{len(values)}d", *values)


# The reference for the generated scalar code: each drive's
# `_expressions` code run in complex arithmetic, with math's functions
# and the pure-Python interp. Where a form's value is complex, each
# function's float value is promoted to a complex value with a +0.0
# imaginary part, written out as CPython up to 3.13 does it implicitly
# (later versions follow C99's mixed-mode rules), so that the reference
# holds on every CPython.
def _promoted(function):
    return lambda *args: complex(function(*args), 0.0)


_MATH = {"cos": math.cos, "exp": math.exp, "interp": drives._interp}
_PROMOTED = {name: _promoted(function) for name, function in _MATH.items()}


@functools.cache
def _reference_code(form):
    [expression], params = drives._expressions((form,))
    return compile(expression, "<reference>", "eval"), params


def _reference_value(part, is_complex, t):
    # the value at t of a (form, constants) part
    code, params = _reference_code(part[0])
    return eval(code, {**(_PROMOTED if is_complex else _MATH),
                       **dict(zip(params, part[1])), "t": t})


def _reference_evaluate(drive, t):
    return _reference_value(drive._formula(False), True, t)


def _reference_sample(ham, t):
    """ham.sample(t) from the reference: a diagonal drive that is real
    by construction as its float formula, any other checked to be real,
    and each coupling's complex value."""
    values = []
    for i, key in enumerate(ham.KEYS):
        drive = getattr(ham, key)
        if i >= ham.dim - 1:
            values.append(_reference_evaluate(drive, t))
        elif (part := drive._formula(True)) is not None:
            values.append(_reference_value(part, False, t))
        else:
            values.append(drives._require_real(_reference_evaluate(drive, t),
                                               t, f"diagonal drive {key}"))
    return values


def _sampled_stages(ham, times, sample):
    """The stage sampler's values from a function like ham.sample at
    each time: a float per diagonal drive, .real and .imag per
    coupling."""
    values = []
    for t in times:
        for i, value in enumerate(sample(t)):
            assert type(value) is (float if i < ham.dim - 1 else complex)
            values += [value] if i < ham.dim - 1 else [value.real, value.imag]
    return values


def _reference_stages(ham, times):
    return _sampled_stages(ham, times, lambda t: _reference_sample(ham, t))


def _evaluated(ham, times, evaluate):
    # every drive's complex value at each time, from a function like
    # drive.evaluate, as .real and .imag
    values = [evaluate(getattr(ham, key), t) for t in times
              for key in ham.KEYS]
    assert all(type(value) is complex for value in values)
    return [part for value in values for part in (value.real, value.imag)]


STAGE_TIMES = [(0.0, 0.37, 2.0, 1.0 / 3.0, 0.9),
               (-0.0, 1.0, 3.0, 1e-300, -2.5),
               (0.5, 0.25, 7.0, 1.5, 0.75)]


def _assert_samplers_match_the_reference(ham, stage_times=STAGE_TIMES):
    # ham._stages, ham.sample and every drive's evaluate, to the bit
    for times in stage_times:
        want = _stage_bits(_reference_stages(ham, times))
        assert _stage_bits(ham._stages(*times)) == want
        assert _stage_bits(_sampled_stages(ham, times, ham.sample)) == want
        assert (_stage_bits(_evaluated(ham, times, drives._Formula.evaluate))
                == _stage_bits(_evaluated(ham, times, _reference_evaluate)))


def _each_level(diagonal, coupling):
    return (Hamiltonian2(h=diagonal, v=coupling),
            Hamiltonian3(h1=diagonal, h2=diagonal, v1=coupling, v2=coupling,
                         v3=coupling))


@pytest.mark.parametrize("drive", REAL_DRIVES + COMPLEX_DRIVES, ids=repr)
def test_stage_sampler_gives_the_bits_of_sample(drive):
    # the stage sampler, sample and evaluate are the drives' formulas in
    # real arithmetic: they give the bits of the complex arithmetic of
    # the reference, every shape and tree, with the drive as a coupling
    # and, where it is real, as a diagonal drive (checked at each sample
    # where it is not real by construction)
    for ham in _each_level(ConstantDrive(0.3), drive):
        _assert_samplers_match_the_reference(ham)
    if drive in REAL_DRIVES:
        for ham in _each_level(drive, CosineDrive(0.4 - 0.2j, 0.8)):
            _assert_samplers_match_the_reference(ham)


ZERO_PARTS = [complex(re, im) for re in (0.0, -0.0, 0.6)
              for im in (0.0, -0.0, -0.3)]


@pytest.mark.parametrize("shape", [
    lambda a: ConstantDrive(a),
    lambda a: CosineDrive(a, 1.3, -0.2),
    lambda a: GaussianDrive(a, 0.5, 0.8),
    lambda a: PiecewiseDrive((0.0, 1.0, 2.0), (a, -a, 0.5 * a)),
    lambda a: SumDrive((ConstantDrive(a), CosineDrive(a, 0.7))),
], ids=["constant", "cosine", "gaussian", "piecewise", "sum"])
def test_stage_sampler_keeps_signed_zero_parts(shape):
    # amplitudes with parts of +0.0 and -0.0, where a float meeting a
    # complex value decides the sign of a zero: the reference's explicit
    # promotion, on every CPython
    for amplitude in ZERO_PARTS:
        for diagonal in (0.0, -0.0):
            for ham in _each_level(shape(complex(diagonal)),
                                   shape(amplitude)):
                _assert_samplers_match_the_reference(ham)


def test_stage_sampler_overflow_and_nan():
    # ((t - center) / width)^2 overflows for a width of 1e-200, giving
    # the amplitude at the center and 0 elsewhere; NaN times and NaN
    # amplitudes give NaN where the reference does
    narrow = GaussianDrive(0.5 - 0.25j, 0.5, 1e-200)
    for ham in _each_level(GaussianDrive(0.5, 0.5, 1e-200), narrow):
        _assert_samplers_match_the_reference(ham)
        values = ham._stages(0.5, 0.4, 0.6, 0.5, 1.0)
        per_time = len(values) // 5
        assert values[0] == 0.5
        assert list(values[per_time - 2:per_time + 1]) == [0.5, -0.25, 0.0]
    # NaN times with finite drives, and NaN amplitudes at finite times,
    # to the bit. Where two NaNs meet in one product, C leaves open which
    # one's sign and payload survive, in CPython's float and complex code
    # alike, so there the NaN positions are pinned.
    nan = math.nan
    times = (nan, 0.5, -nan, 1.0, 2.0)
    for ham in _each_level(CosineDrive(0.3, 1.0),
                           GaussianDrive(0.4 - 0.1j, 1.0, 0.5)):
        _assert_samplers_match_the_reference(ham, [times])
    for diagonal, coupling in [
            (CosineDrive(nan, 1.0), ConstantDrive(complex(nan, 1.0))),
            (ConstantDrive(0.2), CosineDrive(complex(1.0, nan), 1.0)),
            (GaussianDrive(0.3, nan, 1.0), GaussianDrive(-nan, 1.0, 0.5))]:
        for ham in _each_level(diagonal, coupling):
            _assert_samplers_match_the_reference(ham)
            assert np.array_equal(ham._stages(*times),
                                  _reference_stages(ham, times),
                                  equal_nan=True)


def test_stage_sampler_raises_where_sample_raises():
    # A diagonal drive that is not real by construction is checked at
    # each time: h1 = (0.3 + 0.2j) cos(t + pi / 2) passes at t = 0 and
    # fails at t = 1, and h2 fails from t = 2 on. The first time in
    # order that fails, and its first drive in key order, raise.
    h1 = CosineDrive(0.3 + 0.2j, 1.0, math.pi / 2)
    h2 = PiecewiseDrive((0.0, 1.5, 2.0), (0.1, 0.1, 0.1 + 0.5j))
    ham = Hamiltonian3(h1=h1, h2=h2, v1=ConstantDrive(0.5 - 0.3j),
                       v2=ConstantDrive(0.1), v3=ConstantDrive(0.2j))
    for times in [(0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 2.0, 1.0, 0.0),
                  (0.0, 0.0, 0.0, 0.0, 3.0)]:
        for t in times:
            try:
                _reference_sample(ham, t)
            except ValueError as exc:
                want = str(exc)
                break
        with pytest.raises(ValueError) as failure:
            ham._stages(*times)
        assert str(failure.value) == want
        with pytest.raises(ValueError, match=re.escape(want)):
            ham.sample(t)
        assert "must evaluate real" in want
    assert "h1" in want or "h2" in want


def test_stage_samplers_share_their_code_per_shape_tree():
    def three(scale):
        return Hamiltonian3(h1=CosineDrive(0.3 * scale, 1.2),
                            h2=ConstantDrive(0.2 * scale),
                            v1=GaussianDrive(0.1j * scale, 1.0, scale),
                            v2=SumDrive((CosineDrive(0.2j, scale),
                                         ConstantDrive(scale))),
                            v3=PiecewiseDrive((0.0, scale), (0.0, 1.0j)))
    a, b = three(1.0), three(2.0)
    assert a._stages is not b._stages
    assert a._stages.__code__ is b._stages.__code__
    # one code per shape tree: sample's and _stages' come from one source
    assert a._stages.__code__.co_filename.startswith("<drive sampler ")
    assert a.sample.__code__.co_filename == a._stages.__code__.co_filename
    other = dataclasses.replace(a, h2=GaussianDrive(0.2, 1.0, 0.5))
    assert other._stages.__code__ is not a._stages.__code__


def test_constant_couplings_are_built_once_and_grids_get_no_stages():
    # at one t a complex value that reads no time is built by the factory,
    # one object for every call; the grid build generates sample alone
    ham = Hamiltonian2(h=ConstantDrive(0.2), v=ConstantDrive(0.3 - 0.1j))
    assert ham.sample(0.1)[1] is ham.sample(0.7)[1] == 0.3 - 0.1j
    assert ham.v.evaluate(0.1) is ham.v.evaluate(0.7)
    ham.sample_grid([0.1, 0.2])
    source = "".join(linecache.getlines(ham.v._grid.__code__.co_filename))
    assert "def sample" in source and "def stages" not in source


@pytest.mark.parametrize("imag", [math.nan, -math.nan, math.inf, -math.inf])
def test_a_non_finite_imaginary_part_fails_the_realness_check(imag):
    # NaN > x and inf > inf are false, so a bare tolerance test would
    # pass h = 0.3 + nan j as 0.3; every path raises instead
    bad = ConstantDrive(complex(0.3, imag))
    for ham in _each_level(ConstantDrive(0.1), ConstantDrive(0.2)):
        ham = dataclasses.replace(ham, **{ham.KEYS[ham.dim - 2]: bad})
        what = f"^diagonal drive {ham.KEYS[ham.dim - 2]} must evaluate real"
        with pytest.raises(ValueError, match=what + ", got"):
            ham.sample(0.5)
        with pytest.raises(ValueError, match=what + ", got"):
            ham._stages(*STAGE_TIMES[0])
        with pytest.raises(ValueError, match=what + " everywhere on the grid"):
            ham.sample_grid([0.0, 0.5, 1.0])


@pytest.mark.parametrize("real", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("imag", [0.0, -0.0])
def test_a_non_finite_real_part_passes_the_realness_check(real, imag):
    # with a zero imaginary part the value is real, whether the drive is
    # real by construction (+0.0) or checked at each sample (-0.0)
    value = complex(real, imag)
    for ham in _each_level(ConstantDrive(value), ConstantDrive(0.2)):
        want = [real] * (ham.dim - 1)
        assert np.array_equal(ham.sample(0.5)[:ham.dim - 1], want,
                              equal_nan=True)
        assert np.array_equal(ham._stages(*STAGE_TIMES[0])[:ham.dim - 1],
                              want, equal_nan=True)
        for values in ham.sample_grid([0.0, 1.0])[:ham.dim - 1]:
            assert np.array_equal(values, [real, real], equal_nan=True)


def _random_tree(shapes, numbers, diagonal, depth=0):
    """A random drive of any shape, its shape tree drawn from `shapes`
    and its numbers from `numbers`; sums nest up to two levels deep.
    Amplitudes have parts of +-0.0, ordinary and huge values, and now
    and then inf or NaN; a diagonal drive's imaginary parts are mostly
    zeros, or small enough to pass the realness check, or not."""
    def part():
        if numbers.random() < 0.03:
            return numbers.choice([math.inf, -math.inf, math.nan])
        return numbers.choice([0.0, -0.0, 0.3, -1.7, 2.5e-3, 1e300])

    def amplitude():
        if diagonal:
            return complex(part(), numbers.choice([0.0, 0.0, 0.0, -0.0,
                                                   1e-17, 3e-16, 0.2]))
        return complex(part(), part())

    shape = shapes.choice(["constant", "cosine", "gaussian", "piecewise",
                           "sum" if depth < 2 else "constant"])
    if shape == "constant":
        return ConstantDrive(amplitude())
    if shape == "cosine":
        return CosineDrive(amplitude(), numbers.choice([0.7, -2.0, 1e308]
                                                       if numbers.random() < 0.1
                                                       else [0.7, -2.0]),
                           numbers.choice([0.0, -0.0, 1.3]))
    if shape == "gaussian":
        return GaussianDrive(amplitude(), numbers.choice([0.0, -0.0, 1.5]),
                             numbers.choice([0.8, 1e-200]))
    if shape == "piecewise":
        times = sorted(numbers.sample([-1.0, -0.0, 0.5, 1.0, 2.5],
                                      shapes.choice([2, 3])))
        return PiecewiseDrive(tuple(times), tuple(amplitude() for _ in times))
    return SumDrive(tuple(_random_tree(shapes, numbers, diagonal, depth + 1)
                          for _ in range(shapes.choice([1, 2, 3]))))


def _outcome(function, *args):
    # ("values", values) of a call, or ("raised", type, message)
    try:
        return "values", function(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _assert_same_outcome(got, want):
    # Where two NaNs meet in one operation, C leaves open which one's
    # sign and payload survive (in CPython's float and complex code
    # alike), so a NaN matches any NaN.
    if got[0] == want[0] == "values":
        nan = [v != v for v in want[1]]
        assert [v != v for v in got[1]] == nan
        assert (_stage_bits([0.0 if v != v else v for v in got[1]])
                == _stage_bits([0.0 if v != v else v for v in want[1]]))
    else:
        assert got == want


def _grid_parts(values):
    # a complex array's .real and .imag parts, element by element
    assert values.dtype == complex
    return np.ascontiguousarray(values).view(float).ravel().tolist()


def test_stage_sampler_matches_sample_on_random_drive_trees():
    # 3600 random Hamiltonians of both dimensions whose drives are
    # random shape trees, each at the five stage times of a random
    # step. The stage sampler gives the bits of the reference's values,
    # or raises the error of its first failing sample; so do sample,
    # time by time, and every drive's evaluate. Where the stage sampler
    # gives values, every drive's evaluate on those times and both zeros
    # as one grid gives the bits of numpy's complex arithmetic, NaN,
    # infinities and overflow included; numpy's warnings of them are
    # turned off there. The shape trees come from 40 seeds, so that few
    # samplers are compiled, and the numbers from one stream.
    numbers = random.Random(25)
    counts = {"values": 0, "raised": 0, "nan": 0}
    for member in range(3600):
        ham = _each_level(None, None)[member % 2]
        shapes = random.Random(numbers.randrange(20))
        ham = dataclasses.replace(ham, **{
            key: _random_tree(shapes, numbers, i < ham.dim - 1)
            for i, key in enumerate(ham.KEYS)})
        t = numbers.choice([0.0, -0.0, 0.4, -2.0, 1.25])
        h = numbers.choice([1e-3, 0.3, 1.0])
        times = tuple(t + c * h for c in _NODES)
        got = _outcome(ham._stages, *times)
        want = _outcome(_reference_stages, ham, times)
        counts[got[0]] += 1
        counts["nan"] += got[0] == "values" and any(v != v for v in got[1])
        _assert_same_outcome(got, want)
        _assert_same_outcome(_outcome(_sampled_stages, ham, times,
                                      ham.sample), want)
        _assert_same_outcome(
            _outcome(_evaluated, ham, times, drives._Formula.evaluate),
            _outcome(_evaluated, ham, times, _reference_evaluate))
        if got[0] != "values":
            continue
        grid = np.array([*times, -0.0, 0.0])
        for key in ham.KEYS:
            drive = getattr(ham, key)
            with np.errstate(all="ignore"):
                values = drive.evaluate(grid)
                want = _numpy_evaluate(drive, grid)
            assert values.shape == want.shape == grid.shape
            _assert_same_outcome(("values", _grid_parts(values)),
                                 ("values", _grid_parts(want)))
    # every outcome is common
    assert min(counts.values()) > 300, counts


@pytest.mark.parametrize("form, kinds, split", [
    ("{a} * {b}", (True, True), True),
    ("-{a}", (True,), True),
    ("{a} - {b}", (True, True), True),
    ("cos({a})", (True,), True),
    ("cos(t) * {a}", (True,), True),
    ("{a} / {b}", (True, False), True),
    ("({a} + {b}) * cos(t)", (True, True), True),
    ("(g := {a}) * g", (True,), True),
    ("{a}", (True,), False),
    ("{a} * cos(t) + {b}", (True, False), False),
], ids=repr)
def test_stage_sampler_generation_refuses_other_complex_operations(
        form, kinds, split):
    # the stage sampler writes a complex constant, a constant times a
    # float and a sum; any other complex operation, or a complex value
    # where a float is due, is refused when the code is generated, for
    # one t or for a grid
    for grid in (False, True):
        with pytest.raises(TypeError):
            drives._lowered((form,), kinds, (split,), grid)
        # the same operations on floats are the form's own code, which
        # is refused where a complex value is due
        assert drives._lowered((form,), (False,) * len(kinds), (False,),
                               grid)
        with pytest.raises(TypeError, match="does not give a complex value"):
            drives._lowered((form,), (False,) * len(kinds), (True,), grid)


NUMBER_SHAPES = [
    lambda a: ConstantDrive(a),
    lambda a: CosineDrive(a, 1.3, -0.2),
    lambda a: GaussianDrive(a, 0.5, 0.8),
]
NUMBER_SHAPE_IDS = ["constant", "cosine", "gaussian"]


@pytest.mark.parametrize("shape", NUMBER_SHAPES, ids=NUMBER_SHAPE_IDS)
def test_formula_names_the_init_fields_in_order(shape):
    drive = shape(0.3)
    names = [f.name for f in dataclasses.fields(drive) if f.init]
    assert list(dict.fromkeys(re.findall(r"{(\w+)}", drive.FORMULA))) == names
    values = tuple(getattr(drive, name) for name in names)
    assert drive._formula(False) == (drive.FORMULA, values)


@pytest.mark.parametrize("shape", NUMBER_SHAPES, ids=NUMBER_SHAPE_IDS)
@pytest.mark.parametrize("imag, real", [(0.0, True), (-0.0, False),
                                        (1e-300, False)])
def test_real_formula_only_for_a_plus_zero_imaginary_part(shape, imag, real):
    drive = shape(complex(0.3, imag))
    form, values = drive._formula(False)
    got = drive._formula(True)
    assert got == ((form, (0.3, *values[1:])) if real else None)
    assert not real or type(got[1][0]) is float


def test_hamiltonian3_matrix_structure():
    ham = Hamiltonian3(h1=ConstantDrive(0.2), h2=ConstantDrive(0.3),
                       v1=ConstantDrive(1.0j), v2=ConstantDrive(2.0),
                       v3=ConstantDrive(1.0 - 1.0j))
    m = ham.matrix(0.0)
    assert np.trace(m) == 0.0
    assert m[2, 2] == -0.5
    assert np.array_equal(m, m.conj().T)
    h1, h2, _, _, _ = ham.sample(0.0)
    assert m[2, 2] == -(h1 + h2)


def test_derived_diagonal_keeps_the_sign_of_zero():
    # -(h1 + h2) with h1 = h2 = -0.0 is +0.0; a sum started from 0 would
    # give -0.0 instead
    zero = ConstantDrive(complex(-0.0, 0.0))
    ham = Hamiltonian3(h1=zero, h2=zero, v1=ConstantDrive(0.1),
                       v2=ConstantDrive(0.2j), v3=ConstantDrive(0.3))
    t = 0.5
    want = -(-0.0 + -0.0)
    assert math.copysign(1.0, want) == 1.0
    h1, h2, _, _, _ = ham.sample(t)
    for value in (ham.matrix(t)[2, 2], ham.matrix_grid([t])[0, 2, 2],
                  -(h1 + h2)):
        assert _bits(value) == _bits(want)


# Constant and piecewise drives do the same arithmetic on a scalar t
# and on a grid. The cosine and Gaussian shapes are left out: numpy's
# SIMD cos and exp may differ from math.cos and math.exp in the last bit.
@pytest.mark.parametrize("ham", [
    Hamiltonian2(h=PiecewiseDrive((0.0, 1.0, 3.0), (0.1, -0.3, 0.2)),
                 v=PiecewiseDrive((0.0, 2.0), (0.3j, -0.1 - 0.2j))),
    Hamiltonian3(h1=PiecewiseDrive((0.0, 2.0), (0.1, -0.1)),
                 h2=ConstantDrive(complex(-0.0, -0.0)),
                 v1=ConstantDrive(0.5 - 0.25j),
                 v2=ConstantDrive(complex(0.3, -0.0)),
                 v3=SumDrive((ConstantDrive(0.1 + 0.2j),
                              PiecewiseDrive((0.5, 1.5), (-0.4j, 0.2))))),
], ids=["two_level", "three_level"])
def test_matrix_matches_matrix_grid_bit_for_bit(ham):
    for t in (-1.0, 0.0, 0.37, 1.0, 1.5, 2.0, 2.9, 7.0, np.float64(1.0) / 3):
        m = ham.matrix(t)
        assert m.dtype == complex
        assert m.tobytes() == ham.matrix_grid([t])[0].tobytes()


def _explicit_matrix(ham, t):
    # The matrix layout of the class docstrings, written out entry by
    # entry from the sampled values.
    if ham.dim == 2:
        h, v = ham.sample(t)
        rows = [[h, v.conjugate()],
                [v, -h]]
    else:
        h1, h2, v1, v2, v3 = ham.sample(t)
        rows = [[h1, v1.conjugate(), v2.conjugate()],
                [v1, h2, v3.conjugate()],
                [v2, v3, -(h1 + h2)]]
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("ham", [
    Hamiltonian2(h=CosineDrive(0.7, 1.3, 0.2),
                 v=SumDrive((GaussianDrive(0.4 - 0.9j, 1.0, 0.8),
                             ConstantDrive(complex(-0.0, 0.1))))),
    Hamiltonian2(h=ConstantDrive(-0.0), v=ConstantDrive(complex(0.0, -0.0))),
    Hamiltonian3(h1=CosineDrive(0.3, 1.7), h2=GaussianDrive(-0.2, 0.5, 1.1),
                 v1=CosineDrive(0.6 - 0.2j, 1.1),
                 v2=PiecewiseDrive((0.0, 2.0), (0.4j, -0.3 + 0.1j)),
                 v3=ConstantDrive(complex(-0.0, -0.0))),
], ids=["two_level", "two_level_zeros", "three_level"])
def test_matrix_matches_explicit_layout_bit_for_bit(ham):
    for t in (0.0, 0.37, -1.25, 2.0, 0, 3, -2, np.float64(0.37),
              np.float64(1.0) / 3):
        m = ham.matrix(t)
        assert m.dtype == complex and m.shape == (ham.dim, ham.dim)
        assert m.tobytes() == _explicit_matrix(ham, t).tobytes()


def _knot_formula(drive, t):
    # PiecewiseDrive.evaluate as it was before its knot arrays were
    # built once, at construction
    ts = np.asarray(drive.times, dtype=float)
    vs = np.asarray(drive.values, dtype=complex)
    return np.interp(t, ts, vs.real) + 1j * np.interp(t, ts, vs.imag)


def _numpy_evaluate(drive, t):
    # `evaluate` as each shape stated it before the grid path was
    # compiled from the FORMULA templates: math's functions at a scalar
    # t, numpy's on a grid, and np.interp for the piecewise shape
    scalar = isinstance(t, (float, int))
    if isinstance(drive, SumDrive):
        total = _numpy_evaluate(drive.terms[0], t)
        for term in drive.terms[1:]:
            total = total + _numpy_evaluate(term, t)
        return total
    if isinstance(drive, ConstantDrive):
        return drive.value if scalar else np.full(np.shape(t), drive.value)
    if isinstance(drive, PiecewiseDrive):
        return _knot_formula(drive, t)
    # The float that meets the complex amplitude is promoted with a +0.0
    # imaginary part, as numpy does on a grid; at a scalar t that is
    # written out, as CPython after 3.13 follows C99's mixed-mode rules.
    if scalar:
        cos, exp = _PROMOTED["cos"], _PROMOTED["exp"]
    else:
        cos, exp, t = np.cos, np.exp, np.asarray(t)
    if isinstance(drive, CosineDrive):
        return drive.amplitude * cos(drive.angular_frequency * t
                                     + drive.phase_offset)
    arg = (t - drive.center) / drive.width
    return drive.amplitude * exp(-0.5 * arg * arg)


def _numpy_matrix_grid(ham, times):
    # sample_grid and matrix_grid from _numpy_evaluate: each entry as a
    # complex array of the grid's shape, the diagonal as its real part,
    # laid out as in the class docstrings
    values = [np.broadcast_to(np.asarray(_numpy_evaluate(getattr(ham, key),
                                                         times),
                                         dtype=complex), np.shape(times))
              for key in ham.KEYS]
    n = ham.dim - 1
    values = [v.real if i < n else v for i, v in enumerate(values)]
    if ham.dim == 2:
        h, v = values
        rows = [[h, v.conjugate()], [v, -h]]
    else:
        h1, h2, v1, v2, v3 = values
        rows = [[h1, v1.conjugate(), v2.conjugate()],
                [v1, h2, v3.conjugate()],
                [v2, v3, -(h1 + h2)]]
    matrices = np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))
    return values, matrices


def _random_drive(rng, real, depth=0):
    # A drive tree with signed zeros and imaginary parts of -0.0 and
    # 1e-17; with `real`, every imaginary part is one of those.
    def number():
        return (0.0, -0.0, 1e-17, float(rng.normal()))[rng.integers(4)]

    def value():
        imag = (0.0, -0.0, 1e-17)[rng.integers(3)] if real else number()
        return complex(number(), imag)
    shape = rng.integers(5 if depth < 2 else 4)
    if shape == 0:
        return ConstantDrive(value())
    if shape == 1:
        return CosineDrive(value(), float(rng.normal()), number())
    if shape == 2:
        return GaussianDrive(value(), float(rng.normal()),
                             float(rng.uniform(0.2, 2.0)))
    if shape == 3:
        times = np.cumsum(rng.uniform(0.1, 3.0, rng.integers(2, 5))) - 4.0
        return PiecewiseDrive(tuple(times.tolist()),
                              tuple(value() for _ in times))
    return SumDrive(tuple(_random_drive(rng, real, depth + 1)
                          for _ in range(rng.integers(1, 4))))


def test_formulas_match_numpy_expressions_bit_for_bit():
    # evaluate at scalar times and on 1-D and 2-D grids, and sample_grid
    # and matrix_grid, against the numpy expressions each shape stated
    # before: both paths now run the float code of the FORMULA templates
    # (`_lowered`), the grid path with numpy's functions
    rng = np.random.default_rng(20)
    grid = np.concatenate([np.linspace(-6.0, 6.0, 401), [-0.0, 0.0, -7.5]])
    square = rng.uniform(-6.0, 6.0, (5, 3))
    scalars = [0.0, -0.0, 1, -3, 2.5, np.float64(1.0) / 3,
               *rng.uniform(-6.0, 6.0, 10).tolist()]
    for _ in range(150):
        real = rng.random() < 0.5
        drive = _random_drive(rng, real)
        for t in scalars:
            assert _bits(drive.evaluate(t)) == _bits(_numpy_evaluate(drive, t))
        for times in (grid, square, [0.5, -1.5]):
            got, want = drive.evaluate(times), _numpy_evaluate(drive, times)
            assert got.dtype == complex and got.shape == np.shape(times)
            assert got.tobytes() == want.tobytes()
        if not real:
            continue
        hams = [Hamiltonian2(h=drive, v=_random_drive(rng, False)),
                Hamiltonian3(h1=_random_drive(rng, True), h2=drive,
                             v1=drive, v2=_random_drive(rng, False),
                             v3=_random_drive(rng, False))]
        for ham in hams:
            for times in (grid, square):
                values, matrices = _numpy_matrix_grid(ham, times)
                for got, want in zip(ham.sample_grid(times), values,
                                     strict=True):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                assert ham.matrix_grid(times).tobytes() == matrices.tobytes()


PIECEWISE = PiecewiseDrive((-1.0, 0.0, 0.5, 2.0),
                           (0.3 - 0.1j, complex(-0.0, -0.0), 1.0j,
                            -0.25 + 0.5j))


def test_piecewise_evaluate_matches_knot_formula_bit_for_bit():
    # scalars inside, on and outside the knot range
    for t in (-3.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.7, 2.0, 9.0, 1,
              np.float64(1.0) / 3):
        got, want = PIECEWISE.evaluate(t), _knot_formula(PIECEWISE, t)
        assert type(got) is complex
        assert _bits(got) == _bits(want)
    for ts in (np.linspace(-2.0, 3.0, 41), [0.3, 1.1],
               np.array([[0.1, 2.5], [-4.0, 0.5]])):
        got, want = PIECEWISE.evaluate(ts), _knot_formula(PIECEWISE, ts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_piecewise_copies_compare_equal_and_evaluate_identically():
    ts = np.linspace(-2.0, 3.0, 41)
    copies = [pickle.loads(pickle.dumps(PIECEWISE)), copy.deepcopy(PIECEWISE),
              copy.copy(PIECEWISE), dataclasses.replace(PIECEWISE)]
    for other in copies:
        assert other == PIECEWISE
        assert hash(other) == hash(PIECEWISE)
        assert other.evaluate(ts).tobytes() == PIECEWISE.evaluate(ts).tobytes()
    assert PIECEWISE != PiecewiseDrive(PIECEWISE.times,
                                       PIECEWISE.values[:-1] + (0.0,))


# Piecewise drives for the scalar sampler: signed zeros among the
# values, a real drive, values of 1e300 across a 1e-300 segment, and
# infinite values, which take np.interp's retry from the right knot.
# An imaginary part of -0.0 or 1e-17 passes the realness check but
# leaves the drive without a float function.
PIECEWISE_SCALARS = [
    PIECEWISE,
    PiecewiseDrive((0.0, 1.0, 3.0), (-0.0, 0.0, -0.3)),
    PiecewiseDrive((-2.0, 0.0, 1e-300, 1.0),
                   (1e300, -1e300, 2.0 + 1j, complex(-0.0, 0.0))),
    PiecewiseDrive((0.0, 1.0, 3.0, 4.0), (math.inf, math.inf, 1.0, -math.inf)),
    PiecewiseDrive((0.0, 2.0), (complex(0.1, -0.0), 0.3)),
    PiecewiseDrive((0.0, 2.0), (complex(0.1, 1e-17), 0.3)),
]
PIECEWISE_SCALARS += [
    SumDrive((GaussianDrive(0.2, 1.0, 0.5), PIECEWISE_SCALARS[1])),
    SumDrive((PIECEWISE, ConstantDrive(complex(-0.0, -0.0)),
              PIECEWISE_SCALARS[2])),
]


def _piecewise_times(drive):
    """Knot times, midpoints, random points between knots, points
    outside, signed zeros, infinities and NaN."""
    knots = sorted({t for term in getattr(drive, "terms", (drive,))
                    if isinstance(term, PiecewiseDrive) for t in term.times})
    rng = np.random.default_rng(17)
    times = list(knots) + [-0.0, 0.0, -1e9, 1e9, -math.inf, math.inf,
                           math.nan, knots[0] - 1.0, knots[-1] + 1.0]
    for a, b in zip(knots, knots[1:]):
        times += [(a + b) / 2, *rng.uniform(a, b, 200).tolist()]
    return times


@pytest.mark.parametrize("drive", PIECEWISE_SCALARS, ids=repr)
def test_piecewise_scalar_matches_numpy_formula_bit_for_bit(drive):
    # The scalar interpolation against np.interp, in evaluate and, for a
    # drive that is real by construction, in the float formula that
    # samples it as a diagonal entry.
    exactly_real = all(
        v.imag == 0.0 and math.copysign(1.0, v.imag) > 0.0
        for term in getattr(drive, "terms", (drive,))
        for v in getattr(term, "values", (term.evaluate(0.0),)))
    assert (drive._formula(True) is not None) == exactly_real
    sample = Hamiltonian2(h=drive, v=ConstantDrive(0.0)).sample
    times = _piecewise_times(drive)
    for t in times:
        want = complex(_numpy_evaluate(drive, t))
        got = drive.evaluate(t)
        assert type(got) is complex
        assert _bits(got) == _bits(want), t
        if exactly_real:
            got, _ = sample(t)
            assert type(got) is float
            assert got.hex() == want.real.hex(), t
    assert (drive.evaluate(np.array(times)).tobytes()
            == _numpy_evaluate(drive, np.array(times)).tobytes())


def test_sample_grid_matches_pointwise_samples():
    ham = Hamiltonian3(h1=CosineDrive(0.2, 1.0), h2=ConstantDrive(-0.1),
                       v1=GaussianDrive(0.5j, 2.0, 0.7),
                       v2=ConstantDrive(0.0),
                       v3=PiecewiseDrive((0.0, 4.0), (0.0, 1.0)))
    times = np.linspace(0.0, 4.0, 17)
    h1, h2, v1, v2, v3 = ham.sample_grid(times)
    for i, t in enumerate(times):
        s_h1, _, s_v1, _, s_v3 = ham.sample(float(t))
        assert abs(h1[i] - s_h1) < 1e-15
        assert abs(v1[i] - s_v1) < 1e-15
        assert abs(v3[i] - s_v3) < 1e-15
    mats = ham.matrix_grid(times)
    assert mats.shape == (17, 3, 3)
    assert np.allclose(mats[5], ham.matrix(float(times[5])), rtol=0, atol=0)


def test_parse_config_full_document():
    cfg = parse_config(CONFIG3)
    assert cfg.system == 3
    assert cfg.t_start == 0.0 and cfg.t_end == 6.0
    assert cfg.rel_tol == 1e-9 and cfg.abs_tol == 1e-12
    assert cfg.max_step == 0.05
    assert isinstance(cfg.hamiltonian, Hamiltonian3)
    assert cfg.hamiltonian.v2.value == 0.25j


def test_parse_config_accepts_file_objects_and_dicts():
    from_text = parse_config(CONFIG3)
    from_file = parse_config(io.StringIO(CONFIG3))
    from_dict = parse_config(config_to_dict(from_text))
    assert from_file == from_text
    assert from_dict == from_text
    # a numpy integer is an integer
    assert parse_config({**config_to_dict(from_text),
                         "system": np.int64(3)}) == from_text


def test_parse_config_defaults():
    cfg = parse_config("""
system: 2
time: {start: 0.0, end: 10.0}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: {shape: constant, value: 1.0}
""")
    assert cfg.rel_tol == 1e-9
    assert cfg.abs_tol == 1e-12
    assert cfg.max_step == 0.1  # (end - start) / 100


@pytest.mark.parametrize("mutation, fragment", [
    ("system: 4", "system"),
    # a level count is an integer, not a float that equals one
    ("system: 3.0", "system"),
    ("system: 2.0", "system"),
    ("time: {start: 1.0, end: 1.0}", "time"),
    ("extra_key: 1", "unexpected"),
    ("time: {start: .inf, end: 2.0}", "time.start"),
    ("time: {start: 0.0, end: .inf}", "time.end"),
    ("integrator: {rel_tol: .nan}", "integrator.rel_tol"),
    ("integrator: {abs_tol: .nan}", "integrator.abs_tol"),
    ("integrator: {rel_tol: 0}", "integrator.rel_tol"),
    ("integrator: {abs_tol: 0}", "integrator.abs_tol"),
    ("integrator: {max_step: .inf}", "integrator.max_step"),
    # a window too wide for a double, and steps that underflow to 0
    ("time: {start: -1.0e308, end: 1.0e308}", "time"),
    ("time: {start: 0.0, end: 1.0e-320}", "time"),
    ("integrator: {max_step: 1.0e-322}", "integrator.max_step"),
    # steps too small to move t on the window: t + h == t at its far end
    ("time: {start: 1.0e6, end: 1000000.0000000002}", "time"),
    ("integrator: {max_step: 1.0e-17}", "integrator.max_step"),
    # steps too small to cross the window within the step budget
    ("integrator: {max_step: 1.0e-7}", "integrator.max_step"),
])
def test_parse_config_rejects_bad_documents(mutation, fragment):
    base = """
system: 2
time: {start: 0.0, end: 2.0}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: {shape: constant, value: 1.0}
"""
    if mutation.startswith("system"):
        text = base.replace("system: 2", mutation)
    elif mutation.startswith("time"):
        text = base.replace("time: {start: 0.0, end: 2.0}", mutation)
    else:
        text = base + mutation + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("start, end", [(0.0, 2.0), (1.0e6, 1.0e6 + 2.0),
                                        (-3.0, -1.0)])
def test_parse_config_rejects_a_window_beyond_the_step_budget(start, end):
    # A step moves t by at most max_step plus the rounding of t + h. So
    # max_steps steps of window / max_steps may cross the window and are
    # accepted; steps 0.1 % shorter, less that rounding, cannot.
    budget = IntegratorSettings.max_steps
    window = end - start
    rounding = math.ulp(max(abs(start), abs(end)))
    base = f"""
system: 2
time: {{start: {start!r}, end: {end!r}}}
hamiltonian:
  h: {{shape: constant, value: 0.3}}
  v: {{shape: cosine, amplitude: 0.8, angular_frequency: 2.0}}
"""
    inside = window / budget
    assert parse_config(
        base + f"integrator: {{max_step: {inside!r}}}\n").max_step == inside
    outside = 0.999 * window / budget - rounding
    with pytest.raises(ConfigError) as err:
        parse_config(base + f"integrator: {{max_step: {outside!r}}}\n")
    assert str(err.value).startswith(
        f"integrator.max_step: {budget} steps of max_step = {outside!r} "
        f"cannot cross [{start!r}, {end!r}]")


@pytest.mark.parametrize("system, key", [(2, "h"), (3, "h1"), (3, "h2")])
def test_parse_config_rejects_a_diagonal_drive_that_is_not_real(system,
                                                                 key):
    # real at t = 0, where cos(pi / 2) is 6e-17, and complex from there
    values = ({"h": 0.1, "v": 0.2} if system == 2 else
              {"h1": 0.1, "h2": 0.2, "v1": 0.3, "v2": 0.4, "v3": 0.5})
    drives = {k: {"shape": "constant", "value": v} for k, v in values.items()}
    doc = {"system": system, "time": {"start": 0.0, "end": 6.0},
           "hamiltonian": drives}
    parse_config(doc)
    drives[key] = {"shape": "cosine", "amplitude": [0.2, 0.1],
                   "angular_frequency": 1.0, "phase_offset": math.pi / 2}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).startswith(f"hamiltonian.{key}: diagonal drive "
                                     f"{key} must evaluate real")
    # complex only between the 11 evenly spaced check points, alone and
    # as a term of a sum: the knot times inside the window are checked
    knots = [[0.0, 0.0], [0.25, 0.0], [0.3, [0.0, 0.5]], [0.35, 0.0],
             [2.0, 0.0]]
    piecewise = {"shape": "piecewise", "knots": knots}
    for drive in (piecewise, {"shape": "sum", "terms": [
            {"shape": "constant", "value": 0.1}, piecewise]}):
        drives[key] = drive
        for end in (2.0, 6.0):
            doc["time"]["end"] = end
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert str(err.value).startswith(
                f"hamiltonian.{key}: diagonal drive {key} must evaluate real")
    knots[2][1] = 0.5
    parse_config(doc)


def test_realness_check_evaluates_only_drives_that_can_fail(monkeypatch):
    # A diagonal drive that is real by construction is not checked on
    # the check grid unless h3 is stated; every other one still is, and
    # is still rejected where it turns complex.
    checked = []
    require_real = drives._require_real_grid

    def recording(value, times, what):
        checked.append(what)
        return require_real(value, times, what)
    monkeypatch.setattr(drives, "_require_real_grid", recording)

    h1 = {"shape": "cosine", "amplitude": 0.2, "angular_frequency": 1.3}
    h2 = {"shape": "piecewise", "knots": [[0.0, 0.1], [3.0, -0.2],
                                          [6.0, 0.0]]}
    doc = {"system": 3, "time": {"start": 0.0, "end": 6.0},
           "hamiltonian": {"h1": h1, "h2": h2,
                           **{key: {"shape": "constant", "value": 0.1}
                              for key in ("v1", "v2", "v3")}}}
    parse_config(doc)
    assert checked == []

    # a complex amplitude, and a complex knot between the 11 points
    bad = [{**h1, "amplitude": [0.2, 0.1]},
           {"shape": "piecewise", "knots": [[0.0, 0.1], [0.7, [0.1, 0.3]],
                                            [6.0, 0.0]]}]
    for drive in bad:
        doc["hamiltonian"]["h1"] = drive
        with pytest.raises(ConfigError, match="^hamiltonian.h1: diagonal "
                                              "drive h1 must evaluate real"):
            parse_config(doc)
    assert checked == ["diagonal drive h1"] * 2

    # a stated h3 is checked against h1 and h2 real by construction
    checked.clear()
    doc["hamiltonian"]["h1"] = h1
    minus = {"shape": "sum", "terms": [
        {**h1, "amplitude": -0.2},
        {**h2, "knots": [[t, -v] for t, v in h2["knots"]]}]}
    doc["hamiltonian"]["h3"] = minus
    parse_config(doc)
    assert checked == ["diagonal drive h1", "diagonal drive h2"]
    minus["terms"][1]["knots"][1][1] = 0.1999
    with pytest.raises(ConfigError, match=r"^hamiltonian.h3: must equal "
                                          r"-\(h1 \+ h2\); differs at t="):
        parse_config(doc)


def test_parsing_real_diagonal_drives_compiles_no_code(monkeypatch):
    # Every drive function is generated at first use: parsing a config
    # whose diagonal drives are real by construction compiles none.
    doc = config_to_dict(parse_config(CONFIG3))
    calls = []    # (forms, grid) of each call of the one generator
    lowered = drives._lowered

    def recording(forms, kinds, splits, grid):
        calls.append((forms, grid))
        return lowered(forms, kinds, splits, grid)
    monkeypatch.setattr(drives, "_lowered", recording)
    ham = parse_config(doc).hamiltonian
    assert calls == []
    ham.sample(0.5)
    ham._stages(*STAGE_TIMES[0])
    ham.sample_grid([0.5, 1.0])
    ham.sample_grid([0.0])
    ham.v1.evaluate(0.5)
    # the Hamiltonian's scalar code, shared by its sample and stage
    # sampler, the grid function of each of its five drives at the first
    # sample_grid alone, then v1's scalar function
    forms = [drives._joined([getattr(ham, key)._formula(False)])[0]
             for key in ham.KEYS]
    assert calls == ([(drives._joined(ham._parts())[0], False)]
                     + [(form, True) for form in forms]
                     + [(forms[2], False)])


def test_parse_config_requires_matching_hamiltonian_keys():
    with pytest.raises(ConfigError):
        parse_config("""
system: 3
time: {start: 0.0, end: 1.0}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: {shape: constant, value: 1.0}
""")


def test_explicit_h3_checked_against_tracelessness():
    good = """
system: 3
time: {start: 0.0, end: 1.0}
hamiltonian:
  h1: {shape: constant, value: 0.25}
  h2: {shape: constant, value: 0.5}
  h3: {shape: constant, value: -0.75}
  v1: {shape: constant, value: 0.0}
  v2: {shape: constant, value: 0.0}
  v3: {shape: constant, value: 0.0}
"""
    parse_config(good)
    with pytest.raises(ConfigError):
        parse_config(good.replace("value: -0.75", "value: -0.7"))
    # off only between the 11 evenly spaced check points
    with pytest.raises(ConfigError, match="^hamiltonian.h3: must equal"):
        parse_config(good.replace(
            "h3: {shape: constant, value: -0.75}",
            "h3: {shape: piecewise, knots: [[0.0, -0.75], [0.52, -0.75], "
            "[0.55, -0.5], [0.58, -0.75], [1.0, -0.75]]}"))


@pytest.mark.parametrize("edit, path", [
    # the h3 consistency check used to evaluate the overflowing cosine
    (("h2: {shape: constant, value: 0.5}",
      "h2: {shape: cosine, amplitude: 0.5, angular_frequency: 1.0e308}"),
     "hamiltonian.h2"),
    (("h3: {shape: constant, value: -0.75}",
      "h3: {shape: cosine, amplitude: -0.75, angular_frequency: 1.0e308}"),
     "hamiltonian.h3"),
    (("v3: {shape: constant, value: 0.0}",
      "v3: {shape: sum, terms: [{shape: constant, value: 0.0}, {shape: "
      "cosine, amplitude: 0.1, angular_frequency: 1.0e307, "
      "phase_offset: 1.7e308}]}"),
     "hamiltonian.v3.terms[1]"),
    (("start: 0.0", "start: -6.0e307"), "hamiltonian.v1"),
], ids=["h2_frequency", "h3_frequency", "sum_term_offset", "window_start"])
def test_cosine_phase_overflow_in_the_window_is_rejected(edit, path):
    # angular_frequency * t + phase_offset must be finite at both window
    # ends; past an overflow math.cos has no value. 1.0e308 * 6,
    # 1.0e307 * 6 + 1.7e308 and 3 * -6.0e307 all overflow.
    text = """
system: 3
time: {start: 0.0, end: 6.0}
hamiltonian:
  h1: {shape: constant, value: 0.25}
  h2: {shape: constant, value: 0.5}
  h3: {shape: constant, value: -0.75}
  v1: {shape: cosine, amplitude: 0.2, angular_frequency: 3.0}
  v2: {shape: constant, value: 0.0}
  v3: {shape: constant, value: 0.0}
"""
    parse_config(text)
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace(*edit))
    assert str(err.value).startswith(f"{path}: angular_frequency * t")


# Signed zeros in the imaginary parts: an h cosine of amplitude -0.0 -
# 0.0i samples +0.0 where its float formula would give -0.0, and a v
# constant keeps the sign of its zero imaginary part.
SIGNED_ZEROS = RunConfig(
    hamiltonian=Hamiltonian2(h=CosineDrive(complex(-0.0, -0.0), 1.0),
                             v=ConstantDrive(complex(0.3, -0.0))),
    t_start=0.0, t_end=2.0, max_step=0.05)


@pytest.mark.parametrize("cfg", [parse_config(CONFIG3), SIGNED_ZEROS],
                         ids=["config3", "signed_zeros"])
def test_config_round_trip_is_exact(cfg):
    # Serialized and reparsed configs must drive the Hamiltonian to the
    # same values to the last bit at every probe time.
    again = parse_config(serialize_config(cfg))
    assert again.system == cfg.system
    assert again.rel_tol == cfg.rel_tol
    assert again.abs_tol == cfg.abs_tol
    assert again.max_step == cfg.max_step
    rng = np.random.default_rng(11)
    for t in [0.0, *rng.uniform(cfg.t_start, cfg.t_end, 100)]:
        a = cfg.hamiltonian.sample(float(t))
        b = again.hamiltonian.sample(float(t))
        assert [_bits(v) for v in a] == [_bits(v) for v in b]


@pytest.mark.parametrize("ham", [
    Hamiltonian2(h=ConstantDrive(0.3), v=CosineDrive(0.5 + 0.1j, 1.2)),
    Hamiltonian3(h1=ConstantDrive(0.1), h2=CosineDrive(0.2, 0.7),
                 v1=GaussianDrive(0.4, 1.0, 0.5), v2=ConstantDrive(0.25j),
                 v3=ConstantDrive(0.0)),
], ids=["two_level", "three_level"])
def test_config_built_in_code_derives_system(ham):
    # the level count comes from the Hamiltonian and cannot be set apart
    cfg = RunConfig(hamiltonian=ham, t_start=0.0, t_end=2.0, max_step=0.05)
    assert cfg.system == ham.dim
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert again.system == ham.dim
    with pytest.raises(TypeError):
        RunConfig(system=5 - ham.dim, hamiltonian=ham, t_start=0.0, t_end=2.0)


TWO_LEVEL = """
system: 2
time: {start: 0.0, end: 2.0}
hamiltonian:
  h: {shape: constant, value: 0.0}
  v: %s
"""


# (drive spec with %s for one number, that number's field path, whether
# it is complex)
NUMBER_FIELDS = [
    ("{shape: constant, value: %s}", "value", True),
    ("{shape: cosine, amplitude: 1.0, angular_frequency: %s}",
     "angular_frequency", False),
    ("{shape: gaussian, amplitude: 1.0, center: 1.0, width: %s}", "width",
     False),
    ("{shape: piecewise, knots: [[0.0, 1.0], [1.0, %s]]}", "knots[1][1]",
     True),
    ("{shape: piecewise, knots: [[0.0, 1.0], [%s, 1.0]]}", "knots[1][0]",
     False),
    ("{shape: sum, terms: [{shape: constant, value: %s}]}", "terms[0].value",
     True),
]
# (non-finite value, suffix of the path it is reported at)
NON_FINITE = [(".inf", ""), (".nan", "")]
NON_FINITE_PARTS = [("[0.5, .inf]", "[1]"), ("[.nan, 0.5]", "[0]")]


@pytest.mark.parametrize("drive, field, bad, suffix", [
    (drive, field, bad, suffix)
    for drive, field, is_complex in NUMBER_FIELDS
    for bad, suffix in NON_FINITE + (NON_FINITE_PARTS if is_complex else [])
])
def test_non_finite_drive_numbers_are_rejected(drive, field, bad, suffix):
    with pytest.raises(ConfigError,
                       match=re.escape(f"hamiltonian.v.{field}{suffix}: ")):
        parse_config(TWO_LEVEL % (drive % bad))


@pytest.mark.parametrize("shape", ["[constant]", "{a: 1}", "null"])
def test_shape_must_name_a_known_shape(shape):
    with pytest.raises(ConfigError, match=r"^hamiltonian\.v: .*shape"):
        parse_config(TWO_LEVEL % f"{{shape: {shape}, value: 1.0}}")


# Spec forms pinned with their key order: the JSON header of `chartprop
# run` echoes them, so reordering keys changes its bytes.
SPECS = [
    (ConstantDrive(0.5 - 2.0j),
     {"shape": "constant", "value": [0.5, -2.0]}),
    (CosineDrive(1.0 + 1.0j, 2.5, -0.3),
     {"shape": "cosine", "amplitude": [1.0, 1.0], "angular_frequency": 2.5,
      "phase_offset": -0.3}),
    (GaussianDrive(0.7, 1.0, 0.4),
     {"shape": "gaussian", "amplitude": 0.7, "center": 1.0, "width": 0.4}),
    (PiecewiseDrive((0.0, 1.0), (1.0j, 2.0)),
     {"shape": "piecewise", "knots": [[0.0, [0.0, 1.0]], [1.0, 2.0]]}),
    (SumDrive((ConstantDrive(1.0), CosineDrive(0.5, 2.0))),
     {"shape": "sum", "terms": [
         {"shape": "constant", "value": 1.0},
         {"shape": "cosine", "amplitude": 0.5, "angular_frequency": 2.0,
          "phase_offset": 0.0}]}),
]


@pytest.mark.parametrize("drive, spec", SPECS,
                         ids=[spec["shape"] for _, spec in SPECS])
def test_to_spec_is_pinned_with_key_order(drive, spec):
    assert json.dumps(drive.to_spec()) == json.dumps(spec)
    assert drive_from_spec(spec) == drive


def test_phase_offset_may_be_left_out():
    spec = {"shape": "cosine", "amplitude": 0.5, "angular_frequency": 2.0}
    drive = drive_from_spec(spec)
    assert drive == CosineDrive(0.5, 2.0)
    assert drive.to_spec() == {**spec, "phase_offset": 0.0}


ROUNDING_NOISE = """
system: 3
time: {start: START, end: END}
hamiltonian:
  h1: {shape: constant, value: 0.25}
  h2: {shape: constant, value: 0.5}
  v1: {shape: constant, value: 0.0}
  v2: {shape: constant, value: 0.0}
  v3: DRIVE
"""


@pytest.mark.parametrize("start, end", [
    (0.0, 6.0), (-6.0, 0.5), (1.0e6, 1.0e6 + 6.0), (-1.0e6 - 6.0, -1.0e6)])
@pytest.mark.parametrize("form, path", [
    ("{shape: cosine, amplitude: 0.1, angular_frequency: W}",
     "hamiltonian.v3"),
    ("{shape: sum, terms: [{shape: constant, value: 0.1}, {shape: cosine, "
     "amplitude: 0.1, angular_frequency: W, phase_offset: 0.3}]}",
     "hamiltonian.v3.terms[1]"),
], ids=["cosine", "sum_term"])
def test_cosine_phase_of_rounding_noise_is_rejected(start, end, form, path):
    # |angular_frequency| * spacing(t) at the window end farthest from 0
    # bounds how far rounding t moves the phase. Up to 1e-6 the drive is
    # accepted, past it rejected, for either sign of the frequency.
    spacing = math.ulp(max(abs(start), abs(end)))
    text = (ROUNDING_NOISE.replace("START", repr(start))
            .replace("END", repr(end)))
    for sign in (1.0, -1.0):
        for factor, accepted in ((0.99, True), (1.01, False)):
            w = sign * factor * 1e-6 / spacing
            doc = text.replace("DRIVE", form.replace("W", repr(w)))
            if accepted:
                parse_config(doc)
                continue
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert str(err.value).startswith(
                f"{path}: angular_frequency * t + phase_offset is rounding "
                f"noise: |angular_frequency| * spacing(")
