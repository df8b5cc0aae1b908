"""Property test: config reading either succeeds or raises ConfigError.

Inputs are YAML-shaped values (None, booleans, integers far beyond the
float range, any floats, strings, and nested lists and mappings over the
real key names), both on their own and spliced into a valid document,
so that every layer of the reader sees malformed input.
"""

import copy

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chartprop import ConfigError, drive_from_spec, parse_config

VALID = yaml.safe_load("""
system: 3
time: {start: 0.0, end: 6.0}
integrator: {rel_tol: 1.0e-9, abs_tol: 1.0e-12, max_step: 0.05}
hamiltonian:
  h1: {shape: constant, value: 0.4}
  h2: {shape: cosine, amplitude: 0.2, angular_frequency: 1.3, phase_offset: 0.1}
  h3: {shape: sum, terms: [{shape: constant, value: -0.4},
                           {shape: cosine, amplitude: -0.2,
                            angular_frequency: 1.3, phase_offset: 0.1}]}
  v1: {shape: gaussian, amplitude: [0.3, 0.1], center: 3.0, width: 0.8}
  v2: {shape: constant, value: [0.0, 0.25]}
  v3: {shape: piecewise, knots: [[0.0, 0.0], [3.0, [0.2, -0.1]], [6.0, 0.0]]}
""")

KEYS = ["system", "time", "integrator", "hamiltonian", "start", "end",
        "rel_tol", "abs_tol", "max_step", "h", "v", "h1", "h2", "h3", "v1",
        "v2", "v3", "shape", "value", "amplitude", "angular_frequency",
        "phase_offset", "center", "width", "knots", "terms"]
WORDS = ["constant", "cosine", "gaussian", "piecewise", "sum", "1e-9",
         "-1e999", "nan", "inf", "0x10", "2"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(), st.text(max_size=6), st.sampled_from(WORDS + KEYS))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(KEYS), inner,
                                            max_size=4)),
    max_leaves=12)


def _paths(node, path=()):
    """Every path to a node of a nested document, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def spliced(draw, document):
    """document with one node replaced by an arbitrary value."""
    path = draw(st.sampled_from(list(_paths(document))))
    value = draw(values)
    if not path:
        return value
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


SETTINGS = settings(database=None, derandomize=True, deadline=None,
                    max_examples=100)


def _reads_or_rejects(read, doc):
    try:
        read(doc)
    except ConfigError:
        pass


def _source(value):
    # parse_config takes a mapping or YAML text
    return value if isinstance(value, (dict, str)) else yaml.safe_dump(value)


@SETTINGS
@given(st.one_of(values, spliced(VALID)).map(_source))
def test_parse_config_reads_or_raises_config_error(doc):
    _reads_or_rejects(parse_config, doc)


@SETTINGS
@given(st.one_of(values,
                 *(spliced(spec) for spec in VALID["hamiltonian"].values())))
def test_drive_from_spec_reads_or_raises_config_error(spec):
    _reads_or_rejects(drive_from_spec, spec)
