"""Fuzzing of the structure-file parser and round trips of both formats."""

import json

from hypothesis import example, given, settings, strategies as st

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, RMap, parse_structure,
                   serialize, serialize_json)
from ybmag.formats import KINDS, ParseError

from conftest import bimagmas, cayley_tables, rmaps


@st.composite
def plain_texts(draw):
    """Text shaped like the plain format: a header with a known or unknown
    kind and a small or odd carrier size, then lines of small tokens."""
    kind = draw(st.sampled_from(KINDS + ("widget", "")))
    size = draw(st.sampled_from(["0", "1", "2", "3", "-1", "x", "1_0", "99999999999"]))
    token = st.sampled_from(["0", "1", "2", "3", "-1", "->", "x", "", "  ", "\r"])
    lines = draw(st.lists(st.lists(token, max_size=6).map(" ".join), max_size=12))
    return "\n".join([f"{kind} {size}"] + lines)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)


@st.composite
def json_texts(draw):
    """JSON objects whose keys are the ones the JSON format reads, each
    holding an arbitrary value, or a value of roughly the right shape."""
    keys = ("kind", "n", "dot", "star", "out", "images")
    data = {}
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        if key == "kind":
            data[key] = draw(st.sampled_from(KINDS) | _json_values)
        elif key == "n":
            data[key] = draw(st.integers(-1, 3) | _json_values)
        else:
            data[key] = draw(st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3)
                             | _json_values)
    return json.dumps(data)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60) | plain_texts() | json_texts())
def test_parser_accepts_or_raises_parse_error_only(text):
    try:
        parse_structure(text)
    except ParseError:
        pass


@st.composite
def families(draw, max_n: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    members = draw(st.lists(images, min_size=1, max_size=3))
    return FunctionFamily(n, tuple(FiniteFunction(n, tuple(m)) for m in members))


_EMPTY = CayleyTable(0, ())


# the structures on 0 points, whose table rows are blank lines; a family on 0
# points is left out, since its member count cannot be read back from plain text
@example(_EMPTY)
@example(BiMagma(_EMPTY, _EMPTY))
@example(RMap(0, ()))
@example(FiniteFunction(0, ()))
@settings(max_examples=200, deadline=None)
@given(cayley_tables(max_n=4) | bimagmas(max_n=4) | rmaps(max_n=4) | families())
def test_serialize_parse_round_trip(value):
    assert parse_structure(serialize(value)) == value
    assert serialize(parse_structure(serialize(value))) == serialize(value)
    assert parse_structure(serialize_json(value)) == value
