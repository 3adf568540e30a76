"""The map text format: parsing, serialisation, and error reporting."""

import pytest

from polymap.errors import MapFormatError, StructureError
from polymap.mapfile import parse_map, serialize_map
from polymap.surface_map import RotationSystem, topology


def test_round_trip_on_corpus(corpus):
    for name, rs in corpus.items():
        text = serialize_map(rs)
        back = parse_map(text)
        assert back == rs, name
        assert serialize_map(back) == text, name


def test_round_trip_preserves_topology(corpus):
    rs = corpus["hex_klein(3,3)"]
    back = parse_map(serialize_map(rs))
    t0, t1 = topology(rs), topology(back)
    assert t0.euler_characteristic == t1.euler_characteristic
    assert t0.orientable == t1.orientable
    assert sorted(t0.face_degrees) == sorted(t1.face_degrees)


def test_basic_parse():
    rs = parse_map("""
# a map on the projective plane: one vertex, one twisted loop
v a: e+ e-
""")
    assert rs.vertices == ("a",)
    assert rs.signature["e"] == -1
    assert topology(rs).euler_characteristic == 1


def test_unicode_minus_and_comments():
    text = (
        "surface: anything at all\n"
        "v a: e\u2212 f+  # trailing comment\n"
        "\n"
        "v b: e+ f+\n"
    )
    rs = parse_map(text)
    assert rs.signature == {"e": -1, "f": 1}
    # one leading byte-order mark, as some editors write, is dropped
    assert parse_map("\ufeff" + text) == rs
    # the serialised form normalises to ASCII signs and drops comments
    text2 = serialize_map(rs)
    assert "\u2212" not in text2 and "#" not in text2
    assert parse_map(text2) == rs


def test_sign_convention():
    same = parse_map("v a: e- f+\nv b: e- f+\n")
    assert same.signature == {"e": 1, "f": 1}  # same signs agree: +1
    mixed = parse_map("v a: e+ f-\nv b: e- f+\n")
    assert mixed.signature == {"e": -1, "f": -1}


@pytest.mark.parametrize("text,lineno,fragment", [
    ("v a: e+ e\n", 1, "bad edge token"),
    ("v a: e+ +\n", 1, "bad edge token"),
    ("v a: e+ e+\nv b: e+\n", 2, "more than twice"),
    ("v a: e+ f+\nv a: e+ f+\n", 2, "listed twice"),
    ("v a:\n", 1, "empty rotation"),
    ("v a e+\n", 1, "missing vertex id"),
    ("v a: e+ f+\nv b c: e+ f+\n", 2, "has whitespace"),
    ("hello\n", 1, "expected a 'v"),
    ("v a: e+ f+ f-\n", 1, "appears once"),
    # several faults: the first faulty line is reported, and of the
    # edges seen once the smallest, at its first line
    ("v a: f+ g+\nv b: e+ g+\n", 2, "edge 'e' appears once"),
    ("v a: e+ e+ x+\nv b: e+\n", 2, "more than twice"),
    ("v a: e+ e+\nv b: e+\nv c: bad\n", 2, "more than twice"),
])
def test_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(MapFormatError) as info:
        parse_map(text)
    assert info.value.line == lineno
    assert fragment in str(info.value)


def test_empty_input():
    with pytest.raises(MapFormatError) as info:
        parse_map("# nothing here\n")
    assert "no vertex lines" in str(info.value)


def test_structural_errors_become_format_errors():
    # two separate components: structurally invalid, reported as a
    # format error so callers only need one except clause per source
    with pytest.raises(MapFormatError) as info:
        parse_map("v a: e+ e+\nv b: f+ f+\n")
    assert "connected" in str(info.value)


@pytest.mark.parametrize("rotation", [
    {"a#1": ["e", "e"]},  # '#' would start a comment
    {"a:1": ["e", "e"]},  # ':' would end the vertex id early
    {"a": ["e 1", "e 1"]},  # whitespace would split the edge token
    {"": ["e", "e"]},  # an empty vertex id does not parse
    {"a": [1, 1]},  # an int edge id cannot take a sign
    {1: ["e", "e"]},  # an int vertex id would parse back as '1'
])
def test_serialize_rejects_ids_it_cannot_round_trip(rotation):
    with pytest.raises(StructureError) as info:
        serialize_map(RotationSystem(rotation))
    assert "cannot be written" in str(info.value)
