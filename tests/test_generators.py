"""The built-in map families: counts, types, determinism."""

import hashlib
import itertools

import pytest

from polymap.generators import (hex_klein, hex_torus, k7_torus, tetrahedron,
                                tri_torus, truncate)
from polymap.mapfile import parse_map, serialize_map
from polymap.surface_map import RotationSystem, topology
from polymap.validity import check_polyhedral


@pytest.mark.parametrize("build,counts,orientable", [
    (tetrahedron, (4, 6, 4, 2), True),
    (lambda: hex_torus(3, 3), (18, 27, 9, 0), True),
    (lambda: hex_torus(4, 3), (24, 36, 12, 0), True),
    (lambda: hex_torus(5, 5), (50, 75, 25, 0), True),
    (lambda: tri_torus(3, 3), (9, 27, 18, 0), True),
    (k7_torus, (7, 21, 14, 0), True),
    (lambda: hex_klein(3, 3), (18, 27, 9, 0), False),
    (lambda: truncate(hex_torus(3, 3)), (54, 81, 27, 0), True),
    (lambda: truncate(tetrahedron()), (12, 18, 8, 2), True),
])
def test_counts_and_orientability(build, counts, orientable):
    top = topology(build())
    got = (top.num_vertices, top.num_edges, top.num_faces,
           top.euler_characteristic)
    assert got == counts
    assert top.orientable == orientable


def test_vertex_types():
    cases = {
        (6, 6, 6): hex_torus(3, 3),
        (3, 3, 3, 3, 3, 3): tri_torus(3, 3),
        (3, 12, 12): truncate(hex_torus(3, 3)),
        (3, 3, 3): tetrahedron(),
        (3, 6, 6): truncate(tetrahedron()),
    }
    for want, rs in cases.items():
        top = topology(rs)
        assert {top.vertex_type(v) for v in rs.vertices} == {want}
    k7 = topology(k7_torus())
    assert {k7.vertex_type(v) for v in k7.rs.vertices} == {(3,) * 6}
    klein = topology(hex_klein(3, 3))
    assert {klein.vertex_type(v) for v in klein.rs.vertices} == {(6, 6, 6)}


def test_face_census():
    assert sorted(topology(hex_torus(3, 3)).face_degrees) == [6] * 9
    assert sorted(topology(tri_torus(3, 3)).face_degrees) == [3] * 18
    assert sorted(topology(k7_torus()).face_degrees) == [3] * 14
    trunc = sorted(topology(truncate(hex_torus(3, 3))).face_degrees)
    assert trunc == [3] * 18 + [12] * 9


def test_parameter_validation():
    for bad in ((2, 3), (3, 2), (0, 5), (3, -1)):
        with pytest.raises(ValueError):
            hex_torus(*bad)
        with pytest.raises(ValueError):
            tri_torus(*bad)
        with pytest.raises(ValueError):
            hex_klein(*bad)
    with pytest.raises(ValueError):
        hex_torus(3.5, 3)


def test_truncation_is_3_regular_and_preserves_surface(corpus):
    for name, rs in corpus.items():
        top = topology(rs)
        trunc = truncate(rs)
        ttop = topology(trunc)
        assert all(trunc.degree(v) == 3 for v in trunc.vertices), name
        assert ttop.euler_characteristic == top.euler_characteristic, name
        assert ttop.orientable == top.orientable, name
        assert ttop.num_faces == top.num_faces + top.num_vertices, name


def test_generators_are_deterministic(corpus):
    rebuilt = {
        "tetrahedron": tetrahedron(),
        "hex_torus(3,3)": hex_torus(3, 3),
        "tri_torus(3,3)": tri_torus(3, 3),
        "k7_torus": k7_torus(),
        "hex_klein(3,3)": hex_klein(3, 3),
    }
    for name, rs in rebuilt.items():
        assert serialize_map(rs) == serialize_map(corpus[name]), name
        assert serialize_map(truncate(rs)) == \
            serialize_map(truncate(corpus[name])), name


@pytest.mark.parametrize("build,digest", [
    (hex_torus,
     "99d9c9ed3faffead9a33d6eb9acc537c6e54da4d83cdaa82b163bd4ef493f333"),
    (hex_klein,
     "0774a8cde3d6f486e805331edbfcd72a096c8dd4e888799f28794354008be535"),
])
def test_hex_families_are_byte_identical(build, digest):
    """SHA-256 over the map files of p, q = 3..6, taken when each family
    still had a builder of its own."""
    h = hashlib.sha256()
    for p, q in itertools.product(range(3, 7), repeat=2):
        h.update(serialize_map(build(p, q)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("build,digest", [
    (lambda: [tri_torus(p, q)
              for p, q in itertools.product(range(3, 7), repeat=2)],
     "473ee995dcc5ccdff0145a73ef5c51da195e858491161a11b2f1f0c7d3f3890d"),
    (lambda: [tetrahedron()],
     "ebb5252f62cf40bb84525445fbfe455bc8c07609aec8ad6232a1b4ea59217ec9"),
    (lambda: [k7_torus()],
     "64285d905c772d0eef508b46e8427ca54b0b097f92374459401779bfafe73021"),
], ids=["tri_torus", "tetrahedron", "k7_torus"])
def test_generated_ids_are_byte_identical(build, digest):
    """SHA-256 over the map files of each map and of its truncation,
    taken while ``from_rotations`` still joined the endpoint ids as
    given: ids free of '%' and '~' are named as they always were."""
    h = hashlib.sha256()
    for rs in build():
        h.update(serialize_map(rs).encode())
        h.update(serialize_map(truncate(rs)).encode())
    assert h.hexdigest() == digest


def _renamed(rs, vertex=None, edge=None):
    """``rs`` with vertices and edges renamed by the given dicts."""
    vertex, edge = vertex or {}, edge or {}
    return RotationSystem(
        {vertex.get(v, v): [edge.get(d.edge, d.edge) for d in rs.rotation[v]]
         for v in rs.vertices},
        {edge.get(e, e): s for e, s in rs.signature.items()})


@pytest.mark.parametrize("rs", [
    _renamed(tetrahedron(), edge={"0~1": "0/c0"}),
    _renamed(tetrahedron(), edge={"0~1": "0/c0", "0~2": "0%2Fc0",
                                  "0~3": "%", "1~2": "%25"}),
    _renamed(tetrahedron(), vertex={"0": "a/0", "1": "a", "2": "a%2F0",
                                    "3": "a/c0"}, edge={"0~1": "a/0/c0"}),
    RotationSystem.from_rotations({"%": ["/", "%2F", "%25"],
                                   "/": ["%", "%25", "%2F"],
                                   "%2F": ["%", "/", "%25"],
                                   "%25": ["/", "%", "%2F"]}),
], ids=["found", "edge-ids", "vertex-ids", "from-rotations"])
def test_truncate_escapes_ids(rs):
    """Ids holding '/' or '%' are escaped, so each of these tetrahedra
    truncates to a polyhedral 12/18/8 map; the first, with edge 0~1
    renamed 0/c0, was refused as 'edge '0/c0' appears more than twice'
    while truncation kept edge ids raw."""
    top = topology(truncate(rs))
    assert (top.num_vertices, top.num_edges, top.num_faces) == (12, 18, 8)
    assert check_polyhedral(top).polyhedral


def test_truncate_twice():
    """The second truncation escapes the '/' of the first one's ids."""
    rs = truncate(truncate(tetrahedron()))
    assert rs.vertices[:2] == ("0%2F0/0", "0%2F0/1")
    top = topology(rs)
    assert (top.num_vertices, top.num_edges, top.num_faces) == (36, 54, 20)
    assert check_polyhedral(top).polyhedral
    assert parse_map(serialize_map(rs)) == rs
