"""Rotation systems, face tracing, and derived topology."""

import random

import hypothesis
import hypothesis.strategies as st
import pytest

from conftest import (dart_endpoints, full_corpus, perturb, seeded_rng,
                      signed_tree_orientable, trace_by_dart_states)
from polymap.mapfile import parse_map
from polymap.errors import StructureError
from polymap.generators import hex_klein, hex_torus, tetrahedron, truncate
from polymap.surface_map import Dart, RotationSystem, topology, trace_faces


def test_dart_opposite():
    d = Dart("e", 0)
    assert d.opposite() == Dart("e", 1)
    assert d.opposite().opposite() == d


def test_construction_rejects_bad_systems():
    with pytest.raises(StructureError):
        RotationSystem({})
    with pytest.raises(StructureError):
        RotationSystem({"a": []})
    with pytest.raises(StructureError):  # edge once
        RotationSystem({"a": ["e"], "b": ["f", "f"]})
    with pytest.raises(StructureError):  # edge three times
        RotationSystem({"a": ["e", "e"], "b": ["e"]})
    with pytest.raises(StructureError):  # disconnected
        RotationSystem({"a": ["e", "e"], "b": ["f", "f"]})
    with pytest.raises(StructureError):  # bad signature value
        RotationSystem({"a": ["e", "e"]}, {"e": 0})
    with pytest.raises(StructureError):  # signature names unknown edge
        RotationSystem({"a": ["e", "e"]}, {"x": 1})


def test_dart_ends_normalised_by_scan_order():
    rs = RotationSystem({"b": ["e", "f"], "a": ["f", "e"]})
    # vertex "a" is scanned first, so its darts get end 0
    assert rs.rotation["a"] == (Dart("f", 0), Dart("e", 0))
    assert rs.rotation["b"] == (Dart("e", 1), Dart("f", 1))
    assert rs.endpoints("e") == ("a", "b")


def test_loop_counts_twice_in_degree():
    rs = RotationSystem({"a": ["e", "e", "f"], "b": ["f"]})
    assert rs.degree("a") == 3
    assert rs.endpoints("e") == ("a", "a")
    assert rs.adjacency() == {"a": ("b",), "b": ("a",)}


def test_rows_are_read_once_as_given():
    """A row is any iterable of edge ids, read once: a one-shot iterator
    or a string of one-character ids builds the same system as a list,
    and a row that gives no id is an empty rotation."""
    rows = {"a": ["e", "f", "g"], "b": ["g", "f", "e"]}
    want = RotationSystem(rows)
    assert RotationSystem({v: iter(row) for v, row in rows.items()}) == want
    assert RotationSystem({"a": "efg", "b": "gfe"}) == want
    with pytest.raises(StructureError) as info:
        RotationSystem({"a": iter([])})
    assert str(info.value) == "vertex 'a' has an empty rotation"


def test_from_rotations_rejects_colliding_pair_ids():
    """Rows that once gave a-(b~c) and (a~b)-c the one id "a~b~c".  The
    ids are distinct now, and the map is refused only because b~c does
    not list a."""
    with pytest.raises(StructureError, match="not listed at both ends"):
        RotationSystem.from_rotations({"a": ["b~c", "c"], "a~b": ["c"],
                                       "b~c": ["c"], "c": ["b~c", "a"]})


def test_from_rotations_gives_each_pair_its_own_id():
    """'~' and '%' inside vertex ids are escaped, so a-(b~c) and (a~b)-c
    are two edges and this simple graph builds."""
    rs = RotationSystem.from_rotations({
        "a": ["b~c", "c"], "b~c": ["a", "c"], "a~b": ["c"],
        "c": ["a~b", "a", "b~c"]})
    assert len(rs.edges) == 4
    assert set(map(rs.endpoints, rs.edges)) == {
        ("a", "b~c"), ("a~b", "c"), ("a", "c"), ("b~c", "c")}
    assert rs.edges == ("a%7Eb~c", "a~b%7Ec", "a~c", "b%7Ec~c")
    rs = RotationSystem.from_rotations({"%": ["%25"], "%25": ["%"]})
    assert rs.edges == ("%25~%2525",)


def _k4_with_a_tilde_vertex():
    return {"a": ["y", "b~c", "x"], "b~c": ["x", "a", "y"],
            "x": ["y", "a", "b~c"], "y": ["b~c", "a", "x"]}


def test_negative_edges_must_name_an_edge():
    """('a~b', 'c') names no edge of K4 on {a, b~c, x, y}: it raises
    rather than negate the edge a-(b~c), whose id it once shared."""
    k4 = _k4_with_a_tilde_vertex()
    assert RotationSystem.from_rotations(k4).orientable
    with pytest.raises(StructureError, match="unknown edge"):
        RotationSystem.from_rotations(k4, negative_edges=[("a~b", "c")])
    rs = RotationSystem.from_rotations(k4, negative_edges=[("b~c", "a")])
    assert [e for e in rs.edges if rs.signature[e] < 0] == ["a~b%7Ec"]
    assert not rs.orientable


def test_from_rotations_requires_simple_and_symmetric():
    with pytest.raises(StructureError):
        RotationSystem.from_rotations({"a": ["a"]})
    with pytest.raises(StructureError):
        RotationSystem.from_rotations({"a": ["b"], "b": []})


def test_tetrahedron_faces():
    top = topology(tetrahedron())
    assert top.num_vertices == 4
    assert top.num_edges == 6
    assert top.num_faces == 4
    assert set(top.face_degrees) == {3}
    assert top.euler_characteristic == 2
    assert top.orientable


def test_face_degree_sum_is_twice_edges(corpus_tops):
    for name, top in corpus_tops.items():
        assert sum(top.face_degrees) == 2 * top.num_edges, name


def test_every_edge_has_two_face_sides(corpus_tops):
    for name, top in corpus_tops.items():
        for e in top.rs.edges:
            assert len(top.edge_faces[e]) == 2, (name, e)


def test_corner_face_count_matches_degree(corpus_tops):
    for name, top in corpus_tops.items():
        for v in top.rs.vertices:
            assert len(top.vertex_faces[v]) == top.rs.degree(v), (name, v)


def test_faces_ordered_by_smallest_dart(corpus_tops):
    for name, top in corpus_tops.items():
        keys = [min(w.darts) for w in top.faces]
        assert keys == sorted(keys), name


def test_tetrahedron_walks_pinned():
    """Face order and walk direction, literally: the sorted-dart check
    above cannot see either."""
    D = Dart
    assert [w.darts for w in topology(tetrahedron()).faces] == [
        (D("0~1", 0), D("1~2", 0), D("0~2", 1)),
        (D("0~1", 0), D("1~3", 0), D("0~3", 1)),
        (D("0~2", 0), D("2~3", 0), D("0~3", 1)),
        (D("1~2", 0), D("2~3", 0), D("1~3", 1)),
    ]


def test_orientability():
    assert topology(hex_torus(3, 3)).orientable
    assert not topology(hex_klein(3, 3)).orientable
    assert topology(truncate(hex_klein(3, 3))).orientable is False


def test_euler_characteristic(corpus_tops):
    for name, top in corpus_tops.items():
        chi = top.num_vertices - top.num_edges + top.num_faces
        assert top.euler_characteristic == chi, name
        if "klein" in name or "torus" in name:
            assert chi == 0, name
        if "tetrahedron" in name:
            assert chi == 2, name


def test_vertex_types_and_edge_classes():
    top = topology(truncate(hex_torus(3, 3)))
    assert {top.vertex_type(v) for v in top.rs.vertices} == {(3, 12, 12)}
    assert {top.classify_edge(e) for e in top.rs.edges} == {"weak"}
    assert {top.face_class(f) for f in range(top.num_faces)} == {"minor", "major"}
    hexes = topology(hex_torus(3, 3))
    assert {hexes.face_class(f) for f in range(hexes.num_faces)} == {"six"}
    tetra = topology(tetrahedron())
    assert {tetra.classify_edge(e) for e in tetra.rs.edges} == {"weak"}


def test_unknown_edges_and_faces_are_refused():
    top = topology(tetrahedron())
    with pytest.raises(StructureError, match="^unknown edge 'nope'$"):
        top.classify_edge("nope")
    for f in (top.num_faces, -1):
        with pytest.raises(StructureError,
                           match="^unknown face index %d$" % f):
            top.face_class(f)


def test_trace_is_deterministic():
    a, b = trace_faces(hex_torus(4, 5)), trace_faces(hex_torus(4, 5))
    assert a == b


def test_relabeling_preserves_invariants():
    rng = seeded_rng(101)
    base = topology(hex_torus(3, 4))
    names = list(base.rs.vertices)
    for _ in range(5):
        shuffled = names[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        rot = {relabel[v]: [d.edge for d in base.rs.rotation[v]]
               for v in names}
        top = topology(RotationSystem(rot, base.rs.signature))
        assert top.euler_characteristic == base.euler_characteristic
        assert top.orientable == base.orientable
        assert sorted(top.face_degrees) == sorted(base.face_degrees)


def _switch(rs, v):
    """Reverse the rotation at ``v`` and negate its non-loop edges."""
    rot = {u: [d.edge for d in rs.rotation[u]] for u in rs.vertices}
    rot[v].reverse()
    sig = dict(rs.signature)
    for e in set(rot[v]):
        u, w = rs.endpoints(e)
        if u != w:
            sig[e] = -sig[e]
    return RotationSystem(rot, sig)


def test_local_reorientation_preserves_surface():
    """Reversing one vertex's rotation and flipping the signature of its
    non-loop edges is a re-embedding of the same map on the same
    surface, so all face structure must be preserved."""
    rng = seeded_rng(102)
    for rs in (hex_torus(3, 3), hex_klein(3, 3), tetrahedron()):
        base = topology(rs)
        for _ in range(5):
            v = rs.vertices[rng.randrange(len(rs.vertices))]
            top = topology(_switch(rs, v))
            assert top.euler_characteristic == base.euler_characteristic
            assert top.orientable == base.orientable
            assert sorted(top.face_degrees) == sorted(base.face_degrees)


_CORPUS = full_corpus()


def test_one_vertex_maps():
    sphere = topology(parse_map("v a: e+ e+\n"))
    assert (sphere.euler_characteristic, sphere.orientable) == (2, True)
    plane = topology(parse_map("v a: e+ e-\n"))
    assert (plane.euler_characteristic, plane.orientable) == (1, False)


def test_stored_ends_and_orientability_match_the_darts():
    """Endpoints, adjacency and orientability, read from the edge ends
    stored at construction, against the dart lookups and the two-pass
    spanning-tree test, on the corpus, perturb mutants and both
    one-vertex maps (one not orientable)."""
    maps = list(_CORPUS.values())
    maps += [parse_map("v a: e+ e+\n"), parse_map("v a: e+ e-\n")]
    rng = seeded_rng(104)
    bases = sorted(_CORPUS)
    for _ in range(300):
        base = _CORPUS[bases[rng.randrange(len(bases))]]
        maps.append(perturb(base, rng, moves=rng.randint(1, 3)))
    assert {signed_tree_orientable(rs) for rs in maps} == {True, False}
    for rs in maps:
        assert topology(rs).orientable == signed_tree_orientable(rs)
        adj = {v: set() for v in rs.vertices}
        for e in rs.edges:
            u, w = dart_endpoints(rs, e)
            assert rs.endpoints(e) == (u, w), e
            if u != w:
                adj[u].add(w)
                adj[w].add(u)
        assert rs.adjacency() == {v: tuple(sorted(ws))
                                  for v, ws in adj.items()}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.sampled_from(sorted(_CORPUS)), st.integers(0, 2**32),
                  st.integers(0, 4), st.integers(0, 10**6))
def test_local_switch_property(name, seed, moves, pick):
    """A local switch re-embeds the same map on the same surface, so
    chi, orientability and the face degrees must not change, whatever
    the (perturbed, often chi < 0) surface is."""
    rs = perturb(_CORPUS[name], random.Random(seed), moves=moves)
    switched = _switch(rs, rs.vertices[pick % len(rs.vertices)])
    before, after = topology(rs), topology(switched)
    assert after.euler_characteristic == before.euler_characteristic
    assert after.orientable == before.orientable
    assert sorted(after.face_degrees) == sorted(before.face_degrees)
    assert before.orientable == signed_tree_orientable(rs)
    assert after.orientable == signed_tree_orientable(switched)


def test_perturbed_systems_still_trace_cleanly():
    """Arbitrary rotation/signature edits still yield a consistent
    two-sided trace: face degrees sum to 2E and chi is an integer."""
    rng = seeded_rng(103)
    for _ in range(25):
        rs = perturb(hex_torus(3, 3), rng, moves=3)
        top = topology(rs)
        assert sum(top.face_degrees) == 2 * top.num_edges
        assert isinstance(top.euler_characteristic, int)


def _traced(trace, rs):
    """Faces, corners and edge sides of ``rs`` by ``trace``, or the
    message of the StructureError it raises."""
    try:
        top = trace(rs)
    except StructureError as exc:
        return str(exc)
    return top.faces, top.vertex_faces, top.edge_faces


@st.composite
def _bouquets(draw):
    """One vertex with 1 to 4 loops in any rotation and any signs."""
    loops = ["l%d" % i for i in range(draw(st.integers(1, 4)))]
    row = draw(st.permutations(loops + loops))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(loops),
                          max_size=len(loops)))
    return RotationSystem({"a": row}, dict(zip(loops, signs)))


@st.composite
def _mutants(draw):
    base = _CORPUS[draw(st.sampled_from(sorted(_CORPUS)))]
    return perturb(base, random.Random(draw(st.integers(0, 2**32))),
                   moves=draw(st.integers(1, 4)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.one_of(st.sampled_from(sorted(_CORPUS)).map(_CORPUS.get),
                            _mutants(), _bouquets()))
def test_trace_matches_the_dart_state_oracle(rs):
    """The trace on integer dart ids gives the faces (darts, vertex
    sequences, degrees), corners and edge sides of the trace over
    ``(Dart, side)`` states, or the same StructureError: on the corpus,
    perturb mutants (chi < 0, non-orientable, reversed rotations) and
    one-vertex maps of loops."""
    assert _traced(topology, rs) == _traced(trace_by_dart_states, rs)


def test_dart_vertex_rejects_darts_not_in_the_system():
    rs = hex_torus(3, 3)
    e = rs.edges[0]
    assert rs.dart_vertex(Dart(e, 0)) == rs.endpoints(e)[0]
    assert rs.dart_vertex(Dart(e, 1)) == rs.endpoints(e)[1]
    for d in (Dart(e, -1), Dart(e, 2), Dart("no such edge", 0)):
        with pytest.raises(KeyError):
            rs.dart_vertex(d)


def test_equality_and_repr():
    assert hex_torus(3, 3) == hex_torus(3, 3)
    assert hex_torus(3, 3) != hex_torus(3, 4)
    assert "RotationSystem" in repr(hex_torus(3, 3))


def test_equality_with_another_type_is_false():
    rs = hex_torus(3, 3)
    assert (rs == object()) is False
    assert (rs != "x") is True
    assert rs.__eq__(object()) is NotImplemented
