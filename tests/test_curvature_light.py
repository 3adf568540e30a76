"""Combinatorial curvature, the light-vertex table, and degree bounds."""

import math
from fractions import Fraction

import pytest

from polymap.curvature_light import (DEGREE_CAP, LIGHT_TABLE, UNBOUNDED,
                                     VERTEX_FACTOR, curvature,
                                     curvature_bound, gauss_bonnet_sum,
                                     match_light, scan_theorem2)
from polymap.errors import StructureError
from polymap.generators import hex_torus, k7_torus, tetrahedron, truncate
from polymap.report import curvature_section, fraction_str
from polymap.surface_map import topology
from polymap.validity import check_polyhedral

from conftest import perturb, seeded_rng

F = Fraction


def test_constants():
    assert DEGREE_CAP == 2518
    assert VERTEX_FACTOR == 126
    assert UNBOUNDED is math.inf


def test_curvature_values():
    tetra = topology(tetrahedron())
    assert all(curvature(tetra, v) == F(1, 2)
               for v in tetra.rs.vertices)
    hexes = topology(hex_torus(3, 3))
    assert all(curvature(hexes, v) == 0 for v in hexes.rs.vertices)
    trunc = topology(truncate(hex_torus(3, 3)))
    # 1 - 3/2 + (1/3 + 1/12 + 1/12) = 0
    assert all(curvature(trunc, v) == 0 for v in trunc.rs.vertices)
    with pytest.raises(StructureError):
        curvature(tetra, "missing")


def test_gauss_bonnet_on_corpus(corpus, corpus_tops):
    for name, top in corpus_tops.items():
        assert gauss_bonnet_sum(top) == top.euler_characteristic, name
    # The corpus only has chi in {2, 0}; seeded mutants reach chi < 0.
    rng = seeded_rng(41)
    mutants = [topology(perturb(rs, rng))
               for rs in corpus.values() for _ in range(5)]
    negative = 0
    for top in mutants:
        chi = top.euler_characteristic
        negative += chi < 0
        vs = top.rs.vertices
        assert gauss_bonnet_sum(top) == sum(curvature(top, v)
                                            for v in vs) == chi
        assert curvature_section(top)["total"] == fraction_str(chi)
        for v in vs:
            assert top.vertex_types[v] == tuple(sorted(
                top.face_degrees[f] for f in top.vertex_faces[v]))
    assert (len(mutants), negative) == (130, 117)


def test_table_rows_each_accept_and_reject():
    """Every table row matches a canonical in-pattern probe and rejects a
    probe pushed just past its constraints."""
    assert len(LIGHT_TABLE) == 32
    for row in LIGHT_TABLE:
        inside = []
        for entry in row.entries:
            if entry[0] == "exact":
                inside.append(entry[1])
            elif entry[0] == "at_most":
                inside.append(entry[1])
            else:
                inside.append(4000)  # wildcards accept anything
        matched = match_light(tuple(inside))
        assert matched is not None, row.label()
        # earlier rows may shadow this one; whichever matched must accept
        assert matched.matches(tuple(inside)), row.label()

        bumped = False
        for i, entry in enumerate(reversed(row.entries)):
            j = len(row.entries) - 1 - i
            if entry[0] in ("exact", "at_most"):
                outside = list(inside)
                outside[j] = entry[1] + 1
                assert not row.matches(tuple(sorted(outside))), row.label()
                bumped = True
                break
        if not bumped:  # all-wildcard rows reject only by arity
            assert not row.matches(tuple(inside) + (3,)), row.label()


def test_spot_patterns():
    assert match_light((3, 12, 2518)) is not None
    row = match_light((3, 12, 2518))
    assert row.matches((3, 12, 2518)) and not row.matches((3, 12, 2519))
    assert match_light((3, 12, 2519)) is None
    assert match_light((3, 13, 13)) is None
    assert match_light((6, 6, 6)) is not None and match_light((6, 6, 6)).dagger
    assert match_light((3, 3, 3, 3, 3, 3)).dagger
    assert match_light((7, 7, 7)) is None  # degree >= 7 faces: never light
    assert match_light((3, 3)) is None  # arity out of range
    assert match_light((3,) * 7) is None
    # matching ignores input order
    assert match_light((2518, 12, 3)) is not None
    # a bounded last entry, and a row that allows any last entry
    assert match_light((3, 12, 12)).label() == "(3,12,<=2518)"
    assert match_light((3, 3, 9)).label() == "(3,3,any)"


def test_scan_verdicts(corpus_tops):
    for name, top in corpus_tops.items():
        scan = scan_theorem2(top, check_polyhedral(top))
        assert scan.verdict in ("theorem-confirmed", "hypotheses-not-met")
        if name == "hex_torus(3,3)":
            assert scan.verdict == "theorem-confirmed"
            assert len(scan.light) == 18
            assert all(row.label() == "(6,6,6)+" or "6,6,6" in row.label()
                       for _, row in scan.light)
        if name == "k7_torus":
            assert len(scan.light) == 7
        if name == "truncate(hex_torus(3,3))":
            assert len(scan.light) == 54
    tetra = corpus_tops["tetrahedron"]
    scan = scan_theorem2(tetra, check_polyhedral(tetra))
    assert scan.verdict == "hypotheses-not-met"  # chi = 2


def test_curvature_bound_thresholds():
    table = {
        (3, 7): 42, (3, 8): 24, (3, 9): 18, (3, 10): 15, (3, 11): 13,
        (3, 12): 12, (4, 5): 20, (4, 6): 12, (4, 7): 9, (4, 8): 8,
        (5, 5): 10, (5, 6): 7, (3, 3, 4): 12, (3, 3, 5): 7,
    }
    for prefix, want in table.items():
        assert curvature_bound(prefix) == want, prefix


def test_curvature_bound_edges():
    assert curvature_bound((3, 6)) is UNBOUNDED  # rhs exactly 0
    assert curvature_bound((3, 3)) is UNBOUNDED  # rhs negative
    assert curvature_bound((3, 3, 3)) is UNBOUNDED  # rhs exactly 0
    assert curvature_bound((3, 43)) is None  # bound below max entry
    assert curvature_bound((3, 3, 3, 3, 4)) is None  # k <= 2 < max(prefix)
    with pytest.raises(ValueError):
        curvature_bound(())
    with pytest.raises(ValueError):
        curvature_bound((0, 3))
