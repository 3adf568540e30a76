"""End-to-end acceptance checks, one test per headline guarantee.

Each test is self-contained and emits exactly one pass/fail line under
``pytest -v``.  Stated runtime ceilings are asserted where a guarantee
includes one.
"""

import time
from fractions import Fraction

from polymap.curvature_light import (LIGHT_TABLE, UNBOUNDED, curvature_bound,
                                     gauss_bonnet_sum, match_light,
                                     scan_theorem2)
from polymap.discharging import (TransferLedger, apply_rule_a1, apply_rule_a2,
                                 apply_rule_a3, apply_rule_a4, apply_rule_b,
                                 initial_charges)
from polymap.generators import hex_torus, tetrahedron, truncate
from polymap.surface_map import topology
from polymap.transferability import (enumerate_paths, find_stuck,
                                     n_verdict, steps, transferability)
from polymap.validity import check_polyhedral

from conftest import (complete_graph, cycle_graph, full_corpus, perturb,
                      petersen_graph, random_connected_graph, seeded_rng)


def test_criterion_1_gauss_bonnet_identity():
    """Sum of vertex curvatures equals the Euler characteristic, exactly,
    on every corpus map, in under a second."""
    start = time.perf_counter()
    for name, rs in full_corpus().items():
        top = topology(rs)
        assert gauss_bonnet_sum(top) == top.euler_characteristic, name
        assert isinstance(gauss_bonnet_sum(top), Fraction), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_criterion_2_charge_conservation(corpus_tops):
    """Total charge equals -6 chi after the initial assignment and after
    every rule, and the ledger replay reproduces the final state."""
    start = time.perf_counter()
    for name, top in corpus_tops.items():
        expect = -6 * top.euler_characteristic
        ledger = TransferLedger()
        state = initial_charges(top)
        assert state.total() == expect, (name, "initial")
        for rule in (apply_rule_a1, apply_rule_a2, apply_rule_a3,
                     apply_rule_a4, apply_rule_b):
            state = rule(state, top, ledger)
            assert state.total() == expect, (name, state.applied)
        replayed = ledger.replay(initial_charges(top))
        assert replayed.vertex_charge == state.vertex_charge, name
        assert replayed.face_charge == state.face_charge, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_criterion_3_light_vertices_at_desk_scale(corpus_tops,
                                                  corpus_validity):
    """Every polyhedral corpus map with chi <= 0 and more than 126|chi|
    vertices has a light vertex; the named maps report the exact census;
    the contradiction verdict never fires."""
    start = time.perf_counter()
    scans = {}
    for name, top in corpus_tops.items():
        scan = scan_theorem2(top, corpus_validity[name])
        scans[name] = scan
        assert scan.verdict != "counterexample-candidate", name
        applies = (corpus_validity[name].polyhedral
                   and top.euler_characteristic <= 0
                   and top.num_vertices >
                   126 * abs(top.euler_characteristic))
        if applies:
            assert scan.verdict == "theorem-confirmed", name
            assert len(scan.light) >= 1, name

    scan = scans["hex_torus(3,3)"]
    assert len(scan.light) == 18
    assert all(row.label() == "(6,6,6)" and row.dagger
               for _, row in scan.light)

    scan = scans["k7_torus"]
    assert len(scan.light) == 7
    assert all(row.label() == "(3,3,3,3,3,3)" and row.dagger
               for _, row in scan.light)

    scan = scans["truncate(hex_torus(3,3))"]
    assert len(scan.light) == 54
    for _, row in scan.light:
        assert row.matches((3, 12, 2518))
        assert not row.matches((3, 12, 2519))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_criterion_4_transferability_sweep():
    """The truncated 3x3 hexagonal torus is exactly 12-path-transferable;
    the sweep reports every n from 1 to 13."""
    graph = truncate(hex_torus(3, 3)).adjacency()
    start = time.perf_counter()
    result = transferability(graph, max_n=13)
    elapsed = time.perf_counter() - start
    assert result.value == 12
    assert result.truncated_at is None
    assert [r.n for r in result.per_n] == list(range(1, 14))
    by_n = {r.n: r for r in result.per_n}
    assert all(by_n[n].transferable for n in range(1, 13))
    assert by_n[12].transferable is True
    assert by_n[13].transferable is False
    assert by_n[13].reason == "not-strongly-connected"
    for n in (12, 13):
        assert 0 < by_n[n].state_count <= 400_000
    assert elapsed < 300.0, "took %.2fs" % elapsed


def test_criterion_5_stuck_path_witness():
    """At n = 13 the truncated hexagonal torus has a stuck 13-path through
    any chosen vertex (all of type (3,12,12)): no neighbor of its head
    lies outside the path interior."""
    rs = truncate(hex_torus(3, 3))
    top = topology(rs)
    graph = rs.adjacency()
    anchor = min(graph)
    assert top.vertex_type(anchor) == (3, 12, 12)
    start = time.perf_counter()
    path = find_stuck(graph, 13, anchor=anchor)
    elapsed = time.perf_counter() - start
    assert path is not None
    assert anchor in path.vertices
    assert len(path.vertices) == 14
    assert steps(graph, path) == []
    inner = set(path.vertices[1:-1])
    assert all(v in inner for v in graph[path.head])
    assert elapsed < 60.0, "took %.2fs" % elapsed


def test_criterion_6_oracle_equivalence():
    """SCC-based n-transferability verdicts agree with a naive all-pairs
    BFS reachability oracle on every feasible (graph, n)."""
    def oracle(graph, n):
        states = enumerate_paths(graph, n)
        if not states:
            return False
        succ = {s: steps(graph, s) for s in states}
        for origin in states:
            seen = {origin}
            frontier = [origin]
            while frontier:
                nxt = []
                for s in frontier:
                    for t in succ[s]:
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
                frontier = nxt
            if len(seen) != len(states):
                return False
        return True

    cases = [
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("C5", cycle_graph(5)),
        ("petersen", petersen_graph()),
        ("tetrahedron-skeleton", topology(tetrahedron()).rs.adjacency()),
    ]
    rng = seeded_rng(505)
    for trial in range(10):
        nv = rng.randint(4, 10)
        cases.append(("random-%d" % trial, random_connected_graph(rng, nv)))

    checked = 0
    for name, graph in cases:
        for n in range(1, len(graph)):
            if len(enumerate_paths(graph, n)) > 1500:
                break  # oracle cost is quadratic in the state count
            assert n_verdict(graph, n).transferable == oracle(graph, n), \
                (name, n)
            checked += 1
    assert checked >= 40  # the cap must not hollow the criterion out


def test_criterion_7_light_table_classifier():
    """Every row of the light-vertex table accepts a canonical in-pattern
    probe and rejects a probe just past its bounds; spot checks pin the
    (3,12,<=2518) boundary."""
    assert len(LIGHT_TABLE) == 32
    for row in LIGHT_TABLE:
        inside = tuple(entry[1] if entry[0] in ("exact", "at_most") else 4000
                       for entry in row.entries)
        assert row.matches(inside), row.label()
        matched = match_light(inside)
        assert matched is not None and matched.matches(inside), row.label()

        bounded = [j for j, entry in enumerate(row.entries)
                   if entry[0] in ("exact", "at_most")]
        assert bounded, row.label()  # no row is all wildcards
        j = bounded[-1]
        outside = list(inside)
        outside[j] = row.entries[j][1] + 1
        assert not row.matches(tuple(sorted(outside))), row.label()

    assert match_light((3, 12, 2518)) is not None
    assert match_light((3, 12, 2518)).matches((3, 12, 2518))
    assert not match_light((3, 12, 2518)).matches((3, 12, 2519))
    assert match_light((3, 12, 2519)) is None
    assert match_light((3, 13, 13)) is None


def test_criterion_8_curvature_thresholds():
    """The largest completing face degree that keeps curvature nonnegative
    matches the closing threshold list exactly."""
    table = {
        (3, 7): 42, (3, 8): 24, (3, 9): 18, (3, 10): 15, (3, 11): 13,
        (3, 12): 12, (4, 5): 20, (4, 6): 12, (4, 7): 9, (4, 8): 8,
        (5, 5): 10, (5, 6): 7, (3, 3, 4): 12, (3, 3, 5): 7,
    }
    for prefix, want in table.items():
        got = curvature_bound(prefix)
        assert got == want and got is not UNBOUNDED, prefix


def test_criterion_9_wheel_implies_polyhedral(corpus, corpus_tops,
                                              corpus_validity):
    """Wheel neighborhoods force 3-connectivity, closed 2-cell faces, no
    loop or parallel edge and minimum degree 3, on every corpus map and
    on 100 randomized local perturbations."""
    for name in corpus_tops:
        report = corpus_validity[name]
        if report.wheel_neighborhood:
            assert report.three_connected, name
            assert report.closed_2cell, name
            assert report.is_simple and report.min_degree_ok, name

    rng = seeded_rng(909)
    names = sorted(corpus)
    for i in range(100):
        name = names[i % len(names)]
        mutant = perturb(corpus[name], rng, moves=rng.randint(1, 3))
        report = check_polyhedral(topology(mutant))
        if report.wheel_neighborhood:
            assert report.three_connected, (name, i)
            assert report.closed_2cell, (name, i)
            assert report.is_simple and report.min_degree_ok, (name, i)
