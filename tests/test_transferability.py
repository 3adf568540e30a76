"""Path states, transfer moves, the transfer digraph, and stuck paths."""

import pytest

from polymap.errors import BudgetError, StructureError
from polymap.generators import hex_torus, tetrahedron, truncate
from polymap.surface_map import topology
from polymap.transferability import (DEFAULT_BUDGET, PathState,
                                     build_transfer_digraph, enumerate_paths,
                                     find_stuck, is_n_transferable,
                                     longest_path_bound, steps,
                                     transferability)

from conftest import (complete_graph, cycle_graph, petersen_graph,
                      random_connected_graph, seeded_rng)


def naive_is_transferable(graph, n):
    """Independent oracle: explicit state list, BFS reachability per pair."""
    states = enumerate_paths(graph, n)
    if not states:
        return False
    succ = {s: steps(graph, s) for s in states}
    for start in states:
        seen = {start}
        frontier = [start]
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


def test_path_state_validation():
    p = PathState(("a", "b", "c"))
    assert p.tail == "a" and p.head == "c" and p.length == 2
    assert p.reverse().vertices == ("c", "b", "a")
    assert PathState(("a",)).length == 0  # legal state, zero edges
    with pytest.raises(StructureError):
        PathState(("a", "b", "a"))  # repeated vertex
    with pytest.raises(StructureError):
        PathState([])


def test_steps_examples():
    k4 = complete_graph(4)
    c5 = cycle_graph(5)
    p = PathState(("k0", "k1", "k2", "k3"))
    assert [s.vertices for s in steps(k4, p)] == [("k1", "k2", "k3", "k0")]
    # a 1-path on a cycle may step back onto its own tail
    assert [s.vertices for s in steps(c5, PathState(("c0", "c1")))] == \
        [("c1", "c0"), ("c1", "c2")]
    # moves drop the tail and keep everything else
    q = PathState(("c0", "c1", "c2"))
    assert [s.vertices for s in steps(c5, q)] == [("c1", "c2", "c3")]
    with pytest.raises(StructureError):
        steps(c5, PathState(("c0", "c2")))  # not a path in this graph


def test_enumerate_paths():
    k4 = complete_graph(4)
    assert len(enumerate_paths(k4, 3)) == 24
    assert len(enumerate_paths(cycle_graph(5), 1)) == 10
    assert enumerate_paths(k4, 4) == ()  # no room for five vertices
    ps = enumerate_paths(k4, 2)
    assert list(ps) == sorted(ps, key=lambda s: s.vertices)
    assert len(set(ps)) == len(ps)
    # reversal is an involution on the state set
    assert sorted(s.reverse().vertices for s in ps) == \
        sorted(s.vertices for s in ps)
    with pytest.raises(ValueError):
        enumerate_paths(k4, 0)


def test_k4_digraph_structure():
    dg = build_transfer_digraph(complete_graph(4), 3)
    assert (dg.state_count, dg.arc_count) == (24, 24)
    summary = dg.scc_summary()
    assert summary.sizes == (4,) * 6
    assert summary.count == 6
    assert not dg.is_strongly_connected
    assert is_n_transferable(complete_graph(4), 3) is False


def test_c5_orientation_components():
    dg = build_transfer_digraph(cycle_graph(5), 2)
    assert dg.scc_summary().sizes == (5, 5)
    # each orientation slides around the cycle but cannot reverse
    assert is_n_transferable(cycle_graph(5), 2) is False
    # 1-paths can reverse in place, so the digraph is strongly connected
    assert is_n_transferable(cycle_graph(5), 1) is True


def test_digraph_round_trip():
    dg = build_transfer_digraph(complete_graph(4), 2)
    for i in range(dg.state_count):
        s = dg.state_at(i)
        assert dg.index_of(s) == i
        succ = {dg.state_at(j).vertices for j in dg.successors_of(i)}
        assert succ == {t.vertices for t in steps(complete_graph(4), s)}


@pytest.mark.parametrize("name,graph,max_n,value", [
    ("K4", complete_graph(4), 3, 2),
    ("K5", complete_graph(5), 4, 3),
    ("C5", cycle_graph(5), 4, 1),
    ("petersen", petersen_graph(), 9, 7),
])
def test_values_against_oracle(name, graph, max_n, value):
    result = transferability(graph, max_n)
    assert result.value == value
    assert result.search_bound == max_n
    assert result.truncated_at is None
    for record in result.per_n:
        assert record.transferable == naive_is_transferable(graph, record.n)


def test_tetrahedron_skeleton_value():
    graph = topology(tetrahedron()).rs.adjacency()
    assert transferability(graph, 3).value == 2


def test_random_graphs_against_oracle():
    rng = seeded_rng(301)
    for trial in range(12):
        graph = random_connected_graph(rng, rng.randint(4, 8))
        for n in range(1, min(5, len(graph))):
            fast = is_n_transferable(graph, n)
            slow = naive_is_transferable(graph, n)
            assert fast == slow, (trial, n, graph)


def test_stuck_paths():
    assert find_stuck(complete_graph(4), 3) is None
    assert find_stuck(complete_graph(6), 2) is None
    witness = find_stuck(cycle_graph(5), 2)
    assert witness is None  # every 2-path on a cycle can still slide
    with pytest.raises(StructureError):
        find_stuck(complete_graph(4), 3, anchor="nope")


def test_longest_path_bound():
    assert longest_path_bound(complete_graph(4)) == 3
    assert longest_path_bound(cycle_graph(5)) == 4
    hex33 = topology(hex_torus(3, 3)).rs.adjacency()
    assert longest_path_bound(hex33) >= 12


def test_budget_enforcement():
    assert DEFAULT_BUDGET == 5_000_000
    with pytest.raises(BudgetError) as info:
        build_transfer_digraph(petersen_graph(), 6, budget=50)
    assert info.value.count > 50
    with pytest.raises(BudgetError):
        longest_path_bound(petersen_graph(), budget=10)
    # sweeps truncate instead of raising
    result = transferability(petersen_graph(), max_n=9, budget=100)
    assert result.truncated_at is not None
    assert result.search_bound == result.truncated_at - 1
    assert all(r.n <= result.search_bound for r in result.per_n)
    assert result.value <= result.search_bound


def test_truncated_hex_warm_up():
    graph = truncate(hex_torus(3, 3)).adjacency()
    result = transferability(graph, max_n=3)
    assert [r.transferable for r in result.per_n] == [True, True, True]
    assert result.value >= 3


def test_graph_input_validation():
    with pytest.raises(StructureError):
        enumerate_paths({"a": ("a",)}, 1)  # loop
    with pytest.raises(StructureError):
        enumerate_paths({"a": ("b",)}, 1)  # dangling neighbor
    with pytest.raises(StructureError):
        enumerate_paths({"a": ("b",), "b": ()}, 1)  # asymmetric
