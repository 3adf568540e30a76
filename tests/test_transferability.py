"""Path states, transfer moves, the transfer digraph, and stuck paths."""

import itertools
import signal
import sys
import tracemalloc
from array import array

import networkx
import pytest

from polymap.errors import BudgetError, StructureError
from polymap.generators import (hex_klein, hex_torus, k7_torus, tetrahedron,
                                tri_torus, truncate)
from polymap.surface_map import topology
from polymap.transferability import (DEFAULT_BUDGET, NPathVerdict,
                                     PathState, StuckWitness,
                                     TransferDigraph, _reach, _sources,
                                     _Space, _tail_moves, _tarjan,
                                     build_transfer_digraph,
                                     enumerate_paths, find_stuck,
                                     is_n_transferable, n_verdict, steps,
                                     transferability)

from conftest import (block_digraph_by_dfs, complete_graph, cube_graph,
                      cycle_graph, grid_graph, iter_states_by_copies,
                      longest_path_bound, moves_by_scan, path_graph,
                      petersen_graph, random_bipartite_graph,
                      random_connected_graph, reach_by_arcs,
                      scc_sizes_by_arcs, seeded_rng, sources_by_arcs,
                      star_graph, stuck_by_dfs, suffixes_by_search,
                      tail_moves_by_index)


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
    with pytest.raises(StructureError, match="at least one edge"):
        steps(c5, PathState(("c0",)))  # a 0-edge path has no move


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
    assert is_n_transferable(complete_graph(4), 3) is False


def test_c5_orientation_components():
    dg = build_transfer_digraph(cycle_graph(5), 2)
    assert dg.scc_summary().sizes == (5, 5)
    # each orientation slides around the cycle but cannot reverse
    assert is_n_transferable(cycle_graph(5), 2) is False
    # 1-paths can reverse in place, so the digraph is strongly connected
    assert is_n_transferable(cycle_graph(5), 1) is True


def test_scc_summary_against_networkx():
    """Component count and sizes agree with networkx on the move digraph
    built from ``steps``.  On C300 Tarjan's call stack runs 300 to 401
    frames deep over 600 states."""
    cases = [("K4", complete_graph(4)), ("C5", cycle_graph(5)),
             ("petersen", petersen_graph()), ("C300", cycle_graph(300))]
    rng = seeded_rng(505)  # the random graphs of criterion 6
    for trial in range(10):
        nv = rng.randint(4, 10)
        cases.append(("random-%d" % trial, random_connected_graph(rng, nv)))
    for name, graph in cases:
        for n in range(1, 5):
            moves = networkx.DiGraph()
            for s in enumerate_paths(graph, n):
                moves.add_node(s)
                moves.add_edges_from((s, t) for t in steps(graph, s))
            sizes = sorted((len(c) for c in
                            networkx.strongly_connected_components(moves)),
                           reverse=True)
            summary = build_transfer_digraph(graph, n).scc_summary()
            assert (summary.count, summary.sizes) == \
                (len(sizes), tuple(sizes)), (name, n)


def test_scc_summary_matches_the_stored_arc_oracle_on_the_cubic_maps():
    """Components read off the block digraph equal those of the digraph
    with every arc stored, on both 54-vertex cubic maps of value 12."""
    counts = {}
    for name, rs in (("torus", truncate(hex_torus(3, 3))),
                     ("klein", truncate(hex_klein(3, 3)))):
        graph = rs.adjacency()
        for n in (10, 13):
            summary = build_transfer_digraph(graph, n).scc_summary()
            assert (summary.count, summary.sizes) == \
                scc_sizes_by_arcs(graph, n), (name, n)
            counts[name, n] = summary.count
    assert (counts["torus", 13], counts["klein", 13]) == (865, 961)


def _row_cases():
    rng = seeded_rng(823)
    for trial in range(30):
        nv = rng.randint(2, 9)
        yield "random-%d" % trial, random_connected_graph(rng, nv)
        yield "tree-%d" % trial, random_connected_graph(rng, nv, 0)
    for k in (2, 3, 6):
        yield "path-%d" % k, path_graph(k)


def test_successor_rows_are_contiguous_ranges_of_the_moves():
    """Every state's moves are one ascending run of consecutive indices,
    equal to ``steps``; trees and paths give stuck states, whose row is
    empty.  C300 packs states as tuples."""
    stuck = 0
    cases = [(name, graph, range(1, len(graph)))
             for name, graph in _row_cases()]
    cases.append(("C300", cycle_graph(300), (1, 2, 150, 299)))
    for name, graph, lengths in cases:
        for n in lengths:
            dg = build_transfer_digraph(graph, n)
            rows = [list(dg.successors_of(i)) for i in range(dg.state_count)]
            for i, row in enumerate(rows):
                assert not row or row == list(range(row[0], row[-1] + 1)), \
                    (name, n, i)
                moves = steps(graph, dg.state_at(i))
                assert [dg.state_at(j) for j in row] == moves, (name, n, i)
            stuck += rows.count([])
            assert dg.arc_count == sum(map(len, rows)), (name, n)
    assert stuck > 0


def _oracle_cases():
    rng = seeded_rng(907)
    for trial in range(30):
        nv = rng.randint(2, 9)
        yield "random-%d" % trial, random_connected_graph(rng, nv), range(1, nv)
        yield "tree-%d" % trial, random_connected_graph(rng, nv, 0), \
            range(1, nv)
    yield "C300", cycle_graph(300), (1, 2, 150, 299)
    yield "torus", truncate(hex_torus(3, 3)).adjacency(), range(1, 14)
    yield "klein", truncate(hex_klein(3, 3)).adjacency(), range(1, 14)
    yield "K7", complete_graph(7), range(1, 6)
    yield "tri_torus(4,4)", tri_torus(4, 4).adjacency(), range(1, 5)
    yield "star300", star_graph(300), (1, 2, 3)


def test_levels_match_the_block_digraph_of_one_path_search():
    """Each n's digraph, built from the last one's, holds the states of
    one depth-first search as vertex indices in the same order (decoding
    on one space is injective, so no name is compared), with the same
    successor rows, arc count and components; trees give stuck states,
    C300 has more than 256 vertices.  K7 and tri_torus(4,4) have short
    runs of consecutive suffixes, and the 300-leaf star a hub of degree
    300, with 89 700 stuck 2-paths and no 3-path."""
    stuck = 0
    for name, graph, lengths in _oracle_cases():
        for n in lengths:
            dg = build_transfer_digraph(graph, n)
            oracle = block_digraph_by_dfs(graph, n)
            states = range(dg.state_count)
            assert list(zip(*dg._walks(states))) == oracle.states, (name, n)
            assert list(map(dg.successors_of, states)) == oracle.rows, \
                (name, n)
            assert dg.arc_count == oracle.arc_count, (name, n)
            assert dg.scc_summary() == oracle.scc, (name, n)
            stuck += list(map(len, oracle.rows)).count(0)
    assert stuck > 0


def test_runs_are_the_maximal_runs_of_consecutive_suffixes():
    """At every level of every oracle case the runs' offsets run from 0
    to the state count, and the runs, each expanded, concatenate to the
    suffixes found by searching the blocks (``suffixes_by_search``,
    which on the random graphs and trees equals ``index_of`` of each
    state's p[1:]); each run is nonempty and no run starts where the
    last one ends, so each is maximal; and a level has at most as many
    runs as the last one plus the moves it drops.  On the truncated
    hexagonal torus the runs stay few while its levels grow to 160 920
    states."""
    for name, graph, ns in _oracle_cases():
        last = None
        digraph = build_transfer_digraph(graph, max(ns))
        for level, suffix in zip(digraph._levels(),
                                 suffixes_by_search(digraph)):
            starts, offsets = level._runs
            lengths = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
            assert (offsets[0], offsets[-1]) == (0, level.state_count), \
                (name, level.n)
            assert [k for s, length in zip(starts, lengths)
                    for k in range(s, s + length)] == suffix, \
                (name, level.n)
            if name.startswith(("random", "tree")):
                prev, index = level._prev, level._space.index
                assert suffix == [
                    index[level.state_at(i).head] if prev is None else
                    prev.index_of(PathState(level.state_at(i).vertices[1:]))
                    for i in range(level.state_count)], (name, level.n)
            assert 0 not in lengths, (name, level.n)
            assert all(s + length != t for s, length, t in
                       zip(starts, lengths, starts[1:])), (name, level.n)
            if last is not None:
                assert len(starts) <= len(last._runs[0]) + level._dropped, \
                    (name, level.n)
            last = level
    th33 = truncate(hex_torus(3, 3)).adjacency()
    counts = [len(level._runs[0])
              for level in build_transfer_digraph(th33, 13)._levels()]
    assert counts[1:] == [198] + [216] * 9 + [648, 3132]


def _relabelled(graph, prefix):
    return {prefix + v: tuple(prefix + w for w in row)
            for v, row in graph.items()}


def _verdict_cases():
    """300 seeded graphs on 2 to 10 vertices: connected, trees, and
    unions of two connected parts with up to two isolated vertices."""
    rng = seeded_rng(1013)
    for trial in range(100):
        yield random_connected_graph(rng, rng.randint(2, 8))
        yield random_connected_graph(rng, rng.randint(2, 8), 0)
        graph = _relabelled(random_connected_graph(
            rng, rng.randint(1, 4), rng.random()), "a")
        graph.update(_relabelled(random_connected_graph(
            rng, rng.randint(1, 4), rng.random()), "b"))
        for i in range(rng.randint(0, 2)):
            graph["z%d" % i] = ()
        yield graph


@pytest.fixture
def tarjan_calls(monkeypatch):
    """The arc count of each ``_tarjan`` call the test makes."""
    calls = []

    def counted(num, offsets, targets):
        calls.append(len(targets))
        return _tarjan(num, offsets, targets)

    monkeypatch.setattr(sys.modules[transferability.__module__], "_tarjan",
                        counted)
    return calls


@pytest.fixture
def verdict_calls(monkeypatch):
    """The n of each ``TransferDigraph._verdict`` search the test makes."""
    calls = []
    search = TransferDigraph._verdict

    def counted(self):
        calls.append(self.n)
        return search(self)

    monkeypatch.setattr(TransferDigraph, "_verdict", counted)
    return calls


def test_searched_verdict_matches_the_component_count(tarjan_calls):
    """Trimming H and two forward searches on its core count the
    components of every n below V as the stored-arc oracle does; Tarjan
    splits the core on some (graph, n) pairs only, and on others every
    component is a single state.  The single verdict and the sweep's
    rows equal those of one depth-first search per n."""
    disconnected = pairs = split = single = 0
    for trial, graph in enumerate(_verdict_cases()):
        rows = [block_digraph_by_dfs(graph, n).verdict
                for n in range(1, len(graph))]
        for row in rows:
            assert n_verdict(graph, row.n) == row, (trial, graph)
            calls = len(tarjan_calls)
            summary = build_transfer_digraph(graph, row.n).scc_summary()
            split += len(tarjan_calls) > calls
            assert (summary.count, summary.sizes) == \
                scc_sizes_by_arcs(graph, row.n), (trial, graph, row.n)
            single += summary.count == row.state_count > 0
            pairs += 1
        per_n = transferability(graph).per_n
        assert list(per_n) == rows[:len(per_n)], (trial, graph)
        disconnected += not rows or not rows[0].transferable
    assert disconnected > 50
    assert 0 < split < pairs
    assert single > 0


def test_cubic_maps_count_their_components_without_tarjan(tarjan_calls,
                                                         verdict_calls):
    """At n = 13 on both 54-vertex cubic maps the trimmed block digraph
    is one component, so the sweep, the single verdict and
    ``scc_summary`` count the 865 and 961 components of the failing n
    with no Tarjan run: one big component and the rest single states.
    The maps have cycles of length 3 and 12 but none of length 4..11,
    so the sweep searches only n = 1, 2, 3, 12 and 13 and carries the
    rest."""
    for rs, big, sccs in ((truncate(hex_torus(3, 3)), 160056, 865),
                          (truncate(hex_klein(3, 3)), 159504, 961)):
        graph = rs.adjacency()
        verdict_calls.clear()
        result = transferability(graph, 13)
        assert verdict_calls == [1, 2, 3, 12, 13]
        verdict = n_verdict(graph, 13)
        assert result.per_n[-1] == verdict
        assert verdict.scc_count == sccs
        assert result.value == 12
        assert build_transfer_digraph(graph, 13).scc_summary().sizes == \
            (big,) + (1,) * (sccs - 1)
    assert tarjan_calls == []


def _carry_cases():
    """Graphs that lack some cycle lengths, so that some levels drop no
    move onto a tail: bipartite ones, cycles, and Petersen."""
    yield "Q3", cube_graph(3)
    yield "grid(2,3)", grid_graph(2, 3)
    yield "grid(3,4)", grid_graph(3, 4)
    yield "C6", cycle_graph(6)
    yield "C8", cycle_graph(8)
    yield "petersen", petersen_graph()
    yield "hex_torus(3,3)", topology(hex_torus(3, 3)).rs.adjacency()
    rng = seeded_rng(1217)
    for trial in range(40):
        yield "bipartite-%d" % trial, random_bipartite_graph(
            rng, rng.randint(1, 5), rng.randint(1, 5), rng.random())


def test_carried_rows_equal_the_searched_verdict(verdict_calls):
    """A sweep row carried without a search, over a level that drops no
    move, equals the single-n verdict and the verdict of one depth-first
    search.  Petersen has no cycle of length 3, 4 or 7, and the
    bipartite hex_torus(3,3) no odd one and none of length 4, so those
    rows are carried while n - 1 is transferable (up to n = 9 there)."""
    carried = {}
    for name, graph in _carry_cases():
        verdict_calls.clear()
        rows = transferability(graph).per_n
        carried[name] = [row.n for row in rows if row.n not in verdict_calls]
        for row in rows:
            assert row == n_verdict(graph, row.n) == \
                block_digraph_by_dfs(graph, row.n).verdict, (name, row.n)
    assert carried["petersen"] == [3, 4, 7]
    assert carried["hex_torus(3,3)"] == [3, 4, 5, 7, 9]


def test_no_carry_onto_the_empty_digraph_past_the_vertex_count():
    """The empty digraph for n >= V is built from no level, so it has no
    count of dropped moves, not a count of zero: on K2 the transferable
    n = 1 must not carry over to n = 2 and 3, which have no n-path."""
    result = transferability(complete_graph(2), 3)
    assert result.per_n == (NPathVerdict(1, True, "", 2, 1),
                            NPathVerdict(2, False, "no-n-path", 0, 0),
                            NPathVerdict(3, False, "no-n-path", 0, 0))
    assert result.value == 1


def test_two_cycles_fall_back_to_tarjan(tarjan_calls):
    """On C4 + C5 nothing is trimmed and the core splits into
    nontrivial components (two, then one per direction round each
    cycle), so Tarjan counts them."""
    graph = _relabelled(cycle_graph(4), "a")
    graph.update(_relabelled(cycle_graph(5), "b"))
    for n, sccs in ((1, 2), (2, 4), (3, 4)):
        calls = len(tarjan_calls)
        verdict = n_verdict(graph, n)
        assert len(tarjan_calls) > calls, n
        assert verdict.scc_count == sccs == build_transfer_digraph(
            graph, n).scc_summary().count, n


def test_sink_cascade_is_the_reverse_of_the_source_cascade():
    """The out-degree-0 cascade of H, trimmed by its own reverse arcs,
    is the image of the in-degree-0 cascade under path reversal."""
    trimmed = 0
    for trial, graph in enumerate(_verdict_cases()):
        for n in range(1, len(graph)):
            dg = build_transfer_digraph(graph, n)
            first, suffix = dg._first.tolist(), suffixes_by_search(dg)[-1]
            nodes = range(len(first) - 1)
            into = [[] for b in nodes]
            for b in nodes:
                for c in suffix[first[b]:first[b + 1]]:
                    into[c].append(b)
            out = [first[b + 1] - first[b] for b in nodes]
            sinks = [b for b in nodes if not out[b]]
            for c in sinks:
                for b in into[c]:
                    out[b] -= 1
                    if not out[b]:
                        sinks.append(b)
            prev = dg._prev
            reversed_sources = [
                b if prev is None else
                prev.index_of(prev.state_at(b).reverse())
                for b in _sources(dg._first, dg._runs)]
            assert sorted(sinks) == sorted(reversed_sources), (trial, n)
            trimmed += len(sinks)
    assert trimmed > 0


def _trim_cases():
    for graph in _verdict_cases():
        yield graph, range(1, len(graph) + 1)
    for _, graph in _carry_cases():
        yield graph, range(1, len(graph) + 1)
    for rs in (truncate(hex_torus(3, 3)), truncate(hex_klein(3, 3))):
        yield rs.adjacency(), (12, 13)
    yield truncate(tri_torus(4, 4)).adjacency(), (10, 13)


def test_trimming_and_reach_match_the_per_state_oracle():
    """On the runs, the source cascade (in trimming order) and both
    forward searches of ``scc_summary`` equal those walked arc by arc
    on per-state lists.  Cases include the empty digraph of n = V,
    with no node and no component, n = 1, where reversal is the
    identity on vertices, cores that one search covers and cores it
    leaves short, and the heavily trimmed truncate(tri_torus(4,4))."""
    empty = identity = covered = short = 0
    for graph, ns in _trim_cases():
        for n in ns:
            dg = build_transfer_digraph(graph, n)
            first, suffix = dg._first.tolist(), suffixes_by_search(dg)[-1]
            sources = _sources(dg._first, dg._runs)
            assert sources == sources_by_arcs(first, suffix), (graph, n)
            prev = dg._prev

            def rev(b):
                return b if prev is None else \
                    prev.index_of(prev.state_at(b).reverse())

            trim = bytearray(len(first) - 1)
            for b in sources:
                trim[b] = trim[rev(b)] = 1
            x = trim.find(0)
            if not suffix:
                empty += 1
                assert dg.scc_summary().count == 0, (graph, n)
            for y in () if x < 0 else (x, rev(x)):
                reached = _reach(dg._first, dg._runs, trim, y)
                assert reached == reach_by_arcs(first, suffix, trim, y), \
                    (graph, n, y)
                identity += n == 1
                covered += reached == trim.count(0)
                short += reached < trim.count(0)
    assert empty > 0 and identity > 0 and covered > 0 and short > 0


def test_scc_summary_peaks_little_above_the_chain():
    """At n = 13 on truncate(hex_torus(3,3)) the chain holds less than
    8 bytes per state of levels 1..13 (374 814 states): per state a
    level keeps only its head, and reads suffixes and tails off its runs
    and tail-run bounds.  Counting the components allocates less than
    1 MiB above that chain: no per-state list is built when the core is
    one component, and trimming keeps no per-node in-degree list."""
    graph = truncate(hex_torus(3, 3)).adjacency()
    tracemalloc.start()
    try:
        dg = build_transfer_digraph(graph, 13)
        chain = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summary = dg.scc_summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = sum(level.state_count for level in dg._levels())
    assert states == 374_814
    assert chain < 8 * states, chain / states
    assert summary.count == 865
    assert peak - chain < 1 << 20, (peak - chain) / (1 << 20)


def test_scc_summary_trims_in_under_8_bytes_per_node():
    """At n = 13 on truncate(tri_torus(4,4)) H has 423 936 nodes and
    trimming splits the transfer digraph into 10 369 components.
    Counting them allocates less than 8 bytes per node of H: one trim
    flag per node, with in-degrees kept only at the nodes the trimming
    reaches and the cut summed over the trimmed nodes alone."""
    dg = build_transfer_digraph(truncate(tri_torus(4, 4)).adjacency(), 13)
    nodes = len(dg._first) - 1
    tracemalloc.start()
    try:
        summary = dg.scc_summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 423_936
    assert summary.count == 10_369
    assert peak < 8 * nodes, peak / nodes


def test_trees_leave_an_empty_core(tarjan_calls):
    """On a tree an n-path turns round only at n = 1, back along its
    edge; from n = 2 its head walks on without backtracking and never
    returns, so H has no cycle, trimming leaves no core and each state
    is a component alone."""
    star = star_graph(5)
    for graph in (path_graph(7), star):
        assert n_verdict(graph, 1).scc_count == 1
        for n in range(2, len(graph)):
            verdict = n_verdict(graph, n)
            assert verdict.scc_count == verdict.state_count, n
    assert n_verdict(star, 2).state_count == 20
    assert tarjan_calls == []


def test_budget_charges_each_level_as_the_path_search_did():
    """Levels 1..12 hold 213 894 states and levels 1..13 hold 374 814,
    the extensions a depth-first search makes to reach depth 12 and 13;
    a sweep truncates at the first n whose levels exceed the budget."""
    th33 = truncate(hex_torus(3, 3)).adjacency()
    got = [transferability(th33, 13, budget=b).truncated_at
           for b in (213_893, 213_894, 374_813, 374_814)]
    assert got == [12, 13, 13, None]
    with pytest.raises(BudgetError) as info:
        n_verdict(th33, 13, budget=374_813)
    assert info.value.count == 374_814
    assert "more than 374813 path extensions" in str(info.value)


@pytest.mark.parametrize("k", [5, 300])
def test_index_of_rejects_what_is_not_a_state(k):
    """Without a state dict ``index_of`` still raises ValueError for a
    vertex not in the graph, a sequence that is not a path and a path
    of the wrong length, on fewer and more than 256 vertices."""
    graph = cycle_graph(k)
    dg = build_transfer_digraph(graph, 2)
    for i in range(dg.state_count):
        assert dg.index_of(dg.state_at(i)) == i
    top = ["c%d" % i for i in range(k - 1, k - 5, -1)]
    wrong = [("c0", "c1", "nowhere"),  # not a vertex
             ("c0", "c2", "c4"),  # not a path
             ("c0", "c1"),  # too short
             tuple(top)]  # too long, and after every state when k = 5
    for vertices in wrong:
        with pytest.raises(ValueError, match="is not a 2-path"):
            dg.index_of(PathState(vertices))


def test_levels_hold_vertices_past_16_bits():
    """Level arrays switch from 16-bit vertex ids when V exceeds 65 536."""
    dg = build_transfer_digraph(path_graph(70000), 2)
    assert dg.state_count == 2 * 69998
    for i in (0, 12345, dg.state_count - 1):
        assert dg.index_of(dg.state_at(i)) == i
    assert dg.state_at(dg.state_count - 1).vertices == \
        ("p9999", "p9998", "p9997")


def test_wide_levels_answer_alike(monkeypatch):
    """Forced to the wide typecode of more than 65 536 vertices, the
    levels give the same sweeps, stuck searches (refused chains too),
    DOT lines, states and component counts on three cubic maps and K7,
    and the chain readers still match the copying oracle."""
    cases = [(truncate(hex_torus(3, 3)), 13, 10),
             (truncate(tri_torus(4, 4)), 10, 6),
             (truncate(tetrahedron()), 11, 7), (k7_torus(), 6, 4)]

    def refused(graph, n, anchor):
        # a budget one short of the chain: the search goes on past the
        # first start with the count it left there
        chain = build_transfer_digraph(graph, n)._levels()
        try:
            return find_stuck(graph, n, anchor,
                              sum(level.state_count for level in chain) - 1)
        except BudgetError as exc:
            return str(exc), exc.count

    def answers():
        out = []
        for rs, max_n, dot_n in cases:
            graph = rs.adjacency()
            anchor = max(graph)
            dg = build_transfer_digraph(graph, dot_n)
            out.append((transferability(graph, max_n),
                        [find_stuck(graph, n) for n in range(1, max_n + 1)],
                        [refused(graph, n, anchor) for n in (max_n - 1,
                                                              max_n)],
                        list(dg.dot_lines()), dg.state_at(-1),
                        dg.scc_summary()))
        return out

    narrow = answers()
    init = _Space.__init__

    def wide(self, graph):
        init(self, graph)
        self.typecode = "i"

    monkeypatch.setattr(_Space, "__init__", wide)
    assert build_transfer_digraph(cycle_graph(5), 2)._head.typecode == "i"
    assert answers() == narrow
    test_chain_readers_match_the_copying_oracle()


def test_dot_lines_join_to_to_dot():
    for graph, n in ((complete_graph(4), 2), (petersen_graph(), 3),
                     (cycle_graph(5), 1)):
        dg = build_transfer_digraph(graph, n)
        lines = list(dg.dot_lines())
        assert "".join(lines) == dg.to_dot()
        assert all(line.endswith("\n") and line.count("\n") == 1
                   for line in lines)
        assert len(lines) == dg.state_count + dg.arc_count + 2


def test_digraph_round_trip():
    dg = build_transfer_digraph(complete_graph(4), 2)
    for i in range(dg.state_count):
        s = dg.state_at(i)
        assert dg.index_of(s) == i
        succ = {dg.state_at(j).vertices for j in dg.successors_of(i)}
        assert succ == {t.vertices for t in steps(complete_graph(4), s)}


def test_state_indices_behave_like_a_sequence():
    """``state_at`` and ``successors_of`` take an index as a sequence
    does: -k means state_count - k, and an index past either end raises
    IndexError, at n = 1, on levels of several runs, and on the empty
    digraph of n = V."""
    cases = ((complete_graph(4), 1), (petersen_graph(), 3),
             (cycle_graph(300), 2), (cycle_graph(5), 5))
    for graph, n in cases:
        dg = build_transfer_digraph(graph, n)
        count = dg.state_count
        for k in range(1, min(count, 3) + 1):
            assert dg.state_at(-k) == dg.state_at(count - k), (n, k)
            assert dg.successors_of(-k) == dg.successors_of(count - k), \
                (n, k)
        for i in (count, count + 1, -count - 1):
            with pytest.raises(IndexError):
                dg.state_at(i)
            with pytest.raises(IndexError):
                dg.successors_of(i)


def test_chain_readers_match_the_copying_oracle():
    """``_walks`` reads every state's vertices, ``_find`` finds each
    state and each state's reverse at the copying oracle's index, and
    ``_labels`` gives the oracle's paths in ``enumerate_paths`` and the
    DOT state lines: on the random graphs at every n up to V (the empty
    digraph of n = V included) and on both cubic maps at n = 12."""
    cases = [(name, graph, n) for name, graph, _ in _random_cases()
             for n in range(1, len(graph) + 1)]
    cases += [(name, rs.adjacency(), 12) for name, rs in
              (("th33", truncate(hex_torus(3, 3))),
               ("hk33", truncate(hex_klein(3, 3))))]
    for name, graph, n in cases:
        space = _Space(graph)
        states = list(iter_states_by_copies(space, n, DEFAULT_BUDGET))
        index = {p: i for i, p in enumerate(states)}
        dg = build_transfer_digraph(graph, n)
        walks = dg._walks(range(dg.state_count))
        assert list(zip(*walks)) == states, (name, n)
        assert dg._find(walks) == list(range(len(states))), (name, n)
        assert dg._find(walks[::-1]) == [index[p[::-1]] for p in states], \
            (name, n)
        assert enumerate_paths(graph, n) == tuple(map(space.decode, states))
        labels = [",".join(map(str, space.decode(p).vertices))
                  for p in states]
        lines = list(itertools.islice(dg.dot_lines(), 1, len(states) + 1))
        assert lines == ['  "%s";\n' % label for label in labels], (name, n)


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
    with pytest.raises(StructureError):  # checked before n >= V returns
        find_stuck(complete_graph(4), 4, anchor="nope")
    with pytest.raises(ValueError):
        find_stuck(complete_graph(4), 0)


def test_longest_path_bound():
    """Without ``max_n`` the sweep stops at the first n with no n-path
    and leaves that row out, so its bound is the longest path length."""
    assert transferability(complete_graph(4)).search_bound == 3
    assert transferability(cycle_graph(5)).search_bound == 4
    hex33 = topology(hex_torus(3, 3)).rs.adjacency()
    result = transferability(hex33)
    assert result.search_bound == 17  # a Hamiltonian path on 18 vertices
    assert [r.n for r in result.per_n] == list(range(1, 18))
    assert result.truncated_at is None


def _random_cases():
    rng = seeded_rng(611)
    for trial in range(40):
        yield "random-%d" % trial, random_connected_graph(
            rng, 1 + trial % 10), rng


def _first_stuck_by_copies(space, n, order):
    for p in iter_states_by_copies(space, n, DEFAULT_BUDGET, order):
        if not moves_by_scan(space, p):
            return space.decode(p)
    return None


def test_stuck_search_matches_the_copying_oracle():
    """``find_stuck`` returns the first state of the copying oracle with
    no legal move, in lexicographic and in anchored start order; the
    oracle finds stuck states in some cases and none in others."""
    cases = [(name, graph, range(1, len(graph) + 1),
              rng.choice(sorted(graph)))
             for name, graph, rng in _random_cases()]
    cases.append(("C300", cycle_graph(300), (1, 2, 150, 299), "c150"))
    found = []
    for name, graph, lengths, anchor in cases:
        space = _Space(graph)
        dist = networkx.single_source_shortest_path_length(
            networkx.from_dict_of_lists(graph), anchor)
        # nearest the anchor first, unreachable vertices last, by index
        anchored = sorted(range(len(space.names)), key=lambda i: (
            dist.get(space.names[i], len(space.names)), i))
        for n in lengths:
            for order, key in ((None, None), (anchored, anchor)):
                path = _first_stuck_by_copies(space, n, order)
                expected = None if path is None else \
                    StuckWitness(path=path, anchor=key)
                assert find_stuck(graph, n, anchor=key) == expected, \
                    (name, n, key)
                found.append(path is not None)
    assert any(found) and not all(found)


def test_stuck_search_charges_every_extension():
    """With no stuck 12-path the search makes 213 894 extensions on the
    truncated hexagonal torus, one per state of levels 1..12; anchored at
    its smallest vertex, the stuck 13-path is the 64th extension."""
    th33 = truncate(hex_torus(3, 3)).adjacency()
    with pytest.raises(BudgetError) as info:
        find_stuck(th33, 12, budget=213_893)
    assert info.value.count == 213_894
    assert str(info.value) == (
        "more than 213893 path extensions while enumerating directed "
        "12-paths; raise the budget to enumerate them")
    assert find_stuck(th33, 12, budget=213_894) is None
    anchor = min(th33)
    with pytest.raises(BudgetError) as info:
        find_stuck(th33, 13, anchor=anchor, budget=63)
    assert info.value.count == 64
    witness = find_stuck(th33, 13, anchor=anchor, budget=64)
    assert witness == find_stuck(th33, 13, anchor=anchor)
    assert witness.path.vertices[0] == anchor
    assert len(witness.path.vertices) == 14
    assert steps(th33, witness.path) == []


def test_stuck_search_resumes_where_the_budget_refuses_the_chain(
        monkeypatch):
    """Past the first start ``find_stuck`` builds the level chain,
    charged every state of levels 1..n, and asks it only whether a block
    is empty; when one is, or when the budget refuses the chain, the one
    depth-first search goes on with the second start, its count where
    the first start left it.  Where only a later start has a stuck path,
    a budget of exactly the extensions a depth-first search makes up to
    it returns the default witness, and one less raises with that count.
    The cases take every route: a witness from the first start, a chain
    with no empty block, an empty block then the search, and a refused
    chain."""
    module = sys.modules[transferability.__module__]
    grow, matches = module._grow, module._matches
    routes, taken, later = [], set(), 0

    def traced_grow(*args):
        try:
            chain = grow(*args)
        except BudgetError:
            routes.append("refused")
            raise
        routes.append("chain")
        return chain

    def traced_matches(*args):
        found = matches(*args)
        if routes[-1:] == ["chain"]:  # the first call past the chain
            routes.append("empty block" if found else "none")
        return found

    def route(n, graph, budget=DEFAULT_BUDGET):
        routes.clear()
        witness = find_stuck(graph, n, budget=budget)
        taken.add(routes[-1] if routes else "first")
        return witness

    monkeypatch.setattr(module, "_grow", traced_grow)
    monkeypatch.setattr(module, "_matches", traced_matches)
    for name, graph, _ in _random_cases():
        space = _Space(graph)
        for n in range(1, len(graph)):
            witness = route(n, graph)
            path, count = stuck_by_dfs(space, n)
            assert witness == (None if path is None else
                               StuckWitness(space.decode(path))), (name, n)
            if path is None or path[0] == 0:
                continue
            later += 1
            assert route(n, graph, budget=count) == witness, (name, n)
            with pytest.raises(BudgetError) as info:
                route(n, graph, budget=count - 1)
            assert info.value.count == count, (name, n)
            assert str(info.value) == (
                "more than %d path extensions while enumerating directed "
                "%d-paths; raise the budget to enumerate them"
                % (count - 1, n)), (name, n)
    assert taken == {"first", "none", "empty block", "refused"}, taken
    assert later > 0


def test_tail_moves_match_the_index_scan():
    """``_tail_moves`` finds the moves onto a tail by a byte search of
    the heads' raw bytes and equals the ``array.index`` scan: on levels
    1..13 of both cubic maps, on 32-bit heads past 65 536 vertices, and
    on a level where heads 256 then 1 in tail run 0 hold the bytes of
    257, a neighbour of vertex 0, across two 16-bit items."""
    edges = ((0, 2), (0, 3), (0, 256), (0, 257), (2, 256), (1, 3))
    graph = {v: [] for v in range(300)}
    for u, w in edges:
        graph[u].append(w)
        graph[w].append(u)
    level = build_transfer_digraph(graph, 2)
    raw = level._head.tobytes()
    assert level._head[:3] == array("H", [256, 1, 2])
    assert raw.find(array("H", [257]).tobytes(), 0, 6) == 1
    adj = level._space.adj
    assert (level._bounds.tolist(), _tail_moves(adj, level)) == \
        tail_moves_by_index(adj, level)
    assert _tail_moves(adj, level)[:2] == [0, 2]
    levels = [build_transfer_digraph(path_graph(70000), 1)]
    assert levels[0]._head.typecode == "i"
    for rs in (truncate(hex_torus(3, 3)), truncate(hex_klein(3, 3))):
        levels += build_transfer_digraph(rs.adjacency(), 13)._levels()
    for level in levels:
        adj = level._space.adj
        assert (level._bounds.tolist(), _tail_moves(adj, level)) == \
            tail_moves_by_index(adj, level)


def test_search_bound_is_the_longest_path():
    for name, graph, _ in _random_cases():
        assert transferability(graph).search_bound == \
            longest_path_bound(graph), name


def test_budget_enforcement():
    assert DEFAULT_BUDGET == 5_000_000
    with pytest.raises(BudgetError) as info:
        build_transfer_digraph(petersen_graph(), 6, budget=50)
    assert info.value.count > 50
    # the budget charges every extension, prefixes included: Petersen
    # has 60 directed 2-paths, reached by 30 + 60 extensions
    assert len(enumerate_paths(petersen_graph(), 2, budget=90)) == 60
    with pytest.raises(BudgetError) as info:
        enumerate_paths(petersen_graph(), 2, budget=89)
    assert info.value.count == 90
    assert "more than 89 path extensions" in str(info.value)
    # the default sweep truncates too: 30 directed edges exceed 10
    result = transferability(petersen_graph(), budget=10)
    assert (result.truncated_at, result.per_n) == (1, ())
    assert (result.value, result.search_bound) == (0, 0)
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


def test_no_search_when_n_reaches_the_vertex_count():
    """A simple n-path needs n + 1 distinct vertices, so for n >= V the
    answer needs no search.  K11 has about 10^8 shorter simple paths,
    which a search would walk without ever charging the budget."""
    def searched(signum, frame):
        raise TimeoutError

    k11 = complete_graph(11)
    old = signal.signal(signal.SIGALRM, searched)
    signal.alarm(10)
    try:
        got = (n_verdict(k11, 11), n_verdict(k11, 200, budget=1),
               enumerate_paths(k11, 11), find_stuck(k11, 11))
    except TimeoutError:
        got = "still searching for n-paths after 10 s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert got == (NPathVerdict(11, False, "no-n-path", 0, 0),
                   NPathVerdict(200, False, "no-n-path", 0, 0), (), None)
    assert len(enumerate_paths(complete_graph(4), 3)) == 24


def test_budget_trips_early_when_n_is_one_below_the_vertex_count():
    """At n = V - 1 the search walks every shorter simple path before it
    reaches depth n.  Those prefixes are charged, so a small budget
    trips at once on the 54-vertex truncated hexagonal torus."""
    def searched(signum, frame):
        raise TimeoutError

    th33 = truncate(hex_torus(3, 3)).adjacency()
    calls = (lambda: n_verdict(th33, 53, budget=1000),
             lambda: find_stuck(th33, 53, budget=1000),
             lambda: enumerate_paths(th33, 53, budget=1000))
    got = []
    old = signal.signal(signal.SIGALRM, searched)
    signal.alarm(10)
    try:
        for call in calls:
            try:
                call()
                got.append("returned")
            except BudgetError as exc:
                got.append(exc.count)
    except TimeoutError:
        got.append("still searching for 53-paths after 10 s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert got == [1001, 1001, 1001]
