"""Simplicity, closed 2-cells, wheel neighborhoods, 3-connectivity."""

import itertools
import random

import hypothesis
import hypothesis.strategies as st
import networkx
import pytest

import polymap.validity
from conftest import (base_corpus, cycle_graph, pairs_3_connected, perturb,
                      random_connected_graph, random_cubic_graph, seeded_rng,
                      subdivide, wheel_by_arcs)
from polymap.generators import (hex_klein, hex_torus, tetrahedron, tri_torus,
                                truncate)
from polymap.surface_map import RotationSystem, topology
from polymap.validity import (check_3_connected, check_closed_2cell,
                              check_polyhedral, check_simple_map,
                              check_wheel_neighborhood)


def theta_map():
    """Two vertices joined by three parallel edges."""
    return RotationSystem({"a": ["e1", "e2", "e3"], "b": ["e3", "e2", "e1"]})


def loop_map():
    return RotationSystem({"a": ["e", "e", "f"], "b": ["f", "g", "g"]})


def doubled_edge_k4():
    """K4 with one edge doubled, embedded naively."""
    return RotationSystem({
        "a": ["ab", "ab2", "ac", "ad"],
        "b": ["ab", "ab2", "bc", "bd"],
        "c": ["ac", "bc", "cd"],
        "d": ["ad", "bd", "cd"],
    })


def subdivided_tetrahedron():
    base = tetrahedron()
    rot = {v: [d.edge for d in base.rotation[v]] for v in base.vertices}
    # split one edge with a degree-2 vertex
    edge = rot["0"][0]
    rot["0"][0] = edge + "a"
    other = base.endpoints(edge)[1] if base.endpoints(edge)[0] == "0" else base.endpoints(edge)[0]
    rot[other][rot[other].index(edge)] = edge + "b"
    rot["z"] = [edge + "a", edge + "b"]
    return RotationSystem(rot)


def test_corpus_is_polyhedral(corpus_tops):
    for name, top in corpus_tops.items():
        report = check_polyhedral(top)
        assert report.polyhedral, (name, report.witnesses)
        assert report.is_simple and report.min_degree_ok
        assert report.closed_2cell and report.wheel_neighborhood
        assert report.three_connected
        assert report.witnesses == ()


def test_loops_and_parallel_edges_are_flagged():
    simple, degree_ok, witness = check_simple_map(topology(loop_map()))
    assert not simple and witness[0] == "loop"
    simple, _, witness = check_simple_map(topology(theta_map()))
    assert not simple and witness[0] == "parallel_edges"
    simple, _, witness = check_simple_map(topology(doubled_edge_k4()))
    assert not simple and witness[0] == "parallel_edges"


def test_degree_below_three_is_flagged():
    top = topology(subdivided_tetrahedron())
    simple, degree_ok, witness = check_simple_map(top)
    assert simple
    assert not degree_ok and witness[0] == "degree_below_3"


def test_closed_2cell_detects_vertex_repeats():
    # a one-vertex map: every face walk revisits the vertex
    bouquet = RotationSystem({"a": ["e", "f", "e", "f"]})
    ok, witness = check_closed_2cell(topology(bouquet))
    assert not ok and witness[0] == "face_vertex_repeat"
    ok, witness = check_closed_2cell(topology(tetrahedron()))
    assert ok and witness is None


def test_wheel_rejects_theta_and_doubled_edges():
    ok, witness = check_wheel_neighborhood(topology(theta_map()))
    assert not ok
    ok, witness = check_wheel_neighborhood(topology(doubled_edge_k4()))
    assert not ok


def test_polyhedral_verdict_on_degenerates():
    for rs in (theta_map(), loop_map(), doubled_edge_k4(),
               subdivided_tetrahedron()):
        report = check_polyhedral(topology(rs))
        assert not report.polyhedral
        assert report.witnesses


def test_3_connectivity_small_cases():
    ok, witness = check_3_connected({"a": ("b",), "b": ("a",)})
    assert not ok  # below four vertices
    path4 = {"a": ("b",), "b": ("a", "c"), "c": ("b", "d"), "d": ("c",)}
    ok, witness = check_3_connected(path4)
    assert not ok and len(witness) == 2
    k4 = topology(tetrahedron()).rs.adjacency()
    ok, witness = check_3_connected(k4)
    assert ok and witness is None


def test_3_connectivity_against_networkx():
    rng = seeded_rng(7)
    for trial in range(30):
        adj = random_connected_graph(rng, rng.randint(4, 10),
                                     extra_edge_prob=rng.choice((0.2, 0.4, 0.7)))
        graph = networkx.Graph((u, w) for u, row in adj.items() for w in row)
        want = networkx.node_connectivity(graph) >= 3
        got, witness = check_3_connected(adj)
        assert got == want, (trial, adj)
        if not got and len(graph) >= 4 and networkx.is_connected(graph):
            # the witness pair must actually disconnect the graph
            rest = graph.copy()
            rest.remove_nodes_from(witness)
            if rest:
                assert not networkx.is_connected(rest)


def test_wheel_on_corpus_perturbations_implies_polyhedral_parts(corpus):
    """check_polyhedral cross-checks wheel => 3-connected, closed 2-cell,
    simple and minimum degree 3 internally; it must never raise on
    structurally valid rotation systems."""
    rng = seeded_rng(8)
    small = [rs for rs in corpus.values() if len(rs.vertices) <= 20]
    for _ in range(40):
        rs = perturb(small[rng.randrange(len(small))], rng, moves=2)
        report = check_polyhedral(topology(rs))
        if report.wheel_neighborhood:
            assert report.three_connected and report.closed_2cell
            assert report.is_simple and report.min_degree_ok


def random_graph(rng, num_vertices, edge_prob, loop_prob):
    """A symmetric graph, possibly disconnected, with self-loops."""
    vs = ["r%d" % i for i in range(num_vertices)]
    adj = {v: set() for v in vs}
    for u, w in itertools.combinations_with_replacement(vs, 2):
        if rng.random() < (loop_prob if u == w else edge_prob):
            adj[u].add(w)
            adj[w].add(u)
    return {v: tuple(sorted(row)) for v, row in adj.items()}


def test_3_connectivity_witness_matches_pair_deletion_on_random_graphs():
    """Verdict and witness equal the brute-force pair loop's: sizes 1 to
    11, sparse (pendant vertices, disconnected) to dense, with loops."""
    rng = seeded_rng(9)
    for trial in range(1500):
        graph = random_graph(rng, rng.randint(1, 11),
                             rng.choice((0.15, 0.3, 0.5, 0.8)),
                             rng.choice((0.0, 0.3)))
        assert check_3_connected(graph) == pairs_3_connected(graph), \
            (trial, graph)


def test_3_connectivity_lone_vertex_piece_does_not_separate():
    """G - a has two pieces, the lone pendant b and a K4, so {a, b}
    leaves the K4 connected and the first separating pair is {a, c};
    with a third piece {a, b} separates."""
    k4 = "cdef"
    graph = {"a": ("b", "c", "d"), "b": ("a",)}
    for v in k4:
        graph[v] = tuple(w for w in k4 if w != v) + (("a",) if v in "cd"
                                                     else ())
    assert check_3_connected(graph) == pairs_3_connected(graph) \
        == (False, ("a", "c"))
    # the same shape with the lone vertex last in sorted order
    relabel = {"a": "a", "b": "z", "c": "c", "d": "d", "e": "e", "f": "f"}
    moved = {relabel[v]: tuple(relabel[w] for w in row)
             for v, row in graph.items()}
    assert check_3_connected(moved) == pairs_3_connected(moved)
    # G - a has three pieces, the lone b and two K4s that a joins by two
    # edges each, so {a, b} separates the K4s
    graph = {"a": ("b", "c", "d", "g", "h"), "b": ("a",)}
    for k4 in ("cdef", "ghij"):
        for v in k4:
            graph[v] = tuple(w for w in k4 if w != v)
            if v in "cdgh":
                graph[v] += ("a",)
    assert check_3_connected(graph) == pairs_3_connected(graph) \
        == (False, ("a", "b"))


def test_3_connectivity_witness_on_every_subdivided_edge():
    host = hex_torus(4, 4)
    for edge in host.edges:
        graph = subdivide(host, edge, 1).adjacency()
        got = check_3_connected(graph)
        assert got == pairs_3_connected(graph), edge
        assert not got[0] and got[1]


def test_3_connectivity_witness_on_perturb_mutants():
    rng = seeded_rng(10)
    small = [rs for rs in base_corpus().values() if len(rs.vertices) <= 40]
    small += [truncate(rs) for rs in small if len(rs.vertices) <= 10]
    for _ in range(50):
        rs = perturb(small[rng.randrange(len(small))], rng,
                     moves=rng.randint(1, 3))
        graph = rs.adjacency()
        assert check_3_connected(graph) == pairs_3_connected(graph)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.integers(0, 9),
                  st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                           max_size=30))
def test_3_connectivity_property(num_vertices, pairs):
    graph = {v: set() for v in range(num_vertices)}
    for u, w in pairs:
        if u < num_vertices and w < num_vertices:
            graph[u].add(w)
            graph[w].add(u)
    assert check_3_connected(graph) == pairs_3_connected(graph)


def test_separation_pair_test_on_every_small_graph():
    """Verdict and witness equal the brute-force pair loop's on all
    33,856 labelled graphs on 4 to 6 vertices."""
    total = 0
    for num in (4, 5, 6):
        pairs = list(itertools.combinations(range(num), 2))
        for mask in range(1 << len(pairs)):
            graph = {v: [] for v in range(num)}
            for k, (u, w) in enumerate(pairs):
                if mask >> k & 1:
                    graph[u].append(w)
                    graph[w].append(u)
            assert check_3_connected(graph) == pairs_3_connected(graph), \
                graph
            total += 1
    assert total == 33856


@st.composite
def glued_blocks(draw):
    """Two or more wheels with chords, glued on two shared vertices s and
    t, with optional cross edges and the vertex names shuffled.  Unless
    a cross edge joins two blocks, {s, t} separates them."""
    edges = []
    size = 2  # vertex 0 is s, vertex 1 is t
    for _ in range(draw(st.integers(2, 4))):
        rim = draw(st.integers(3, 6))
        block = list(range(rim + 1))  # hub 0, rim 1..rim
        wheel = [(0, i) for i in range(1, rim + 1)]
        wheel += [(i, i % rim + 1) for i in range(1, rim + 1)]
        wheel += draw(st.lists(st.tuples(st.sampled_from(block),
                                         st.sampled_from(block)),
                               max_size=3))
        shared = draw(st.permutations(block))
        place = {shared[0]: 0, shared[1]: 1}
        for v in shared[2:]:
            place[v] = size
            size += 1
        edges += [(place[u], place[w]) for u, w in wheel]
    edges += draw(st.lists(st.tuples(st.integers(0, size - 1),
                                     st.integers(0, size - 1)), max_size=2))
    names = draw(st.permutations(["g%02d" % i for i in range(size)]))
    graph = {v: set() for v in names}
    for u, w in edges:
        graph[names[u]].add(names[w])
        graph[names[w]].add(names[u])
    return graph


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(glued_blocks())
def test_3_connectivity_on_glued_blocks(graph):
    assert check_3_connected(graph) == pairs_3_connected(graph)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(st.integers(2, 11), st.integers(0, 2 ** 32))
def test_3_connectivity_on_random_cubic_graphs(half, seed):
    graph = random_cubic_graph(random.Random(seed), 2 * half)
    assert check_3_connected(graph) == pairs_3_connected(graph)


def test_3_connected_maps_never_fall_back(monkeypatch):
    """A 3-connected map is accepted by one depth-first search: the
    witness loop, which searches G - u for each marked u, never runs."""
    calls = []
    search = polymap.validity._dfs

    def counted(adj, root, pre):
        calls.append(root)
        return search(adj, root, pre)
    monkeypatch.setattr(polymap.validity, "_dfs", counted)
    for rs in (hex_torus(14, 14), tri_torus(12, 12), hex_klein(10, 10),
               truncate(hex_torus(6, 6)), hex_torus(30, 30)):
        calls.clear()
        assert check_3_connected(rs.adjacency()) == (True, None)
        assert len(calls) == 1


@pytest.mark.parametrize("size", [10, 30])
def test_witness_is_named_from_the_one_tree(monkeypatch, size):
    """A map that fails only for want of a separating pair names the
    first one from the tree that found it: with the first, middle or
    last edge of hex_torus subdivided, the witness is that edge's ends
    and ``_dfs`` runs at most three times (on G, on G - u, and on the
    second piece of G - u)."""
    calls = []
    search = polymap.validity._dfs

    def counted(adj, root, pre):
        calls.append(root)
        return search(adj, root, pre)
    monkeypatch.setattr(polymap.validity, "_dfs", counted)
    host = hex_torus(size, size)
    edges = sorted(host.edges)
    for edge in (edges[0], edges[len(edges) // 2], edges[-1]):
        calls.clear()
        assert check_3_connected(subdivide(host, edge, 1).adjacency()) == \
            (False, tuple(sorted(host.endpoints(edge)))), edge
        assert len(calls) <= 3, (edge, len(calls))


def test_cut_vertex_names_its_pair_at_vertex_0_or_1(monkeypatch):
    """A graph with a cut vertex has its first separating pair at vertex
    0 or vertex 1, so only those two are tried: hex_torus(30, 30) plus
    one pendant vertex, hung near the first vertex or far from it and
    named to sort last or first, gives the pair in at most four
    ``_dfs`` runs."""
    calls = []
    search = polymap.validity._dfs

    def counted(adj, root, pre):
        calls.append(root)
        return search(adj, root, pre)
    monkeypatch.setattr(polymap.validity, "_dfs", counted)
    host = hex_torus(30, 30).adjacency()
    cases = [("z", "a0.0", ("a0.0", "a0.1")),
             ("z", "b29.29", ("a0.0", "b29.29")),
             ("a", "b29.29", ("a0.0", "b29.29")),
             ("a", "a0.0", ("a0.0", "a0.1"))]
    for pendant, cut, pair in cases:
        graph = {v: list(ws) for v, ws in host.items()}
        graph[pendant] = [cut]
        graph[cut].append(pendant)
        calls.clear()
        assert check_3_connected(graph) == (False, pair), (pendant, cut)
        assert len(calls) <= 4, (pendant, cut, len(calls))


def _theta_graph(lengths):
    """Hubs x and y joined by one path per entry of ``lengths``, through
    that many inner vertices."""
    graph = {"x": [], "y": []}
    for i, k in enumerate(lengths):
        path = ["x"] + ["t%d.%d" % (i, j) for j in range(k)] + ["y"]
        for u, w in zip(path, path[1:]):
            graph.setdefault(u, []).append(w)
            graph.setdefault(w, []).append(u)
    return graph


def _wheel_graph(spokes):
    """A hub and a rim of len(spokes) vertices, spoke i subdivided
    spokes[i] times."""
    rim = ["r%d" % i for i in range(len(spokes))]
    graph = {v: [] for v in ["h"] + rim}
    for i, k in enumerate(spokes):
        path = ["h"] + ["s%d.%d" % (i, j) for j in range(k)] + [rim[i]]
        for u, w in list(zip(path, path[1:])) + [(rim[i], rim[i - 1])]:
            graph.setdefault(u, []).append(w)
            graph.setdefault(w, []).append(u)
    return graph


def test_3_connectivity_where_most_pairs_separate(monkeypatch):
    """Verdict and witness equal the brute-force pair loop's where
    most vertex pairs separate: cycles C4 to C24, theta graphs with
    subdivided paths and wheels with subdivided spokes, each under
    three seeded relabellings, so the tree is rooted both in a pair and
    outside every pair.  The vertices the tree marks are exactly those
    that lie in a separating pair, or the root alone when it lies in
    one, and no pair is left unmarked."""
    marks = []
    mark = polymap.validity._separating_vertices
    monkeypatch.setattr(polymap.validity, "_separating_vertices",
                        lambda *tree: marks.append(mark(*tree)) or marks[-1])
    graphs = [cycle_graph(n) for n in range(4, 25)]
    graphs += [_theta_graph(lengths) for paths in (3, 4, 5)
               for lengths in itertools.combinations_with_replacement(
                   (1, 2, 3), paths)]
    graphs += [_wheel_graph(spokes) for rim in range(3, 7)
               for spokes in ((1,) * rim, (2,) + (0,) * (rim - 1),
                              (0, 1) * (rim // 2) + (2,) * (rim % 2),
                              tuple(range(rim)))]
    rng = seeded_rng(12)
    rooted_outside = 0
    for graph in graphs:
        for _ in range(3):
            names = list(graph)
            rng.shuffle(names)
            relabel = dict(zip(graph, names))
            moved = {relabel[v]: [relabel[w] for w in row]
                     for v, row in graph.items()}
            marks.clear()
            got = check_3_connected(moved)
            assert got == pairs_3_connected(moved), moved
            assert not got[0]
            nx_graph = networkx.Graph(
                [(v, w) for v, row in moved.items() for w in row])
            inside = {v for pair in itertools.combinations(nx_graph, 2)
                      if not networkx.is_connected(nx_graph.subgraph(
                          set(nx_graph) - set(pair))) for v in pair}
            names = sorted(moved)
            root = names[0]
            assert [{names[i] for i in m} for m in marks] == \
                [{root} if root in inside else inside], moved
            rooted_outside += root not in inside
    assert rooted_outside >= 40


@pytest.fixture(scope="module")
def wheel_tops(corpus):
    """The corpus, 300 seeded perturb mutants of its smaller members,
    every edge of hex_torus(4,4) subdivided 1 to 3 times, the hand-built
    degenerate maps, and a triangle on the sphere."""
    maps = list(corpus.values())
    rng = seeded_rng(11)
    small = [rs for rs in corpus.values() if len(rs.vertices) <= 40]
    maps += [perturb(small[rng.randrange(len(small))], rng,
                     moves=rng.randint(1, 3)) for _ in range(300)]
    host = hex_torus(4, 4)
    maps += [subdivide(host, edge, k) for edge in host.edges
             for k in (1, 2, 3)]
    triangle = RotationSystem({"a": ["ab", "ca"], "b": ["ab", "bc"],
                               "c": ["bc", "ca"]})
    maps += [theta_map(), loop_map(), doubled_edge_k4(),
             subdivided_tetrahedron(), triangle]
    return [topology(rs) for rs in maps]


def test_wheel_matches_the_per_corner_oracle(wheel_tops):
    """Dropping the checks closed 2-cell settles changes no verdict and
    no witness, and each kind of wheel witness occurs."""
    kinds = set()
    for top in wheel_tops:
        got = check_wheel_neighborhood(top)
        assert got == wheel_by_arcs(top), top.rs.vertices
        if got[1] is not None:
            kinds.add(got[1][2] if got[1][0] == "wheel" else got[1][0])
    assert kinds == {"face_vertex_repeat", "fewer than 3 spokes",
                     "spoke endpoints not distinct",
                     "rim is not a simple cycle"}


def test_closed_2cell_settles_the_corners(corpus, wheel_tops):
    """On a closed 2-cell map the faces at v's corners are pairwise
    distinct, and the walk through corner t has v between hub[t] and
    hub[t+1], the far ends of rotation darts t and t+1."""
    closed_maps = 0
    for top in wheel_tops:
        if not check_closed_2cell(top)[0]:
            continue
        closed_maps += 1
        rs = top.rs
        for v in rs.vertices:
            faces = top.vertex_faces[v]
            k = len(faces)
            assert len(set(faces)) == k, v
            hub = [rs.dart_vertex(d.opposite()) for d in rs.rotation[v]]
            for t, f in enumerate(faces):
                walk = top.faces[f].vertex_sequence
                i = walk.index(v)
                around = (walk[i - 1], walk[(i + 1) % len(walk)])
                assert sorted(around) == sorted((hub[t], hub[(t + 1) % k])), \
                    (v, t)
    assert closed_maps > len(corpus)


def test_check_polyhedral_traces_closed_2cell_once(monkeypatch):
    calls = []
    check = polymap.validity.check_closed_2cell

    def counted(top):
        calls.append(top)
        return check(top)

    monkeypatch.setattr(polymap.validity, "check_closed_2cell", counted)
    for rs in (tetrahedron(), theta_map(), loop_map()):
        calls.clear()
        check_polyhedral(topology(rs))
        assert len(calls) == 1


def test_non_closed_map_reports_one_face_vertex_repeat():
    bouquet = RotationSystem({"a": ["e", "f", "e", "f"]})
    for rs in (bouquet, loop_map()):
        report = check_polyhedral(topology(rs))
        assert not report.closed_2cell and not report.wheel_neighborhood
        tags = [w[0] for w in report.witnesses]
        assert tags.count("face_vertex_repeat") == 1, report.witnesses
