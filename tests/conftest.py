"""Shared fixtures and helper constructions for the test suite."""

import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polymap.curvature_light import scan_theorem2
from polymap.errors import BudgetError, StructureError
from polymap.generators import (hex_klein, hex_torus, k7_torus, tetrahedron,
                                tri_torus, truncate)
from polymap.surface_map import (Dart, FacialWalk, RotationSystem,
                                 topology)
from polymap.transferability import (DEFAULT_BUDGET, NPathVerdict,
                                     SccSummary, _Space, _tarjan)
from polymap.validity import check_closed_2cell, check_polyhedral


def base_corpus():
    """The standing corpus of generated maps, keyed by a readable name."""
    maps = {"tetrahedron": tetrahedron()}
    for p, q in itertools.product((3, 4, 5), repeat=2):
        maps["hex_torus(%d,%d)" % (p, q)] = hex_torus(p, q)
    maps["tri_torus(3,3)"] = tri_torus(3, 3)
    maps["k7_torus"] = k7_torus()
    maps["hex_klein(3,3)"] = hex_klein(3, 3)
    return maps


def full_corpus():
    """Base corpus plus the truncation of every member."""
    maps = base_corpus()
    for name, rs in list(maps.items()):
        maps["truncate(%s)" % name] = truncate(rs)
    return maps


@pytest.fixture(scope="session")
def corpus():
    return full_corpus()


@pytest.fixture(scope="session")
def corpus_tops(corpus):
    return {name: topology(rs) for name, rs in corpus.items()}


@pytest.fixture(scope="session")
def corpus_validity(corpus_tops):
    return {name: check_polyhedral(top)
            for name, top in corpus_tops.items()}


# -- plain graphs for the path machinery ---------------------------------

def complete_graph(n):
    vs = ["k%d" % i for i in range(n)]
    return {v: tuple(w for w in vs if w != v) for v in vs}


def cycle_graph(n):
    vs = ["c%d" % i for i in range(n)]
    return {vs[i]: (vs[(i - 1) % n], vs[(i + 1) % n]) for i in range(n)}


def petersen_graph():
    adj = {}
    for i in range(5):
        adj["o%d" % i] = ("o%d" % ((i - 1) % 5), "o%d" % ((i + 1) % 5),
                          "i%d" % i)
        adj["i%d" % i] = ("i%d" % ((i - 2) % 5), "i%d" % ((i + 2) % 5),
                          "o%d" % i)
    return adj


def path_graph(n):
    vs = ["p%d" % i for i in range(n)]
    return {vs[i]: tuple(vs[j] for j in (i - 1, i + 1) if 0 <= j < n)
            for i in range(n)}


def star_graph(k):
    """A hub joined to k leaves."""
    leaves = ["l%d" % i for i in range(k)]
    graph = {"hub": tuple(leaves)}
    graph.update((v, ("hub",)) for v in leaves)
    return graph


def grid_graph(p, q):
    vs = {(i, j): "g%d.%d" % (i, j) for i in range(p) for j in range(q)}
    return {v: tuple(vs[w] for w in ((i - 1, j), (i + 1, j), (i, j - 1),
                                     (i, j + 1)) if w in vs)
            for (i, j), v in vs.items()}


def cube_graph(d):
    """The d-dimensional hypercube Q_d on bit strings."""
    return {format(i, "0%db" % d): tuple(format(i ^ 1 << k, "0%db" % d)
                                         for k in range(d))
            for i in range(1 << d)}


def random_bipartite_graph(rng, left, right, edge_prob):
    """Each of the left x right edges independently, so the graph may be
    disconnected or have isolated vertices, and has no odd cycle."""
    adj = {"x%d" % i: [] for i in range(left)}
    adj.update(("y%d" % j, []) for j in range(right))
    for i, j in itertools.product(range(left), range(right)):
        if rng.random() < edge_prob:
            adj["x%d" % i].append("y%d" % j)
            adj["y%d" % j].append("x%d" % i)
    return {v: tuple(row) for v, row in adj.items()}


def random_connected_graph(rng, num_vertices, extra_edge_prob=0.35):
    """A connected simple graph: random spanning tree plus random edges."""
    vs = ["r%d" % i for i in range(num_vertices)]
    edges = set()
    for i in range(1, num_vertices):
        edges.add(tuple(sorted((vs[i], vs[rng.randrange(i)]))))
    for u, w in itertools.combinations(vs, 2):
        if rng.random() < extra_edge_prob:
            edges.add(tuple(sorted((u, w))))
    adj = {v: [] for v in vs}
    for u, w in sorted(edges):
        adj[u].append(w)
        adj[w].append(u)
    return {v: tuple(sorted(row)) for v, row in adj.items()}


def random_cubic_graph(rng, num_vertices):
    """A simple 3-regular graph on an even number of vertices, >= 4, by
    the pairing model: three points per vertex, matched at random, drawn
    again until no loop or double edge is left.  Not always connected."""
    vs = ["c%d" % i for i in range(num_vertices)]
    while True:
        points = [v for v in vs for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2]))
                 for i in range(0, len(points), 2)}
        if (len(edges) == len(points) // 2
                and all(u != w for u, w in edges)):
            break
    adj = {v: [] for v in vs}
    for u, w in sorted(edges):
        adj[u].append(w)
        adj[w].append(u)
    return {v: tuple(row) for v, row in adj.items()}


def iter_states_by_copies(space, n, budget, start_order=None):
    """All length-n states in lexicographic order (or by given starts),
    as tuples of vertex indices, each stack entry a fresh copy of its
    path, and only emitted n-paths charged against the budget.  The
    oracle for the state order of the transfer digraph and of
    ``find_stuck``."""
    if n >= len(space.names):
        return
    count = 0
    starts = range(len(space.names)) if start_order is None else start_order
    for s in starts:
        stack = [(s,)]
        while stack:
            p = stack.pop()
            if len(p) == n + 1:
                count += 1
                if count > budget:
                    raise BudgetError(
                        "more than %d directed %d-paths; "
                        "raise the budget to enumerate them" % (budget, n),
                        count)
                yield p
                continue
            for w in reversed(space.adj[p[-1]]):
                if w not in p:
                    stack.append(p + (w,))


def moves_by_scan(space, p):
    """Heads of the legal moves from state tuple p, ascending: each
    neighbour of the head that is not an inner vertex of p."""
    return [w for w in space.adj[p[-1]] if w not in p[1:-1]]


def stuck_by_dfs(space, n, start_order=None):
    """The first stuck n-path of a depth-first search from each start in
    turn, as a tuple of vertex indices (or None), and the extensions made
    by then, prefixes included: each stack entry a fresh copy of its
    path, each extension counted as it is popped.  The oracle for the
    witness and the charge of ``find_stuck``."""
    count = 0
    starts = range(len(space.names)) if start_order is None else start_order
    for s in starts:
        stack = [(s,)]
        while stack:
            p = stack.pop()
            count += len(p) > 1
            if len(p) == n + 1:
                if not moves_by_scan(space, p):
                    return p, count
                continue
            for w in reversed(space.adj[p[-1]]):
                if w not in p:
                    stack.append(p + (w,))
    return None, count


def tail_moves_by_index(adj, level):
    """The bounds of ``level``'s tail runs, each found by bisecting the
    states' tails, decoded by one ``_walks`` call, and, ascending, its
    states whose tail neighbours their head, each found by
    ``array.index`` on the heads, one Python int compared per state.
    The oracle for ``_bounds`` and ``transferability._tail_moves``."""
    heads = level._head
    tails = level._walks(range(level.state_count))[0]
    bounds = [bisect_left(tails, v) for v in range(len(adj) + 1)]
    drops = []
    for v, row in enumerate(adj):
        hi = bounds[v + 1]
        found = []
        for u in row:
            j = bounds[v]
            try:
                while True:
                    j = heads.index(u, j, hi)
                    found.append(j)
                    j += 1
            except ValueError:
                pass
        drops += sorted(found)
    return bounds, drops


def suffixes_by_search(digraph):
    """Each state's suffix, the index of its p[1:] among the
    (n - 1)-paths, at every level of ``digraph``'s chain, one list per
    level: found as ``index_of`` finds a path, by bisecting the blocks
    (``_first``) of ``_head`` for the next vertex, and made level by
    level.  A state in block b with head h has as p[1:] the state with
    head h in the block of b's own suffix, so each state costs one
    bisection.  The oracle for the suffixes that ``TransferDigraph``
    reads off its runs."""
    levels, last = [], None
    for level in digraph._levels():
        first, head = level._first, level._head
        if last is None:  # a 1-path's p[1:] is its head vertex
            levels.append(list(head))
        else:
            prev_first, prev_head = last._first, last._head
            levels.append([
                bisect_left(prev_head, head[i], prev_first[c],
                            prev_first[c + 1])
                for b, c in enumerate(levels[-1])
                for i in range(first[b], first[b + 1])])
        last = level
    return levels


def longest_path_bound(graph, budget=DEFAULT_BUDGET):
    """Exact longest simple path length, by exhaustive search.

    Counts every path extension against the budget, so this is for
    small graphs only.  The oracle for ``transferability(graph)``'s
    ``search_bound``.
    """
    space = _Space(graph)
    best = 0
    count = 0
    for s in range(len(space.names)):
        stack = [(s,)]
        while stack:
            p = stack.pop()
            if len(p) - 1 > best:
                best = len(p) - 1
            for w in space.adj[p[-1]]:
                if w not in p:
                    count += 1
                    if count > budget:
                        raise BudgetError(
                            "longest-path search exceeded %d extensions"
                            % budget, count)
                    stack.append(p + (w,))
    return best


def block_digraph_by_dfs(graph, n, budget=DEFAULT_BUDGET):
    """The transfer digraph from one path search: the sorted n-paths of
    ``iter_states_by_copies``, a dict from each block's first n vertices
    to its id, the block starts ``first`` (then an empty sink block for
    the suffixes that start no block) and the block of each state's
    p[1:] (``suffix``), with Tarjan on that block digraph.  The oracle for
    ``TransferDigraph`` built level by level: its ``states`` (tuples of
    vertex indices), successor ``rows``, ``arc_count``, ``scc`` and
    n-``verdict``."""
    space = _Space(graph)
    states = list(iter_states_by_copies(space, n, budget))
    blocks = {}
    first = []
    for i, p in enumerate(states):
        if p[:-1] not in blocks:
            blocks[p[:-1]] = len(first)
            first.append(i)
    first.extend((len(states), len(states)))
    sink = len(blocks)
    suffix = [blocks.get(p[1:], sink) for p in states]
    rows = [range(first[b], first[b + 1]) for b in suffix]
    label = _tarjan(len(first) - 1, first, suffix)
    heads = [label[b] for b in suffix]
    inner = [0] * len(first)
    for b in range(len(first) - 2):
        inner[label[b]] += heads[first[b]:first[b + 1]].count(label[b])
    sizes = sorted(filter(None, inner), reverse=True)
    sizes += [1] * (len(suffix) - sum(inner))
    scc = SccSummary(count=len(sizes), sizes=tuple(sizes))
    if not states:
        verdict = NPathVerdict(n, False, "no-n-path", 0, 0)
    else:
        ok = scc.count == 1
        verdict = NPathVerdict(n, ok, "" if ok else "not-strongly-connected",
                               len(states), scc.count)
    return SimpleNamespace(states=states, rows=rows,
                           arc_count=sum(map(len, rows)), scc=scc,
                           verdict=verdict)


def scc_sizes_by_arcs(graph, n, budget=DEFAULT_BUDGET):
    """Strong components of the transfer digraph with every arc stored:
    each state's legal moves, each target found by a dict lookup of the
    moved path, then Tarjan over the state digraph.  Returns ``(count,
    sizes)``, sizes descending.  The oracle for
    ``TransferDigraph.scc_summary``."""
    space = _Space(graph)
    states = list(iter_states_by_copies(space, n, budget))
    index = {p: i for i, p in enumerate(states)}
    targets = []
    offsets = [0]
    for p in states:
        for w in moves_by_scan(space, p):
            targets.append(index[p[1:] + (w,)])
        offsets.append(len(targets))
    sizes = sorted(_tarjan_sizes(len(states), offsets, targets), reverse=True)
    return len(sizes), tuple(sizes)


def _tarjan_sizes(num, offsets, targets):
    """Strong component sizes by iterative Tarjan over offset/target
    lists, with an on-stack flag per vertex."""
    disc = [-1] * num
    low = [0] * num
    ptr = list(offsets)
    on_stack = bytearray(num)
    stack = []
    call = []
    sizes = []
    counter = 0
    for root in range(num):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        call.append(root)
        while call:
            v = call[-1]
            arc = ptr[v]
            if arc < offsets[v + 1]:
                ptr[v] = arc + 1
                w = targets[arc]
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    call.append(w)
                elif on_stack[w] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                call.pop()
                if low[v] == disc[v]:
                    size = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        size += 1
                        if w == v:
                            break
                    sizes.append(size)
                if call and low[v] < low[call[-1]]:
                    low[call[-1]] = low[v]
    return sizes


def sources_by_arcs(first, suffix):
    """The in-degree-0 cascade of the block digraph H, in the order it
    is trimmed, from per-state lists: in-degrees counted over every
    arc target in ``suffix``, then each source's block walked arc by
    arc.  The oracle for ``transferability._sources`` on the runs."""
    indegree = [0] * (len(first) - 1)
    for c in suffix:
        indegree[c] += 1
    sources = [b for b, d in enumerate(indegree) if not d]
    for b in sources:
        for c in suffix[first[b]:first[b + 1]]:
            indegree[c] -= 1
            if not indegree[c]:
                sources.append(c)
    return sources


def reach_by_arcs(first, suffix, trim, x):
    """How many untrimmed nodes of H a breadth-first search from x
    reaches over arcs into untrimmed nodes, one arc at a time on
    per-state lists.  The oracle for ``transferability._reach`` on the
    runs."""
    seen = bytearray(trim)
    seen[x] = 1
    frontier = [x]
    reached = 1
    while frontier:
        arcs = []
        for b in frontier:
            arcs += suffix[first[b]:first[b + 1]]
        frontier = []
        for c in arcs:
            if not seen[c]:
                seen[c] = 1
                frontier.append(c)
        reached += len(frontier)
    return reached


def pairs_3_connected(graph):
    """Brute-force 3-connectivity: delete every vertex pair in sorted
    order and count the components left.  The oracle for
    ``check_3_connected``, verdict and witness alike."""
    adj = {v: set(ws) for v, ws in graph.items()}
    vertices = sorted(adj)
    if len(vertices) < 4:
        return False, ()
    if _component_count(adj, ()) != 1:
        return False, ()
    for i, u in enumerate(vertices):
        for w in vertices[i + 1:]:
            if _component_count(adj, (u, w)) != 1:
                return False, (u, w)
    return True, None


def _component_count(adj, removed):
    left = set(adj) - set(removed)
    if not left:
        return 0
    count = 0
    seen = set()
    for start in left:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w in left and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def wheel_by_arcs(top):
    """The wheel test with every per-corner check spelled out: faces
    pairwise distinct at v, each corner's arc spanning its two spokes,
    and the arcs reoriented and chained into the rim.  The oracle for
    ``check_wheel_neighborhood``, verdict and witness alike."""
    closed, witness = check_closed_2cell(top)
    if not closed:
        return False, witness
    rs = top.rs
    for v in rs.vertices:
        k = rs.degree(v)
        if k < 3:
            return False, ("wheel", v, "fewer than 3 spokes")
        faces = top.vertex_faces[v]
        if len(set(faces)) != k:
            return False, ("wheel", v, "incident faces not pairwise distinct")
        hub = [rs.dart_vertex(d.opposite()) for d in rs.rotation[v]]
        if v in hub or len(set(hub)) != k:
            return False, ("wheel", v, "spoke endpoints not distinct")
        rim = []
        for t in range(k):
            walk = top.faces[faces[t]].vertex_sequence
            i = walk.index(v)
            arc = walk[i + 1:] + walk[:i]
            a, b = hub[t], hub[(t + 1) % k]
            if not arc or {arc[0], arc[-1]} != {a, b}:
                return False, ("wheel", v, "corner of face %d does not span "
                               "the two spokes" % faces[t])
            if arc[0] != a:
                arc = arc[::-1]
            rim.extend(arc[:-1])
        if v in rim or len(set(rim)) != len(rim):
            return False, ("wheel", v, "rim is not a simple cycle")
    return True, None


def trace_by_dart_states(rs):
    """The face trace over ``(Dart, side)`` states, with the corners and
    edge sides assembled from them: faces, ``vertex_faces`` and
    ``edge_faces``, or the first StructureError.  The oracle for
    ``topology``'s trace on integer dart ids."""
    vertex_of, pos = {}, {}
    for v in rs.vertices:
        for t, d in enumerate(rs.rotation[v]):
            vertex_of[d], pos[d] = v, t
    sig = rs.signature

    def step(state):
        d, side = state
        side = side * sig[d.edge]
        opp = d.opposite()
        rot = rs.rotation[vertex_of[opp]]
        return (rot[(pos[opp] + side) % len(rot)], side)

    orbit_of = {}
    walks = []
    for start in ((d, s) for d in sorted(vertex_of) for s in (1, -1)):
        if start in orbit_of:
            continue
        orbit = []
        cur = start
        while cur not in orbit_of:
            orbit_of[cur] = start
            orbit.append(cur)
            cur = step(cur)
        if cur != start:
            raise StructureError("face trace did not close at %r" % (cur,))
        d, side = start
        mirror = orbit_of.get((d.opposite(), -side * sig[d.edge]))
        if mirror == start:
            raise StructureError("facial walk is its own mirror image")
        if mirror is None:
            walks.append(orbit)
    walks.sort(key=lambda walk: walk[0])

    faces = []
    corner = {v: [None] * rs.degree(v) for v in rs.vertices}
    edge_faces = {e: [] for e in rs.edges}
    for idx, states in enumerate(walks):
        darts = tuple(d for d, _ in states)
        faces.append(FacialWalk(darts=darts,
                                vertex_sequence=tuple(vertex_of[d]
                                                      for d in darts),
                                degree=len(darts)))
        n = len(states)
        for i in range(n):
            d, _ = states[i]
            nxt, side = states[(i + 1) % n]
            edge_faces[d.edge].append(idx)
            w = vertex_of[nxt]
            t = pos[d.opposite()] if side == 1 else pos[nxt]
            if corner[w][t] is not None:
                raise StructureError(
                    "corner %d of vertex %r traced twice" % (t, w))
            corner[w][t] = idx
    for v, at in corner.items():
        if None in at:
            raise StructureError("corner of vertex %r never traced" % (v,))
    return SimpleNamespace(
        faces=tuple(faces),
        vertex_faces={v: tuple(at) for v, at in corner.items()},
        edge_faces={e: tuple(at) for e, at in edge_faces.items()})


def dart_endpoints(rs, e):
    """Both ends of edge ``e`` read from its darts, not ``endpoints()``."""
    return rs.dart_vertex(Dart(e, 0)), rs.dart_vertex(Dart(e, 1))


def signed_tree_orientable(rs):
    """Orientability by its own spanning search and a second edge pass.
    The oracle for ``RotationSystem.orientable``."""
    # Re-orient vertices along a spanning tree so that tree edges carry
    # signature +1; the embedding is orientable iff every remaining edge
    # then carries +1 as well.  A negative loop is a crosscap and fails
    # immediately (vertex flips cancel on it).
    flip = {rs.vertices[0]: 1}
    stack = [rs.vertices[0]]
    tree = set()
    while stack:
        v = stack.pop()
        for d in rs.rotation[v]:
            w = rs.dart_vertex(d.opposite())
            if w not in flip:
                flip[w] = flip[v] * rs.signature[d.edge]
                tree.add(d.edge)
                stack.append(w)
    for e in rs.edges:
        if e in tree:
            continue
        u, w = dart_endpoints(rs, e)
        if flip[u] * rs.signature[e] * flip[w] != 1:
            return False
    return True

# -- the discharging rules one Fraction move at a time --------------------

F = Fraction
_A1_BY_MOVE = {3: F(1), 4: F(1, 2), 5: F(1, 5)}
_A3_BY_MOVE = {  # minor degree -> (weak, semi-weak) -> major degree band
    3: ((F(1, 5), F(1, 2), F(1), F(19, 10)),
        (F(1, 10), F(1, 4), F(1, 2), F(1))),
    4: ((F(1, 5), F(1, 2), F(1, 2), F(1)),
        (F(1, 10), F(1, 4), F(1, 4), F(1, 2))),
    5: ((F(1, 5), F(1, 5), F(1, 5), F(2, 5)),
        (F(1, 10), F(1, 10), F(1, 10), F(1, 5))),
}


def discharge_by_moves(top, state, ledger):
    """Rules A1, A2, A3, A4 and B applied to copies of ``state``'s
    charges one move at a time, each move one Fraction subtraction from
    its source and one addition to its target, recorded in ``ledger``.
    Returns the (vertex charges, face charges) after each rule."""
    charges = {"v": dict(state.vertex_charge), "f": dict(state.face_charge)}
    stages = []

    def move(rule, source, target, amount, note):
        charges[source[0]][source[1]] -= amount
        charges[target[0]][target[1]] += amount
        ledger.record(rule, source, target, amount, note)

    def done():
        stages.append((dict(charges["v"]), dict(charges["f"])))

    deg, fdeg, types = top.rs.degree, top.face_degrees, top.vertex_types
    for v in top.rs.vertices:
        for f in top.vertex_faces[v]:
            if deg(v) >= 4 and fdeg[f] in _A1_BY_MOVE:
                move("A1", ("v", v), ("f", f), _A1_BY_MOVE[fdeg[f]],
                     "deg(v)=%d deg(a)=%d" % (deg(v), fdeg[f]))
    done()
    for v in top.rs.vertices:
        if deg(v) >= 4 and types[v].count(6) >= 2 and 3 in types[v]:
            for f in top.vertex_faces[v]:
                if fdeg[f] == 3:
                    move("A2", ("v", v), ("f", f), F(1, 10),
                         "deg(v)=%d three-face with two six-faces" % deg(v))
    done()
    for e in top.rs.edges:
        f1, f2 = top.edge_faces[e]
        if f1 == f2:
            raise StructureError("edge %r has one face" % (e,))
        kind = top.classify_edge(e)
        for minor, major in ((f1, f2), (f2, f1)):
            if kind != "normal" and 3 <= fdeg[minor] <= 5 and fdeg[major] >= 7:
                band = sum(fdeg[major] >= lo for lo in (9, 13, 2519))
                amount = _A3_BY_MOVE[fdeg[minor]][kind != "weak"][band]
                move("A3", ("f", major), ("f", minor), amount,
                     "%s edge %s deg(a)=%d deg(a')=%d"
                     % (kind, e, fdeg[minor], fdeg[major]))
    done()
    for f, walk in enumerate(top.faces):
        k = fdeg[f]
        for v in walk.vertex_sequence:
            amount = {(3, 3, 4, k): F(1, 2), (3, 3, 5, k): F(1, 5)}.get(
                types[v])
            if k >= 2519 and amount is not None:
                move("A4", ("f", f), ("v", v), amount,
                     "type %r with k=%d" % (types[v], k))
    done()
    for f, walk in enumerate(top.faces):
        share = charges["f"][f] / walk.degree
        if fdeg[f] >= 7 and share != 0:
            for v in walk.vertex_sequence:
                move("B", ("f", f), ("v", v), share,
                     "deg(a)=%d share of c*" % walk.degree)
    done()
    return stages


def audit_by_moves(top, after_a, final):
    """The Lemma audit's fields, from after-A face charges and final
    vertex charges, each bound built as the bounds were first written."""
    def bound(d):
        if d <= 6:
            return F(0)
        if d <= 12:
            return (F(2, 5), F(6, 5), F(1), F(3, 2), F(5, 2), F(3))[d - 7]
        return F(d, 21)
    lemma1 = tuple((f, d, after_a[f], bound(d))
                   for f, d in enumerate(top.face_degrees)
                   if after_a[f] < bound(d))
    lemma2 = tuple((v, final[v]) for v in top.rs.vertices
                   if final[v] < F(1, 21))
    scan = scan_theorem2(top, check_polyhedral(top))
    violated = bool(lemma1 or lemma2)
    return (lemma1, lemma2, len(scan.light), scan.hypotheses_met,
            violated and not scan.light and scan.hypotheses_met)

# -- maps built by hand for edge cases ------------------------------------

def antiprism(n):
    """The n-antiprism on the sphere: 2n triangles between two n-gons."""
    nb = {}
    for i in range(n):
        u, w = "u%04d" % i, "w%04d" % i
        up, un = "u%04d" % ((i - 1) % n), "u%04d" % ((i + 1) % n)
        wp, wn = "w%04d" % ((i - 1) % n), "w%04d" % ((i + 1) % n)
        nb[u] = [un, up, w, wn]
        nb[w] = [wn, u, up, wp]
    return RotationSystem.from_rotations(nb)


def drum(m, apex=1, pegged=False):
    """A prism over an m-gon with one vertical strut replaced by a ladder
    of ``apex`` rungs, creating two faces of degree apex+2 (triangles for
    apex=1, pentagons for apex=3) that each share one edge with an m-gon.
    Every vertex has degree 3, so those shared edges are weak.  With
    ``pegged`` the u0-w0 strut is restored, raising u0 and w0 to degree 4
    and turning the shared edges semi-weak."""
    nb = {}
    for i in range(m):
        u, w = "u%04d" % i, "w%04d" % i
        un, up = "u%04d" % ((i + 1) % m), "u%04d" % ((i - 1) % m)
        wn, wp = "w%04d" % ((i + 1) % m), "w%04d" % ((i - 1) % m)
        nb[u] = [w, un, up]
        nb[w] = [wn, u, wp]
    xs = ["x%d" % i for i in range(apex)]
    ys = ["y%d" % i for i in range(apex)]
    u0, u1, w0, w1 = "u0000", "u0001", "w0000", "w0001"
    um, wm = "u%04d" % (m - 1), "w%04d" % (m - 1)
    nb[u0] = [xs[0], u1, um]
    nb[u1] = ["u0002", u0, xs[-1]]
    nb[w0] = [w1, ys[0], wm]
    nb[w1] = ["w0002", ys[-1], w0]
    for i in range(apex):
        left_x = xs[i - 1] if i else u0
        right_x = xs[i + 1] if i + 1 < apex else u1
        left_y = ys[i - 1] if i else w0
        right_y = ys[i + 1] if i + 1 < apex else w1
        nb[xs[i]] = [ys[i], right_x, left_x]
        nb[ys[i]] = [right_y, xs[i], left_y]
    if pegged:
        nb[u0] = [w0, xs[0], u1, um]
        nb[w0] = [w1, ys[0], u0, wm]
    return RotationSystem.from_rotations(nb)


def medial(rs):
    """The medial map of a map with every signature +1: one vertex per
    edge e, and corner edge ``v/ct`` joining the edges of darts t and
    t+1 at v.  At e = (u, w) the rotation is u/c(t0), u/c(t0-1),
    w/c(t1), w/c(t1-1), t0 and t1 being e's positions in the rotations
    at u and w.  That rotation is right only if e keeps the sense of
    rotation, so a negative edge (every non-orientable map has one)
    raises ValueError rather than give a wrong medial."""
    if -1 in rs.signature.values():
        raise ValueError("medial needs every signature +1")

    def corners(d):
        v = rs.dart_vertex(d)
        t, n = rs.rotation[v].index(d), rs.degree(v)
        return ["%s/c%d" % (v, t), "%s/c%d" % (v, (t - 1) % n)]
    return RotationSystem({e: corners(Dart(e, 0)) + corners(Dart(e, 1))
                           for e in rs.edges})


def petrie(rs):
    """The Petrie dual: the same rotations with every signature negated,
    so the faces are the map's Petrie polygons."""
    return RotationSystem({v: [d.edge for d in rs.rotation[v]]
                           for v in rs.vertices},
                          {e: -s for e, s in rs.signature.items()})


def subdivide(rs, edge, k):
    """Replace ``edge`` by a path through k fresh degree-2 vertices."""
    rot = {v: [d.edge for d in rs.rotation[v]] for v in rs.vertices}
    u, w = rs.endpoints(edge)
    pieces = ["%s:%d" % (edge, i) for i in range(k + 1)]
    rot[u][rot[u].index(edge)] = pieces[0]
    iw = len(rot[w]) - 1 - rot[w][::-1].index(edge)
    rot[w][iw] = pieces[-1]
    for i in range(k):
        rot["%s-z%d" % (edge, i)] = [pieces[i], pieces[i + 1]]
    sig = {e: s for e, s in rs.signature.items() if e != edge}
    return RotationSystem(rot, sig)


def perturb(rs, rng, moves=2):
    """A nearby rotation system: swap rotation entries, flip signs, or
    reverse one vertex's rotation.  Output is structurally valid but has
    no promised surface properties."""
    rot = {v: [d.edge for d in rs.rotation[v]] for v in rs.vertices}
    sig = dict(rs.signature)
    vertices = sorted(rot)
    edges = sorted(sig)
    for _ in range(moves):
        kind = rng.randrange(3)
        if kind == 0:
            v = vertices[rng.randrange(len(vertices))]
            row = rot[v]
            if len(row) >= 2:
                i = rng.randrange(len(row))
                j = rng.randrange(len(row))
                row[i], row[j] = row[j], row[i]
        elif kind == 1:
            e = edges[rng.randrange(len(edges))]
            sig[e] = -sig[e]
        else:
            v = vertices[rng.randrange(len(vertices))]
            rot[v].reverse()
    return RotationSystem(rot, sig)


def regular_map(x, y):
    """The regular map of two permutations, given as tuples: the darts
    are the elements of the group <x, y>, closed by breadth-first search
    from the identity and numbered in that order; the vertex of dart g
    is its x-orbit g, gx, gx^2, ... in rotation order, and an edge joins
    g and gy.  All signatures are +1, so the map is orientable."""
    def times(g, h):  # g then h
        return tuple(h[i] for i in g)

    darts = [tuple(range(len(x)))]
    number = {darts[0]: 0}
    for g in darts:
        for h in (times(g, x), times(g, y)):
            if h not in number:
                number[h] = len(darts)
                darts.append(h)
    rotation, placed = {}, set()
    for g in darts:
        if g in placed:
            continue
        row, h = [], g
        while h not in placed:
            placed.add(h)
            row.append("e%04d" % min(number[h], number[times(h, y)]))
            h = times(h, x)
        rotation["v%04d" % number[g]] = row
    return RotationSystem(rotation)


def seeded_rng(salt):
    return random.Random(20260817 ^ salt)
