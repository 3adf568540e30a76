"""Validity of embedded graphs: simple map, closed 2-cell, polyhedral.

The polyhedrality test is local: an embedding is a polyhedral map if
and only if the faces around every vertex form a wheel (>= 3 spokes,
possibly subdivided rim).  Closed 2-cell, traced once per report,
settles that each vertex's corners lie in distinct faces whose walks
span consecutive spokes; the wheel loop checks the rest (>= 3 spokes,
distinct spoke ends, a simple rim).  What a wheel implies (no loop or
parallel edge, minimum degree 3, closed 2-cell, 3-connectivity) is
cross-checked against the wheel verdict; a disagreement in the implied
direction is a bug in this package, not bad input, and raises
RuntimeError.  3-connectivity is decided on a single DFS tree,
O((V + E) log V), which also marks the vertices that lie in some
separating pair.  A graph that fails names the first separating pair in
sorted order by the same search on G - u for the first marked u, and a
pair that no deletion confirms raises RuntimeError too.  A graph with a
cut vertex has its first pair at vertex 0 or vertex 1, so it tries those
two.

Witnesses are plain tuples, first element a short tag, so they survive
report serialisation unchanged.
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

__all__ = [
    "ValidityReport",
    "check_simple_map",
    "check_closed_2cell",
    "check_wheel_neighborhood",
    "check_3_connected",
    "check_polyhedral",
]


class ValidityReport(NamedTuple):
    is_simple: bool
    min_degree_ok: bool
    closed_2cell: bool
    wheel_neighborhood: bool
    three_connected: bool
    polyhedral: bool
    witnesses: tuple = ()


def check_simple_map(top):
    """Return (no loops or parallel edges, min degree >= 3, witness)."""
    rs = top.rs
    simple = True
    witness = None
    seen_pairs = {}
    for e in rs.edges:
        u, w = rs.endpoints(e)
        if u == w:
            simple, witness = False, ("loop", e, u)
            break
        pair = (u, w) if u <= w else (w, u)
        if pair in seen_pairs:
            simple, witness = False, ("parallel_edges", seen_pairs[pair], e)
            break
        seen_pairs[pair] = e
    degree_ok = True
    for v in rs.vertices:
        if rs.degree(v) < 3:
            degree_ok = False
            if witness is None:
                witness = ("degree_below_3", v, rs.degree(v))
            break
    return simple, degree_ok, witness


def check_closed_2cell(top):
    """True iff every facial walk consists of distinct vertices."""
    for idx, walk in enumerate(top.faces):
        seen = set()
        for v in walk.vertex_sequence:
            if v in seen:
                return False, ("face_vertex_repeat", idx, v)
            seen.add(v)
    return True, None


def check_wheel_neighborhood(top):
    """True iff the faces around every vertex form a wheel.

    Fails with the closed 2-cell witness on a map that is not closed
    2-cell.  On one that is, each walk visits v once, so v's corners lie
    in distinct faces and the walk through corner t runs between spokes
    t and t+1.  Left to check at v: >= 3 spokes, spoke ends distinct and
    not v, and a simple rim: the spoke ends plus each corner's interior,
    all distinct, which ``_wheel_on_closed`` decides by counting the
    vertices of v's walks.
    """
    closed, witness = check_closed_2cell(top)
    if not closed:
        return False, witness
    return _wheel_on_closed(top)


def _wheel_on_closed(top):
    """The per-vertex wheel test; assumes a closed 2-cell map.

    The rim is counted, not built.  On a closed 2-cell map each of the
    k walks at v holds v once, the walk of corner t holds spoke ends t
    and t+1 next to it, and the rest of the walk is the corner's
    interior.  So the walks have 3k + I entries for I interior ones,
    and the rim (the k spoke ends, distinct by then, and the I interior
    entries) is simple exactly when their union has 1 + k + I vertices,
    that is sum(len) + 1 - 2k.
    """
    rs = top.rs
    ends = rs._ends
    for v in rs.vertices:
        k = rs.degree(v)
        if k < 3:
            return False, ("wheel", v, "fewer than 3 spokes")
        spokes = [ends[e][1 - end] for e, end in rs.rotation[v]]
        if v in spokes or len(set(spokes)) != k:
            return False, ("wheel", v, "spoke endpoints not distinct")
        walks = [top.faces[f].vertex_sequence for f in top.vertex_faces[v]]
        if len(set().union(*walks)) != sum(map(len, walks)) + 1 - 2 * k:
            return False, ("wheel", v, "rim is not a simple cycle")
    return True, None


def check_3_connected(graph):
    """3-connectivity by one separation-pair test on a DFS tree.

    ``graph`` maps each vertex to an iterable of neighbours; an edge
    counts if either end lists it, and loops and neighbours that are not
    keys are ignored.  Follows the usual convention: K4 is 3-connected,
    anything on fewer than four vertices is not.  Returns (verdict,
    witness); the witness is the first separating pair (u, w), u < w in
    sorted order, or () when the graph is disconnected or too small.

    One depth-first search (``_dfs``) finds a disconnected graph or a
    cut vertex, and its tree marks the vertices that lie in some
    separating pair (``_separating_vertices``), O((V + E) log V) in
    all.  A graph that fails names the witness by the same search on
    G - u for the first marked u, and a second one when G - u splits
    (``_first_separating_pair``).  A graph with a cut vertex c has a
    separating pair at vertex 0 or, failing that, at vertex 1, so those
    two are its candidates: {0, c} separates unless 0 hangs off c alone,
    and then {1, c} does, or {1, w} for any w >= 2 when 1 = c, each
    leaving 0 isolated (with c = 0, G - 0 has at least three vertices
    in at least two pieces, so some w keeps it split).
    """
    names = sorted(graph)
    num = len(names)
    if num < 4:
        return False, ()
    index = {v: i for i, v in enumerate(names)}
    rows = [set() for _ in names]
    for v, ws in graph.items():
        i = index[v]
        for w in ws:
            j = index.get(w)
            if j is not None and j != i:
                rows[i].add(j)
                rows[j].add(i)
    pre = [-1] * num
    tree = _dfs(rows, 0, pre)
    if len(tree[0]) < num:
        return False, ()
    if _cut_vertices(*tree):
        candidates = (0, 1)
    else:
        candidates = _separating_vertices(rows, pre, *tree)
    if candidates:
        return False, _first_separating_pair(names, rows, candidates)
    return True, None


def _dfs(adj, root, pre):
    """One iterative depth-first search from ``root`` through the
    vertices v with pre[v] < 0 (``adj[v]``: the set of v's neighbours,
    read as it iterates), numbering them in preorder into ``pre``
    (pre[v] = len(adj) deletes v).  Returns the vertices reached in
    preorder and, by preorder number, each one's parent and lowpoint:
    the farthest vertex an edge from its subtree reaches, i.e. the
    farthest landing of a frond (non-tree edge) above its parent, or
    the parent if none.  An ancestor has the smaller number, so "above"
    means nearer the root.
    """
    pre[root] = x = 0
    order = [root]
    parent = [0]
    low = [0]
    rows = [iter(adj[root])]
    while rows:
        lx = low[x]
        for y in rows[-1]:
            d = pre[y]
            if d < 0:
                parent.append(x)
                low.append(x)
                x = pre[y] = len(order)
                order.append(y)
                rows.append(iter(adj[y]))
                break
            if d < lx:
                low[x] = lx = d
        else:
            rows.pop()
            x = parent[x]
            if lx < low[x]:
                low[x] = lx
    return order, parent, low


def _cut_vertices(order, parent, low):
    """The cut vertices of the piece ``_dfs`` searched: the parent of a
    vertex x whose subtree reaches nothing above it, and the root if it
    has a second child."""
    return {order[parent[x]] for x in range(2, len(order))
            if low[x] == parent[x]}


def _separating_vertices(adj, pre, order, parent, low):
    """The vertices, ascending, that lie in some separating pair of the
    2-connected simple graph ``adj`` on integers 0..V-1, V >= 4; the
    other arguments are ``_dfs`` from 0 on it.  The root 0 is returned
    alone as soon as a type-1 pair holds it (no type-2 pair does): it
    comes first in index order, so it is the first pair's u.

    In a 2-connected graph both vertices of a separating pair lie on one
    root path (Hopcroft & Tarjan 1973): a above b.  Let a' be the child
    of a toward b.  For each vertex c with parent b, ``low[c]`` and
    ``hi[c]`` are the farthest and the nearest landing strictly above b
    of a frond from c's subtree.  G - {a, b} falls apart if and only if
    it does in one of two ways:

    - type 1: a child c of b has low[c] == hi[c] == a, so its subtree
      reaches nothing but a and b, and some vertex lies outside it;
    - type 2: a is not the root and b lies strictly below a'.  The
      part of subtree(a') outside subtree(b) sends no frond above a
      (test A), and no child c of b reaches both above a and between a
      and b, i.e. depth(low[c]) < depth(a) < depth(hi[c]) for none
      (test B).

    Test A is kept along the DFS path as the list of depths of a that
    pass it for the current b; each vertex x truncates the list to the
    depths that its parent and its siblings' subtrees do not jump over,
    and appends its grandparent's depth if they jump over nothing.  The
    entry x appends follows the one before it, appended by an ancestor
    of x, so the entries form a forest, and the depths of b's list that
    survive test B come in stretches, each a vertical segment of that
    forest.  A segment is marked by +1 at its lower end and -1 above its
    upper end, and one sweep in reverse preorder adds each entry's count
    to the entry before it: the vertex an entry holds lies in a pair
    with some b if and only if the entry's count is positive.  No pair
    is visited one by one, so a graph with Theta(V^2) separating pairs
    costs O((V + E) log V) like any other.
    """
    num = len(adj)
    depth = [0] * num
    kids = [[] for _ in order]
    landings = [[] for _ in order]  # landings[w]: starts of fronds to w
    own = list(range(num))  # farthest landing of x's own fronds, x if none
    for x in range(1, num):
        p = parent[x]
        depth[x] = depth[p] + 1
        kids[p].append(x)
        for y in adj[order[x]]:
            w = pre[y]
            if w < p:
                landings[w].append(x)
                if w < own[x]:
                    own[x] = w
    size = [1] * num
    for x in range(num - 1, 0, -1):
        size[parent[x]] += size[x]
    # hi[c] by fronds in order of landing, nearest to the root last: a
    # frond x -> w paints each unpainted c from x up to two below w, and
    # a painted vertex is skipped by union-find
    hi = [0] * num
    up = list(range(num))
    for w in range(num - 1, -1, -1):
        floor = depth[w] + 2
        for v in landings[w]:
            while True:
                while up[v] != v:  # path halving
                    up[v] = v = up[up[v]]
                if depth[v] < floor:
                    break
                hi[v] = w
                up[v] = v = parent[v]

    marked = set()
    for c in range(1, num):
        if parent[c] and low[c] == hi[c] and size[c] < num - 2:
            if not low[c]:
                return [0]  # type 1 at the root, first in index order
            marked.update((low[c], parent[c]))  # type 1

    # sib[x]: depth of the farthest landing of a frond from parent(x)
    # or from a sibling's subtree; no farther than parent(x) if none
    sib = [0] * num
    for p, ks in enumerate(kids):
        m1 = m2 = own[p]
        for c in ks:
            if low[c] < m1:
                m1, m2 = low[c], m1
            elif low[c] < m2:
                m2 = low[c]
        for c in ks:
            sib[c] = depth[m2 if low[c] == m1 else m1]

    passing = [0] * num  # the depths of a passing test A, ascending
    count = 0
    undo = []  # (count, slot, old value) per path vertex below the root
    path = [0] * num  # path[k]: the vertex at depth k on b's root path,
    # kept for those that append: the entry of depth d is path[d + 2]'s
    before = [-1] * num  # before[x]: who appended the entry before x's
    ends = [0] * num  # +1 below and -1 above each surviving segment
    for b in range(1, num):
        top = depth[b]
        while len(undo) >= top:
            count, slot, old = undo.pop()
            if slot >= 0:
                passing[slot] = old
        if sib[b] >= top - 2 >= 1:  # keeps every entry, appends top - 2
            undo.append((count, count, passing[count]))
            path[top] = b
            if count:
                before[b] = path[passing[count - 1] + 2]
            passing[count] = top - 2
            count += 1
        else:  # keeps the entries that sib[b] does not jump over
            undo.append((count, -1, 0))
            count = bisect_right(passing, sib[b], 0, count)
        if not count:
            continue
        # test B: the passing depths that no child of b bridges, in
        # stretches; children by their nearest landing, nearest first, so
        # the entries left undecided are always passing[:left]
        d = passing[count - 1]
        left = count
        for near, far in sorted([(depth[hi[c]], depth[low[c]])
                                 for c in kids[b]], reverse=True):
            if far < d:
                if near <= d:  # out of reach of c and every later child
                    cut = bisect_left(passing, near, 0, left)
                    ends[path[d + 2]] += 1
                    if cut:
                        ends[path[passing[cut - 1] + 2]] -= 1
                    marked.add(b)
                    left = cut
                left = bisect_right(passing, far, 0, left)
                if not left:
                    break
                d = passing[left - 1]
        if left:
            ends[path[d + 2]] += 1
            marked.add(b)  # type 2
    if marked:  # else no segment either
        for x in range(num - 1, 0, -1):
            if ends[x]:
                marked.add(parent[parent[x]])
                if before[x] >= 0:
                    ends[before[x]] += ends[x]
    return sorted(order[x] for x in marked)


def _first_separating_pair(names, adj, candidates):
    """The first separating pair (u, w) of a connected graph that has one.

    ``candidates`` is ascending and holds the smallest vertex that lies
    in a separating pair, so the first candidate that lies in one is the
    pair's u.  For each u in turn one ``_dfs`` on G - u finds the partners w > u
    with {u, w} separating.  When G - u is connected they are its cut
    vertices.  When it splits, a second search tells two pieces from
    more: {u, w} separates unless exactly two pieces are left and w is
    one of them alone.  With the exact candidates of
    ``_separating_vertices`` the first u confirms, so this costs
    O(V + E); a graph with a cut vertex passes 0 and 1, and the second
    confirms if the first does not.
    """
    num = len(adj)
    for u in candidates:
        pre = [-1] * num
        pre[u] = num
        order, parent, low = _dfs(adj, int(u == 0), pre)
        if len(order) == num - 1:
            partners = _cut_vertices(order, parent, low)
        else:
            rest = _dfs(adj, pre.index(-1), pre)[0]
            if len(order) + len(rest) < num - 1:
                partners = range(u + 1, num)
            else:
                partners = [w for piece in (order, rest) if len(piece) > 1
                            for w in piece]
        w = min((w for w in partners if w > u), default=None)
        if w is not None:
            return names[u], names[w]
    raise RuntimeError(
        "the separation-pair test found a pair that no vertex deletion "
        "confirms; this is a bug in polymap")


def check_polyhedral(top):
    """Aggregate all checks; polyhedral is decided by the wheel test.

    A wheel at every vertex has no loop (a spoke ending at its vertex),
    no parallel edge (a repeated spoke end) and no vertex of degree
    below 3, so it implies ``is_simple`` and ``min_degree_ok`` as well
    as closed 2-cell faces and 3-connectivity; a report that says
    otherwise raises RuntimeError.
    """
    witnesses = []
    simple, degree_ok, w = check_simple_map(top)
    if w is not None:
        witnesses.append(w)
    closed, w = check_closed_2cell(top)
    wheel, w = _wheel_on_closed(top) if closed else (False, w)
    if w is not None:
        witnesses.append(w)
    three, cut = check_3_connected(top.rs.adjacency())
    if not three:
        witnesses.append(("cut_pair",) + tuple(cut or ()))
    if wheel and not (three and closed and simple and degree_ok):
        raise RuntimeError(
            "wheel-neighborhood verdict contradicts 3-connectivity/"
            "closed-2-cell/simplicity/minimum degree on this input; this "
            "is a bug, witnesses: %r"
            % (witnesses,))
    return ValidityReport(
        is_simple=simple,
        min_degree_ok=degree_ok,
        closed_2cell=closed,
        wheel_neighborhood=wheel,
        three_connected=three,
        polyhedral=wheel,
        witnesses=tuple(witnesses),
    )
