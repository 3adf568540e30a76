"""Directed path moves on a graph and transferability by state search.

A directed path of n edges slides like a train: one move drops the
tail and appends a neighbour of the head that is not an inner vertex
(the old tail itself is a legal target, since it is no longer on the
path once it is dropped).  The graph is *n-transferable* when it has at
least one n-path and every n-path can reach every other by such moves;
the transferability value is the largest such n.

The decision procedure materialises the transfer digraph -- one node
per directed n-path, one arc per move -- and checks that it is a single
strongly connected component.  States are stored in canonical
(lexicographic) order, so indices, arcs and verdicts are reproducible.
State counts grow quickly with n; a configurable budget on path
extensions -- every step of the one path search, prefixes included --
aborts runs that would not fit in memory or time.

Graphs are plain adjacency mappings (vertex -> iterable of neighbours),
e.g. the output of ``RotationSystem.adjacency()``.  Loops are rejected
and parallel edges are meaningless here, so only simple graphs apply.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass

from .errors import BudgetError, StructureError

__all__ = [
    "DEFAULT_BUDGET",
    "PathState",
    "TransferDigraph",
    "SccSummary",
    "NPathVerdict",
    "TransferabilityResult",
    "StuckWitness",
    "steps",
    "enumerate_paths",
    "build_transfer_digraph",
    "n_verdict",
    "is_n_transferable",
    "transferability",
    "find_stuck",
]

# The 1..13 sweep on either 54-vertex cubic map (truncate(hex_torus(3, 3))
# and its Klein-bottle twin) needs at most 374 814 extensions for one n,
# at n = 13: 13x headroom.
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class PathState:
    """A directed simple path, tail first, head last."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise StructureError("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise StructureError("path vertices must be distinct")

    @property
    def tail(self):
        return self.vertices[0]

    @property
    def head(self):
        return self.vertices[-1]

    @property
    def length(self):
        """Number of edges."""
        return len(self.vertices) - 1

    def reverse(self):
        return PathState(self.vertices[::-1])


class _Space:
    """Graph recoded on integer vertices 0..V-1 in sorted id order."""

    def __init__(self, graph):
        self.names = tuple(sorted(graph))
        self.index = {v: i for i, v in enumerate(self.names)}
        adj = []
        for v in self.names:
            row = set()
            for w in graph[v]:
                if w == v:
                    raise StructureError(
                        "vertex %r has a loop; paths need a simple graph" % (v,))
                j = self.index.get(w)
                if j is None:
                    raise StructureError(
                        "neighbour %r of %r is not a vertex of the graph" % (w, v))
                row.add(j)
            adj.append(tuple(sorted(row)))
        for i, row in enumerate(adj):
            for j in row:
                if i not in adj[j]:
                    raise StructureError(
                        "adjacency is not symmetric between %r and %r"
                        % (self.names[i], self.names[j]))
        self.adj = tuple(adj)
        # states are packed as bytes when vertex indices fit in one byte
        self.pack = bytes if len(self.names) <= 256 else tuple

    def encode(self, ids):
        return self.pack(self.index[v] for v in ids)

    def decode(self, state):
        return PathState(tuple(self.names[i] for i in state))

    def single(self, i):
        return self.pack((i,))

    def check_path(self, path):
        for v in path.vertices:
            if v not in self.index:
                raise StructureError("path vertex %r is not in the graph" % (v,))
        for u, w in zip(path.vertices, path.vertices[1:]):
            if self.index[w] not in self.adj[self.index[u]]:
                raise StructureError(
                    "path vertices %r and %r are not adjacent" % (u, w))


def _iter_states(space, n, budget, start_order=None):
    """All length-n states in lexicographic order (or by given starts).

    The only path search: the current path is a list with an on-path
    flag per vertex and one neighbour iterator per depth, and a state
    is packed only at depth n.  Every extension, of a prefix or to a
    full n-path, is charged against ``budget``.  A simple n-path needs
    n + 1 distinct vertices, so for n >= V there is none and no search
    is run.
    """
    if n >= len(space.names):
        return
    adj, pack = space.adj, space.pack
    on_path = bytearray(len(space.names))
    count = 0
    starts = range(len(space.names)) if start_order is None else start_order
    for s in starts:
        path = [s]
        on_path[s] = 1
        nexts = [iter(adj[s])]
        while nexts:
            for w in nexts[-1]:
                if on_path[w]:
                    continue
                count += 1
                if count > budget:
                    raise BudgetError(
                        "more than %d path extensions while enumerating "
                        "directed %d-paths; raise the budget to enumerate "
                        "them" % (budget, n), count)
                path.append(w)
                if len(path) > n:
                    yield pack(path)
                    path.pop()
                    continue
                on_path[w] = 1
                nexts.append(iter(adj[w]))
                break
            else:
                nexts.pop()
                on_path[path.pop()] = 0


def _successor_targets(space, p):
    """Integer targets of all legal moves from encoded state p, ascending."""
    inner = p[1:-1]
    return [w for w in space.adj[p[-1]] if w not in inner]


def steps(graph, path):
    """All states one move away from ``path``, ascending by new head."""
    if path.length < 1:
        raise StructureError("moves need a path with at least one edge")
    space = _Space(graph)
    space.check_path(path)
    p = space.encode(path.vertices)
    return [space.decode(p[1:] + space.single(w))
            for w in _successor_targets(space, p)]


def enumerate_paths(graph, n, budget=DEFAULT_BUDGET):
    """Every directed simple path with ``n`` edges, lexicographic order."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    space = _Space(graph)
    return tuple(space.decode(p) for p in _iter_states(space, n, budget))


@dataclass(frozen=True)
class SccSummary:
    """How many strong components a transfer digraph has, and how big."""

    count: int
    sizes: tuple  # descending


class TransferDigraph:
    """All directed n-paths of a graph with one arc per legal move.

    States live at stable indices in lexicographic order of their
    vertex sequences; ``state_at``/``index_of`` translate between
    indices and :class:`PathState`.  Arcs are kept in compact
    offset/target arrays; ``successors_of`` reads one row.
    """

    def __init__(self, space, n, states):
        self._space = space
        self.n = n
        self._states = states
        self._index = {p: i for i, p in enumerate(states)}
        targets = array("l")
        offsets = array("l", [0]) * (len(states) + 1)
        for i, p in enumerate(states):
            row = _successor_targets(space, p)
            for w in row:
                targets.append(self._index[p[1:] + space.single(w)])
            offsets[i + 1] = len(targets)
        self._offsets = offsets
        self._targets = targets

    @property
    def state_count(self):
        return len(self._states)

    @property
    def arc_count(self):
        return len(self._targets)

    def state_at(self, i):
        return self._space.decode(self._states[i])

    def index_of(self, path):
        try:
            return self._index[self._space.encode(path.vertices)]
        except KeyError:
            raise ValueError("%r is not a %d-path of this graph"
                             % (path, self.n)) from None

    def successors_of(self, i):
        return tuple(self._targets[self._offsets[i]:self._offsets[i + 1]])

    def scc_summary(self):
        sizes = _tarjan(len(self._states), self._offsets, self._targets)
        return SccSummary(count=len(sizes),
                          sizes=tuple(sorted(sizes, reverse=True)))

    def to_dot(self):
        """The digraph in DOT format, states as comma-joined vertex ids."""
        return "".join(self.dot_lines())

    def dot_lines(self):
        """The lines of ``to_dot()``, newline included, one at a time."""
        names = self._space.names
        labels = []
        for p in self._states:
            text = ",".join(str(names[i]) for i in p)
            labels.append(
                '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"'))
        yield "digraph transfer {\n"
        for label in labels:
            yield "  %s;\n" % label
        offsets, targets = self._offsets, self._targets
        for i, label in enumerate(labels):
            for k in range(offsets[i], offsets[i + 1]):
                yield "  %s -> %s;\n" % (label, labels[targets[k]])
        yield "}\n"


def _tarjan(num, offsets, targets):
    """Strong component sizes by Tarjan's algorithm, fully iterative.

    The call stack and the component stack are int arrays and
    ``ptr[v]`` is the next arc of v to follow, so a frame is one array
    slot rather than a tuple of two int objects.
    """
    disc = array("l", [-1]) * num
    low = array("l", [0]) * num
    ptr = array("l", offsets)
    on_stack = bytearray(num)
    stack = array("l")
    call = array("l")
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


def build_transfer_digraph(graph, n, budget=DEFAULT_BUDGET):
    if n < 1:
        raise ValueError("path length must be at least 1")
    space = _Space(graph)
    states = list(_iter_states(space, n, budget))
    return TransferDigraph(space, n, states)


@dataclass(frozen=True)
class NPathVerdict:
    n: int
    transferable: bool
    reason: str  # "" when transferable, else "no-n-path"/"not-strongly-connected"
    state_count: int
    scc_count: int


def n_verdict(graph, n, budget=DEFAULT_BUDGET):
    """Whether the graph is n-transferable, with the counts behind it."""
    digraph = build_transfer_digraph(graph, n, budget)
    if digraph.state_count == 0:
        return NPathVerdict(n, False, "no-n-path", 0, 0)
    count = digraph.scc_summary().count
    ok = count == 1
    return NPathVerdict(n, ok, "" if ok else "not-strongly-connected",
                        digraph.state_count, count)


def is_n_transferable(graph, n, budget=DEFAULT_BUDGET):
    """True iff the graph has an n-path and all n-paths reach each other."""
    return n_verdict(graph, n, budget).transferable


@dataclass(frozen=True)
class TransferabilityResult:
    """Outcome of the sweep over path lengths.

    ``value`` is the largest n up to ``search_bound`` found
    transferable (0 when none is); the sweep checks every n
    individually and assumes no monotonicity.  ``truncated_at`` names
    the first n the budget refused, or None.
    """

    value: int
    per_n: tuple
    search_bound: int
    truncated_at: object = None


def transferability(graph, max_n=None, budget=DEFAULT_BUDGET):
    """Sweep n = 1..max_n and report the transferability value.

    Without ``max_n`` the sweep runs until the first n with no n-path,
    which it leaves out, so ``search_bound`` is the graph's exact
    longest-path length.  That is an exhaustive search, only feasible
    for small graphs.
    """
    if max_n is not None and max_n < 1:
        raise ValueError("path length must be at least 1")
    per_n = []
    value = 0
    truncated_at = None
    for n in itertools.count(1) if max_n is None else range(1, max_n + 1):
        try:
            verdict = n_verdict(graph, n, budget)
        except BudgetError:
            truncated_at = n
            break
        if max_n is None and verdict.reason == "no-n-path":
            break
        per_n.append(verdict)
        if verdict.transferable:
            value = n
    return TransferabilityResult(value=value, per_n=tuple(per_n),
                                 search_bound=len(per_n),
                                 truncated_at=truncated_at)


@dataclass(frozen=True)
class StuckWitness:
    """An n-path with no legal move, plus the search anchor if any."""

    path: PathState
    anchor: object = None


def find_stuck(graph, n, anchor=None, budget=DEFAULT_BUDGET):
    """First stuck n-path in search order, or None.

    With ``anchor`` given, enumeration starts from the vertices nearest
    the anchor, so a path clogged around it is found early.
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    space = _Space(graph)
    order = None
    if anchor is not None:
        if anchor not in space.index:
            raise StructureError("anchor %r is not a vertex" % (anchor,))
        dist = _bfs_distances(space, space.index[anchor])
        order = sorted(range(len(space.names)), key=lambda i: (dist[i], i))
    for p in _iter_states(space, n, budget, start_order=order):
        if not _successor_targets(space, p):
            return StuckWitness(path=space.decode(p), anchor=anchor)
    return None


def _bfs_distances(space, source):
    dist = [len(space.names)] * len(space.names)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in space.adj[v]:
            if dist[w] > dist[v] + 1:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist
