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
State counts grow quickly with n; a configurable budget aborts runs
that would not fit in memory.

Graphs are plain adjacency mappings (vertex -> iterable of neighbours),
e.g. the output of ``RotationSystem.adjacency()``.  Loops are rejected
and parallel edges are meaningless here, so only simple graphs apply.
"""

from __future__ import annotations

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
    "longest_path_bound",
]

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
    """All length-n states in lexicographic order (or by given starts)."""
    count = 0
    starts = range(len(space.names)) if start_order is None else start_order
    for s in starts:
        stack = [space.single(s)]
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
                    stack.append(p + space.single(w))


def _successor_targets(space, p):
    """Integer targets of all legal moves from encoded state p, ascending."""
    inner = p[1:-1]
    head = p[-1]
    return [w for w in space.adj[head] if w != head and w not in inner]


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
        offsets = array("l", [0] * (len(states) + 1))
        for i, p in enumerate(states):
            row = _successor_targets(space, p)
            for w in row:
                targets.append(self._index[p[1:] + space.single(w)])
            offsets[i + 1] = len(targets)
        self._offsets = offsets
        self._targets = targets
        self._scc = None

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
        except (KeyError, StructureError):
            raise ValueError("%r is not a %d-path of this graph"
                             % (path, self.n)) from None

    def successors_of(self, i):
        return tuple(self._targets[self._offsets[i]:self._offsets[i + 1]])

    def scc_summary(self):
        if self._scc is None:
            count, comp = _tarjan(len(self._states), self._offsets,
                                  self._targets)
            sizes = [0] * count
            for c in comp:
                sizes[c] += 1
            self._scc = SccSummary(count=count,
                                   sizes=tuple(sorted(sizes, reverse=True)))
        return self._scc

    @property
    def is_strongly_connected(self):
        return self.state_count > 0 and self.scc_summary().count == 1

    def to_dot(self):
        """The digraph in DOT format, states as comma-joined vertex ids."""
        def label(p):
            text = ",".join(str(self._space.names[i]) for i in p)
            return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph transfer {"]
        for p in self._states:
            lines.append("  %s;" % label(p))
        for i, p in enumerate(self._states):
            for j in self.successors_of(i):
                lines.append("  %s -> %s;" % (label(p), label(self._states[j])))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _tarjan(num, offsets, targets):
    """Strong components by Tarjan's algorithm, fully iterative."""
    disc = array("l", [-1] * num)
    low = array("l", [0] * num)
    comp = array("l", [-1] * num)
    on_stack = bytearray(num)
    stack = []
    counter = 0
    ncomp = 0
    for root in range(num):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        call = [(root, offsets[root])]
        while call:
            v, ptr = call[-1]
            if ptr < offsets[v + 1]:
                call[-1] = (v, ptr + 1)
                w = targets[ptr]
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    call.append((w, offsets[w]))
                elif on_stack[w] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                call.pop()
                if low[v] == disc[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if call and low[v] < low[call[-1][0]]:
                    low[call[-1][0]] = low[v]
    return ncomp, comp


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
    ok = digraph.is_strongly_connected
    return NPathVerdict(n, ok, "" if ok else "not-strongly-connected",
                        digraph.state_count, digraph.scc_summary().count)


def is_n_transferable(graph, n, budget=DEFAULT_BUDGET):
    """True iff the graph has an n-path and all n-paths reach each other."""
    return n_verdict(graph, n, budget).transferable


@dataclass(frozen=True)
class TransferabilityResult:
    """Outcome of the sweep over path lengths.

    ``value`` is the largest n up to ``search_bound`` found
    transferable (0 when none is); the sweep checks every n
    individually and assumes no monotonicity.  ``truncated_at`` names
    the first n the state budget refused, or None.
    """

    value: int
    per_n: tuple
    search_bound: int
    truncated_at: object = None


def transferability(graph, max_n=None, budget=DEFAULT_BUDGET):
    """Sweep n = 1..max_n and report the transferability value.

    Without ``max_n`` the sweep runs to the graph's exact longest-path
    length, which is itself found by exhaustive search and is only
    feasible for small graphs.
    """
    if max_n is None:
        max_n = longest_path_bound(graph, budget)
    per_n = []
    value = 0
    truncated_at = None
    bound = 0
    for n in range(1, max_n + 1):
        try:
            verdict = n_verdict(graph, n, budget)
        except BudgetError:
            truncated_at = n
            break
        bound = n
        per_n.append(verdict)
        if verdict.transferable:
            value = n
    return TransferabilityResult(value=value, per_n=tuple(per_n),
                                 search_bound=bound,
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


def longest_path_bound(graph, budget=DEFAULT_BUDGET):
    """Exact longest simple path length, by exhaustive search.

    Counts every path extension against the budget, so this is for
    small graphs only; bigger sweeps should pass ``max_n`` explicitly.
    """
    space = _Space(graph)
    best = 0
    count = 0
    for s in range(len(space.names)):
        stack = [space.single(s)]
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
                    stack.append(p + space.single(w))
    return best
