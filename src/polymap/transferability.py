"""Directed path moves on a graph and transferability by state search.

A directed path of n edges slides like a train: one move drops the
tail and appends a neighbour of the head that is not an inner vertex
(the old tail itself is a legal target, since it is no longer on the
path once it is dropped).  The graph is *n-transferable* when it has at
least one n-path and every n-path can reach every other by such moves;
the transferability value is the largest such n.

The transfer digraph has a node per directed n-path and an arc per
move.  No arc is stored: in lexicographic order the moves from p are
the *block* of states with prefix p[1:], so the digraph is the line
digraph of a smaller *block digraph* H, a node per (n - 1)-path and an
arc per n-path.  The n-paths are built from the (n - 1)-paths, one
level per edge, so a sweep over n extends one chain of levels.  A level
is built run by run: a run is a maximal stretch of consecutive states
whose p[1:] are consecutive, the moves out of a run are one range of
states, and so each run adds one array slice to each column of the next
level, cut only where a move onto the tail is dropped.  A level thus
has at most as many runs as the last one plus the moves it drops, and
the per-state work of a build is array slicing.  A level stores each
fact once: per state only its head, per block its first state and its
size, per run its first suffix and first state, and the V + 1 bounds of
its tail runs; a state's suffix and tail are read off the runs and the
bounds, and its path off its block's path and its head.  Since
reversing every path turns the digraph into its converse, the sinks
that trimming H sheds are the reverses of its sources, and two forward
searches on what is left decide strong connectivity and count the
components; Tarjan on H runs only when that core is not one component.
Trimming and the searches also work run by run: the sources are the
gaps between the runs' intervals of suffixes, a node the trimming
reaches has its in-degree counted from those intervals, and a search
visits intervals of nodes, whose moves the runs turn into intervals of
suffixes.
H is the transfer digraph of the (n - 1)-paths less their moves onto
their own tails, so where the graph has no n-cycle the two are equal,
and a sweep that found n - 1 transferable carries that verdict to n
with no search (H strongly connected makes its line digraph so).
A stuck n-path, one with no move, is a sink of the n-transfer digraph,
so its suffix's block is empty: a chain of levels 1..n with no empty
block proves that there is none, and only a depth-first search finds
one.
State counts grow quickly with n; a configurable budget on path
extensions -- the states of every level up to n, which are the steps a
path search makes, prefixes included -- aborts runs that would not fit
in memory or time.  The chain is charged exactly what an exhaustive
search is, so a search that goes on past a chain that fits stays
within the budget.

Graphs are plain adjacency mappings (vertex -> iterable of neighbours),
e.g. the output of ``RotationSystem.adjacency()``.  Loops are rejected
and parallel edges are meaningless here, so only simple graphs apply.
"""

import itertools
import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import NamedTuple

from .errors import BudgetError, StructureError

# The sweep function transferability is not listed: the package
# re-exports this list, and there it would hide this module.
__all__ = [
    "DEFAULT_BUDGET",
    "PathState",
    "TransferDigraph",
    "SccSummary",
    "NPathVerdict",
    "TransferabilityResult",
    "steps",
    "enumerate_paths",
    "build_transfer_digraph",
    "n_verdict",
    "find_stuck",
]

# The 1..13 sweep on either 54-vertex cubic map (truncate(hex_torus(3, 3))
# and its Klein-bottle twin) needs at most 374 814 extensions for one n,
# at n = 13: 13x headroom.
DEFAULT_BUDGET = 5_000_000


class _PathState(NamedTuple):
    vertices: tuple


class PathState(_PathState):
    """A directed simple path, tail first, head last."""

    __slots__ = ()

    def __new__(cls, vertices):
        vertices = tuple(vertices)
        if not vertices:
            raise StructureError("a path needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise StructureError("path vertices must be distinct")
        # the base's generated __new__ does only this, one call deeper
        return tuple.__new__(cls, (vertices,))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here, so its result is checked too
        return cls(*iterable)

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
    """Graph recoded on integer vertices 0..V-1 in sorted id order.

    ``typecode`` is the one choice of how wide a level array's items
    are, made when ``_grow`` builds the arrays; every byte search reads
    the width off the array it searches."""

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
        # level arrays hold vertex indices as 16-bit ints when they fit,
        # else as 32-bit ints
        self.typecode = "H" if len(self.names) <= 1 << 16 else "i"

    def decode(self, state):
        return PathState(tuple(map(self.names.__getitem__, state)))

    def check_path(self, path):
        for v in path.vertices:
            if v not in self.index:
                raise StructureError("path vertex %r is not in the graph" % (v,))
        for u, w in zip(path.vertices, path.vertices[1:]):
            if self.index[w] not in self.adj[self.index[u]]:
                raise StructureError(
                    "path vertices %r and %r are not adjacent" % (u, w))


def _budget_error(budget, n):
    """The error for a path search or level build past ``budget``
    extensions, counting the one that broke it."""
    return BudgetError(
        "more than %d path extensions while enumerating directed %d-paths; "
        "raise the budget to enumerate them" % (budget, n), budget + 1)


def steps(graph, path):
    """All states one move away from ``path``, ascending by new head."""
    if path.length < 1:
        raise StructureError("moves need a path with at least one edge")
    space = _Space(graph)
    space.check_path(path)
    names, inner = space.names, path.vertices[1:-1]
    return [PathState(path.vertices[1:] + (names[w],))
            for w in space.adj[space.index[path.head]]
            if names[w] not in inner]


def enumerate_paths(graph, n, budget=DEFAULT_BUDGET):
    """Every directed simple path with ``n`` edges, lexicographic order."""
    digraph = build_transfer_digraph(graph, n, budget)
    paths = [(v,) for v in digraph._space.names]
    return tuple(map(PathState, digraph._labels(paths, paths)))


class SccSummary(NamedTuple):
    """How many strong components a transfer digraph has, and how big."""

    count: int
    sizes: tuple  # descending


class TransferDigraph:
    """All directed n-paths of a graph, at lexicographic indices.

    ``state_at``/``index_of`` translate between indices and PathState
    through the two chain readers: ``_walks`` reads the vertices of
    states off the levels and ``_find`` finds states by their vertices.
    The n-paths are one level of a chain: ``_prev`` holds the
    (n - 1)-paths (None for n = 1, whose 0-paths are the vertices).
    A level stores each fact once.  Per state it keeps only ``_head``.
    The states whose first n vertices are the (n - 1)-path b form the
    block ``range(_first[b], _first[b + 1])``; ``_sizes``, the block
    sizes in the vertex typecode, is ``_first``'s differences, kept
    because ``_grow`` gathers it by slicing, ``_may_be_stuck``
    byte-searches it and ``_labels`` repeats labels by it, where
    deriving it would cost a Python step per state.  A state's suffix
    is the index of its p[1:] among the (n - 1)-paths, so ``_first``
    and the suffixes are the offset/target arrays of H: a node per
    (n - 1)-path, an arc per state.  ``_runs`` holds the maximal runs of
    consecutive states with consecutive suffixes as two arrays, each
    run's first suffix and its first state (then the state count): one
    bisection of the latter gives a state's suffix (``_suffixes``), and
    the moves out of a run are one range of states.  The tails are
    sorted, and ``_bounds`` holds the V + 1 bounds of their runs: tail
    run v is ``range(_bounds[v], _bounds[v + 1])``.  H is the transfer
    digraph of the (n - 1)-paths less their moves onto their own tails,
    which close an n-cycle; ``_dropped`` counts those moves (None for
    the empty digraph of n >= V, which is built from no level).
    """

    def __init__(self, space, n, prev, head, first, dropped, sizes, runs,
                 bounds):
        self._space = space
        self.n = n
        self._prev = prev
        self._head = head
        self._first = first
        self._dropped = dropped
        self._sizes = sizes
        self._runs = runs
        self._bounds = bounds

    @property
    def state_count(self):
        return len(self._head)

    @property
    def arc_count(self):
        first, (starts, offsets) = self._first, self._runs
        return sum(first[s + hi - lo] - first[s]
                   for s, lo, hi in zip(starts, offsets, offsets[1:]))

    def _levels(self):
        """The levels of the chain, one edge first and this one last."""
        levels = []
        level = self
        while level is not None:
            levels.append(level)
            level = level._prev
        return levels[::-1]

    def _walks(self, states):
        """The vertex indices of ``states`` as n + 1 lists, tail first:
        list k holds each state's vertex k.  Each level reads the heads
        of the states, then bisects its blocks for their prefixes."""
        walks = []
        for level in reversed(self._levels()):
            first, head = level._first, level._head
            walks.append([head[i] for i in states])
            states = [bisect_right(first, i) - 1 for i in states]
        walks.append(states)
        return walks[::-1]

    def _find(self, walks):
        """The indices of the states whose vertex indices are ``walks``,
        laid out as ``_walks`` returns them: each level bisects the block
        of each prefix found so far for its next vertex.  Every walk must
        be a path of the graph with n edges, which is always a state."""
        states = walks[0]
        for level, walk in zip(self._levels(), walks[1:]):
            first, head = level._first, level._head
            states = [bisect_left(head, v, first[i], first[i + 1])
                      for i, v in zip(states, walk)]
        return states

    def _labels(self, labels, ends):
        """One label per state, in index order, from one per vertex:
        each level adds ``ends[h]`` for its head h to its block's label,
        repeated by the block's size."""
        for level in self._levels():
            labels = list(map(operator.add, itertools.chain.from_iterable(
                map(itertools.repeat, labels, level._sizes)),
                map(ends.__getitem__, level._head)))
        return labels

    def state_at(self, i):
        walks = self._walks([range(self.state_count)[i]])
        return self._space.decode([walk[0] for walk in walks])

    def index_of(self, path):
        space = self._space
        try:
            space.check_path(path)
        except StructureError:
            pass
        else:
            if path.length == self.n:
                return self._find([[space.index[v]]
                                   for v in path.vertices])[0]
        raise ValueError("%r is not a %d-path of this graph" % (path, self.n))

    def successors_of(self, i):
        i = range(self.state_count)[i]
        b = next(_suffixes(self._runs, i, i + 1)).start
        return range(self._first[b], self._first[b + 1])

    def scc_summary(self):
        """The strong components of the transfer digraph, by trimming H.

        Arcs of H inside one of its strong components form one strong
        component; an arc across two forms one alone (Harary & Norman).
        The in-degree-0 cascade of H lies on no cycle, and reversing
        every path maps H onto its converse, so the out-degree-0 cascade
        is its image under reversal (the identity for n = 1, whose nodes
        are vertices) and no reverse arc is needed; the sources are
        reversed all together, level by level: their paths are read
        (``_walks``) and found again in reverse order (``_find``).  Each
        trimmed node is a component of H alone, so each arc with a
        trimmed end is one component.  What is left, the core, is one
        component iff forward searches from a core node x and from
        rev(x), kept to arcs into the core, reach all of it; then its
        arcs are one more component.
        Trimming and both searches work on ``_runs`` and ``_first``: the
        in-degrees are counted from the runs' intervals of suffixes, only
        at the nodes the trimming reaches (``_sources``), the cut is
        summed over the trimmed nodes alone, and a source's block and a
        search's interval of nodes have arcs that the runs cut into
        intervals of suffixes.  Only a core that splits goes through
        Tarjan, on per-state lists.

        The first search proves half of that by reversal: if x reaches
        every core node rev(y), reversing the path shows that y reaches
        rev(x), so every core node reaches rev(x).  The search from
        rev(x) supplies the other half, that rev(x) reaches every node,
        and then any u reaches any v through rev(x).  Whether x reaching
        the core ever leaves rev(x) short of it is open; until a proof
        that it cannot, both searches run.  At n = 1 reversal fixes x, so
        one search from x settles both halves and runs once.
        """
        first, runs = self._first, self._runs
        sources = _sources(first, runs)
        prev = self._prev

        def rev(nodes):
            return nodes if prev is None else \
                prev._find(prev._walks(nodes)[::-1])

        trimmed = set(sources)
        trimmed.update(rev(sources))
        trim = bytearray(len(first) - 1)
        for b in trimmed:
            trim[b] = 1
        # the arcs with a trimmed end: those out of a trimmed node, then
        # those from the core into one, which end at a sink and so,
        # reversed, run from a source into the core
        cut = sum(first[b + 1] - first[b] for b in trimmed)
        cut += sum(trim.count(0, r.start, r.stop) for b in sources
                   for r in _suffixes(runs, first[b], first[b + 1]))
        x, core, states = trim.find(0), trim.count(0), self.state_count
        if x < 0 or all(_reach(first, runs, trim, y) == core
                        for y in {x, *rev([x])}):
            # with no core every arc has a trimmed end: cut == states
            sizes = (states - cut,) * (x >= 0) + (1,) * cut
        else:
            first = first.tolist()
            suffix = list(itertools.chain.from_iterable(
                _suffixes(runs, 0, states)))
            label = _tarjan(len(trim), first, suffix)
            heads = [label[c] for c in suffix]
            inner = [0] * len(trim)
            for b, a in enumerate(label):
                inner[a] += heads[first[b]:first[b + 1]].count(a)
            sizes = sorted(filter(None, inner), reverse=True)
            sizes += [1] * (states - sum(inner))
        return SccSummary(count=len(sizes), sizes=tuple(sizes))

    def _verdict(self):
        """The n-verdict: no n-path, or transferable iff the transfer
        digraph is one strong component (``scc_summary``)."""
        n, states = self.n, self.state_count
        if not states:
            return NPathVerdict(n, False, "no-n-path", 0, 0)
        count = self.scc_summary().count
        ok = count == 1
        return NPathVerdict(n, ok, "" if ok else "not-strongly-connected",
                            states, count)

    def to_dot(self):
        """The digraph in DOT format, states as comma-joined vertex ids."""
        return "".join(self.dot_lines())

    def dot_lines(self):
        """The lines of ``to_dot()``, newline included, one at a time."""
        names = [str(v).replace("\\", "\\\\").replace('"', '\\"')
                 for v in self._space.names]
        labels = self._labels(names, ["," + name for name in names])
        yield "digraph transfer {\n"
        for label in labels:
            yield '  "%s";\n' % label
        first = self._first
        suffixes = itertools.chain.from_iterable(
            _suffixes(self._runs, 0, len(labels)))
        for label, b in zip(labels, suffixes):
            for j in range(first[b], first[b + 1]):
                yield '  "%s" -> "%s";\n' % (label, labels[j])
        yield "}\n"


def _suffixes(runs, a, b):
    """The suffixes of states a..b - 1, in order, as one range per run
    they meet: one bisection finds the run of state a."""
    starts, offsets = runs
    r = bisect_right(offsets, a) - 1
    while a < b:
        end = min(offsets[r + 1], b)
        s = starts[r] + a - offsets[r]
        yield range(s, s + end - a)
        a = end
        r += 1


def _sources(first, runs):
    """The in-degree-0 cascade of H, in the order it is trimmed.  A run
    covers each of its suffixes once, so a node's in-degree is the
    number of runs whose interval of suffixes holds it: the number of
    interval starts at or below it less the number of ends.  So with
    both sorted, the nodes from the i-th end up to the (i + 1)-th start
    are the sources, in order, and a node the cascade reaches has its
    in-degree counted by two bisections; only the nodes it reaches are
    kept, in a dict."""
    starts, offsets = runs
    begins = sorted(starts)
    ends = sorted(map(operator.add, starts,
                      map(operator.sub, offsets[1:], offsets)))
    sources = list(itertools.chain.from_iterable(
        map(range, [0] + ends, begins + [len(first) - 1])))
    indegree = {}
    for b in sources:
        for r in _suffixes(runs, first[b], first[b + 1]):
            for c in r:
                d = indegree.get(c)
                if d is None:
                    d = bisect_right(begins, c) - bisect_right(ends, c)
                indegree[c] = d = d - 1
                if not d:
                    sources.append(c)
    return sources


def _reach(first, runs, trim, x):
    """How many nodes of the core a breadth-first search on H from x
    reaches, taking only arcs into the core (trimmed nodes start out
    seen).  The search runs on intervals of nodes: the arcs out of the
    nodes lo..hi - 1 are the states ``range(first[lo], first[hi])``,
    which the runs cut into intervals of suffixes, and each unseen
    stretch of those is marked with one slice and becomes an interval of
    the next round.  Each round sorts its intervals and merges those
    that abut, so it meets the runs in order: the bisection for an
    interval's first run starts at the last interval's last run."""
    starts, offsets = runs
    seen = bytearray(trim)
    seen[x] = 1
    ones = memoryview(b"\1" * len(seen))
    frontier = [(x, x + 1)]
    reached = 1
    while frontier:
        found = []
        k = 0
        for lo, hi in frontier:
            a, b = first[lo], first[hi]
            k = bisect_right(offsets, a, k) - 1
            while a < b:
                end = offsets[k + 1]
                if end > b:
                    end = b
                c1 = starts[k] + end - offsets[k]
                c = seen.find(0, c1 - end + a, c1)
                while c >= 0:
                    e = seen.find(1, c, c1)
                    if e < 0:
                        e = c1
                    seen[c:e] = ones[:e - c]
                    reached += e - c
                    found.append((c, e))
                    c = seen.find(0, e, c1)
                a = end
                k += 1
        found.sort()
        frontier = []
        for c, e in found:
            if frontier and frontier[-1][1] == c:
                frontier[-1] = frontier[-1][0], e
            else:
                frontier.append((c, e))
    return reached


def _tarjan(num, offsets, targets):
    """Each vertex's strong component, named by its root; iterative Tarjan.

    The call stack and the component stack are int arrays and
    ``ptr[v]`` is the next arc of v to follow, so a frame is one array
    slot; a vertex stays on the component stack until it is labelled.
    """
    disc = array("l", [-1]) * num
    low = array("l", [0]) * num
    label = array("l", [-1]) * num
    ptr = array("l", offsets)
    stack = array("l")
    call = array("l")
    counter = 0
    for root in range(num):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
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
                    call.append(w)
                elif label[w] == -1 and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                call.pop()
                if low[v] == disc[v]:
                    while True:
                        w = stack.pop()
                        label[w] = v
                        if w == v:
                            break
                if call and low[v] < low[call[-1]]:
                    low[call[-1]] = low[v]
    return label


def build_transfer_digraph(graph, n, budget=DEFAULT_BUDGET):
    if n < 1:
        raise ValueError("path length must be at least 1")
    return _grow(_Space(graph), n, budget)


def _grow(space, n, budget, digraph=None):
    """The transfer digraph for n-paths, built level by level on
    ``digraph`` (one for fewer edges; None starts from the vertices).

    The (m + 1)-paths from an m-path j are its moves minus the one onto
    its own tail, which would close a cycle; they keep lexicographic
    order, block j and suffix k for a move to state k, and the level
    counts the moves it drops in ``_dropped``.  Each level, level 1
    included, is charged its state count, the states its pieces copy --
    a depth-first search makes that many extensions at depth m -- before
    its heads and runs are built, so the budget refuses a level when
    only its pieces and block sizes (one per state of the last level)
    exist.  For n >= V there is no n-path and nothing is built.

    A level is built from the runs of the last one (``_runs``): the
    moves out of a run with suffixes s..s + L - 1 are the states
    ``range(_first[s], _first[s + L])``, so each run adds that range to
    the new runs, a slice of the last heads to the new heads and
    ``_sizes[s:s + L]`` to the new block sizes.  The range is cut at
    each dropped move, so the new level has at most as many runs as the
    last one plus the moves it drops.  The dropped moves are found by
    scanning each non-empty tail run's heads for the tail's neighbours
    (``_tail_moves``), and each one's target inside its block.  Tail
    run v of the new level is the blocks of the last one's, so its
    bounds are the new ``_first`` at the last bounds.  The pieces of
    every level, level 1's one-vertex pieces included, go through one
    loop that adds their heads and extends the last run in place where
    a piece continues it.  Per level the Python work is O(runs + drops
    + V + deg * non-empty tail runs), and the per-state work is array
    slicing.
    """
    adj, code = space.adj, space.typecode
    if n >= len(space.names):
        return TransferDigraph(space, n, None, array(code), array("i", [0]),
                               None, array(code),
                               (array("i"), array("i", [0])),
                               array("i", [0]) * (len(adj) + 1))
    spent = sum(level.state_count for level in digraph._levels()) \
        if digraph else 0
    while digraph is None or digraph.n < n:
        if digraph is None:  # a 1-path's p[1:] is its head vertex
            bounds, drops = range(len(adj) + 1), []
            heads = array(code, range(len(adj)))
            sizes = array(code, map(len, adj))
            pieces = [(k, k + 1)
                      for k in itertools.chain.from_iterable(adj)]
        else:
            bounds, drops = digraph._bounds, _tail_moves(digraph)
            first, heads = digraph._first, digraph._head
            run_starts, run_offsets = digraph._runs
            sizes = array(code)
            pieces = []
            d = 0
            for s, start, end in zip(run_starts, run_offsets,
                                     run_offsets[1:]):
                sizes += digraph._sizes[s:s + end - start]
                lo = first[s]
                # cut the run's moves at each move onto a tail
                while d < len(drops) and drops[d] < end:
                    j = drops[d]
                    sizes[j] -= 1
                    b = s + j - start
                    k = heads.index(bisect_right(bounds, j) - 1,
                                    first[b], first[b + 1])
                    pieces.append((lo, k))
                    lo = k + 1
                    d += 1
                pieces.append((lo, first[s + end - start]))
        spent += sum(hi - lo for lo, hi in pieces)
        if spent > budget:
            raise _budget_error(budget, n)
        # each piece adds the states lo..hi - 1 of the last level, in
        # order, as suffixes with their heads; it extends the last run
        # in place where that ends at lo, so that every run is maximal
        head, starts, offsets = array(code), array("i"), array("i", [0])
        last = -1
        for lo, hi in pieces:
            head += heads[lo:hi]
            if lo == last:
                offsets[-1] += hi - lo
                last = hi
            elif lo < hi:
                starts.append(lo)
                offsets.append(offsets[-1] + hi - lo)
                last = hi
        blocks = array("i", itertools.accumulate(sizes, initial=0))
        digraph = TransferDigraph(
            space, digraph.n + 1 if digraph else 1, digraph, head, blocks,
            len(drops), sizes, (starts, offsets),
            array("i", map(blocks.__getitem__, bounds)))
    return digraph


def _tail_moves(level):
    """Ascending, the states of ``level`` with a move onto their own
    tail: those whose tail neighbours their head, found by a byte search
    of each tail run's heads for each neighbour of the tail (``_matches``
    on the raw bytes of ``_head``).  Empty tail runs are skipped."""
    head, bounds = level._head, level._bounds
    raw, size = head.tobytes(), head.itemsize
    drops = []
    for row, lo, hi in zip(level._space.adj, bounds, bounds[1:]):
        if lo < hi:
            found = []
            for u in row:
                found += _matches(raw, size, u, lo, hi)
            drops += sorted(found)
    return drops


def _matches(raw, size, value, lo, hi):
    """The indices j in lo..hi - 1, ascending, of the items equal to
    ``value`` in an array of ``size``-byte items with raw bytes ``raw``:
    each is found by ``bytes.find`` of the value's item bytes, skipping
    matches that start inside an item, so no item is compared as a
    Python int."""
    item = value.to_bytes(size, sys.byteorder)
    found = []
    end = hi * size
    j = raw.find(item, lo * size, end)
    while j >= 0:
        if j % size:
            j = raw.find(item, j + size - j % size, end)
        else:
            found.append(j // size)
            j = raw.find(item, j + size, end)
    return found


class NPathVerdict(NamedTuple):
    n: int
    transferable: bool
    reason: str  # "" when transferable, else "no-n-path"/"not-strongly-connected"
    state_count: int
    scc_count: int


def n_verdict(graph, n, budget=DEFAULT_BUDGET):
    """Whether the graph is n-transferable, with the counts behind it."""
    return build_transfer_digraph(graph, n, budget)._verdict()


class TransferabilityResult(NamedTuple):
    """Outcome of the sweep over path lengths.

    ``value`` is the largest n up to ``search_bound`` found
    transferable (0 when none is); the sweep builds each n's digraph
    from the last one's and assumes no monotonicity.  It carries one
    verdict over without a search: when n - 1 is transferable and
    building the n-paths dropped no move (the graph has no n-cycle), H
    is the transfer digraph of the (n - 1)-paths, one strong component
    of at least two nodes, so its line digraph is one component and n
    is transferable too (Harary & Norman).  Every other n is decided by
    its own search.  ``truncated_at`` names the first n the budget
    refused, or None.
    """

    value: int
    per_n: tuple
    search_bound: int
    truncated_at: object = None


def transferability(graph, max_n=None, budget=DEFAULT_BUDGET):
    """Sweep n = 1..max_n and report the transferability value.

    Without ``max_n`` the sweep runs until the first n with no n-path,
    which it leaves out, so ``search_bound`` is the graph's exact
    longest-path length unless ``truncated_at`` is set.  That is an
    exhaustive search, only feasible for small graphs.
    """
    if max_n is not None and max_n < 1:
        raise ValueError("path length must be at least 1")
    space = _Space(graph)
    digraph = verdict = None
    per_n = []
    value = 0
    truncated_at = None
    for n in itertools.count(1) if max_n is None else range(1, max_n + 1):
        try:
            digraph = _grow(space, n, budget, digraph)
        except BudgetError:
            truncated_at = n
            break
        if verdict and verdict.transferable and digraph._dropped == 0:
            verdict = NPathVerdict(n, True, "", digraph.state_count, 1)
        else:
            verdict = digraph._verdict()
        if max_n is None and verdict.reason == "no-n-path":
            break
        per_n.append(verdict)
        if verdict.transferable:
            value = n
    return TransferabilityResult(value=value, per_n=tuple(per_n),
                                 search_bound=len(per_n),
                                 truncated_at=truncated_at)


def find_stuck(graph, n, anchor=None, budget=DEFAULT_BUDGET):
    """First stuck n-path in search order, as a ``PathState``, or None.

    The search order takes the starts in vertex order or, with
    ``anchor`` given, nearest the anchor first, so a path clogged around
    it is found early, and the n-paths from each start in lexicographic
    order.  Every extension, of a prefix or to a full n-path, is
    charged against ``budget``.  A simple n-path needs n + 1 distinct
    vertices, so for n >= V there is none: an unknown anchor still
    raises, but no distance from it is measured and no search is run.

    One depth-first search runs over the starts and returns every
    witness.  The path is a list with an on-path flag per vertex and
    one neighbour iterator per depth; the n-path ``path + [w]`` is stuck
    iff every neighbour of w is on the path and is not its tail.  When
    the first start has no stuck path, the search asks the level chain
    once, before the second start, whether any can be stuck
    (``_may_be_stuck``), and returns None if none can.  Otherwise it
    goes on with the second start, its count where the first start left
    it, so it stops or raises where the whole search does, and after a
    chain that fits it stays within the budget.
    """
    if n < 1:
        raise ValueError("path length must be at least 1")
    space = _Space(graph)
    adj, starts = space.adj, range(len(space.names))
    if anchor is not None and anchor not in space.index:
        raise StructureError("anchor %r is not a vertex" % (anchor,))
    if n >= len(space.names):
        return None
    if anchor is not None:
        dist = _bfs_distances(space, space.index[anchor])
        starts = sorted(starts, key=lambda i: (dist[i], i))
    on_path = bytearray(len(adj))
    count = 0
    for i, s in enumerate(starts):
        if i == 1 and not _may_be_stuck(space, n, budget):
            return None
        path = [s]
        on_path[s] = 1
        nexts = [iter(adj[s])]
        while nexts:
            for w in nexts[-1]:
                if on_path[w]:
                    continue
                count += 1
                if count > budget:
                    raise _budget_error(budget, n)
                if len(path) < n:
                    path.append(w)
                    on_path[w] = 1
                    nexts.append(iter(adj[w]))
                    break
                for x in adj[w]:
                    if not on_path[x] or x == s:
                        break
                else:
                    return space.decode(path + [w])
            else:
                nexts.pop()
                on_path[path.pop()] = 0
    return None


def _may_be_stuck(space, n, budget):
    """Whether level n of the chain has an empty block, or the budget
    refuses the chain.  A stuck n-path is a sink of the n-transfer
    digraph, so the block of its suffix is empty; False thus proves that
    no n-path is stuck.  Building levels 1..n is charged their states,
    exactly the extensions of an exhaustive search."""
    try:
        sizes = _grow(space, n, budget)._sizes
    except BudgetError:
        return True
    return bool(_matches(sizes.tobytes(), sizes.itemsize, 0, 0, len(sizes)))


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
