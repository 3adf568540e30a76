"""Signed rotation systems and the face structure they induce.

A map (a graph 2-cell embedded in a closed surface) is encoded purely
combinatorially:

* every edge contributes two *darts*, one per end;
* every vertex carries a cyclic sequence of the darts anchored at it
  (the *rotation*, the order in which the edge-ends leave the vertex);
* every edge carries a *signature* in ``{+1, -1}``.

All-positive signatures describe embeddings in orientable surfaces; a
negative edge reverses the local sense of rotation when crossed, which
is how embeddings in non-orientable surfaces are written down.  Faces
are recovered by the usual trace: follow a dart to its far end and turn
to the rotation successor there (predecessor while the accumulated
signature is negative).  The trace walks over ``(dart, side)`` pairs so
that every dart is seen from both of its sides exactly once; each face
is traced once per direction, and the direction traced first is kept.
:func:`topology` numbers the darts ``2 * rank(edge) + end``, so the ids
sort like the darts they name, and traces on integer states through
lists indexed by dart id.  Construction stores each edge's two ends
once (the only record of a dart's vertex) and runs one signed spanning
search, which checks connectivity and decides orientability.

Vertex and edge identifiers are plain strings throughout (the map file
format and the generators only ever produce strings); any hashable,
sortable identifiers work.
"""

from typing import NamedTuple

from .errors import StructureError

__all__ = [
    "Dart",
    "RotationSystem",
    "FacialWalk",
    "MapTopology",
    "trace_faces",
    "topology",
]


class Dart(NamedTuple):
    """One end of an edge.  ``end`` is 0 or 1 in file/scan order."""

    edge: str
    end: int

    def opposite(self):
        return Dart(self.edge, 1 - self.end)


class RotationSystem:
    """A connected graph with a cyclic dart order per vertex and an edge
    signature: the combinatorial encoding of a map on a closed surface.

    ``rotation_edges`` maps each vertex to an iterable of incident edge
    ids in rotation order, read once (a list, a string, a one-shot
    iterator); an edge id must appear exactly twice in the whole system
    (twice at the same vertex for a loop), and a row that gives no id
    is an empty rotation.  ``signature`` maps edge ids to +1 or -1;
    omitted edges default to +1.

    Dart ends are normalised on construction: scanning vertices in
    sorted order and rotations left to right, the first occurrence of an
    edge becomes end 0.  Parsing and serialising use the same scan
    order, which makes the file round trip reproduce the object exactly.
    ``orientable`` is decided during construction by the same signed
    spanning search that checks the graph is connected.
    """

    def __init__(self, rotation_edges, signature=None):
        if not rotation_edges:
            raise StructureError("rotation system has no vertices")
        self.vertices = tuple(sorted(rotation_edges))
        ends = {}
        rotation = {}
        for v in self.vertices:
            darts = []
            for e in rotation_edges[v]:
                at = ends.get(e, ())
                if len(at) > 1:
                    raise StructureError(
                        "edge %r appears more than twice" % (e,))
                darts.append(Dart(e, len(at)))
                ends[e] = at + (v,)
            if not darts:
                raise StructureError("vertex %r has an empty rotation" % (v,))
            rotation[v] = tuple(darts)
        bad = sorted(e for e, at in ends.items() if len(at) != 2)
        if bad:
            raise StructureError(
                "edge %r must appear exactly twice, found once" % (bad[0],))
        self.rotation = rotation
        self.edges = tuple(sorted(ends))
        self._ends = ends
        sig = {e: 1 for e in self.edges}
        for e, s in (signature or {}).items():
            if e not in sig:
                raise StructureError("signature given for unknown edge %r" % (e,))
            if s not in (1, -1):
                raise StructureError("signature of %r must be +1 or -1" % (e,))
            sig[e] = s
        self.signature = sig
        self.orientable = self._signed_search()

    @classmethod
    def from_rotations(cls, neighbors, negative_edges=()):
        """Build a system for a simple graph from neighbour lists.

        ``neighbors`` maps each vertex to its neighbours in rotation
        order.  Edge ids are generated as ``"u~w"`` with the endpoint
        ids sorted, so the construction is deterministic; inside each
        endpoint id ``%`` is written ``%25`` and ``~`` is written
        ``%7E``, so two different pairs never share an id, and ids
        free of both characters read as before (``"a0.0~b0.0"``).  One
        walk over each row names its edges and checks that the row
        repeats no neighbour, holds no loop, and is listed back at
        every neighbour.  Pairs listed in ``negative_edges`` get
        signature -1; a pair that is not an edge raises StructureError.
        """
        rotation_edges = {}
        for v, row in neighbors.items():
            if len(set(row)) != len(row) or v in row:
                raise StructureError(
                    "vertex %r: from_rotations only accepts simple graphs" % (v,))
            ids = rotation_edges[v] = []
            for w in row:
                if v not in neighbors.get(w, ()):
                    raise StructureError(
                        "edge between %r and %r is not listed at both ends" % (v, w))
                ids.append(_pair_edge(v, w))
        signature = {_pair_edge(u, w): -1 for u, w in negative_edges}
        return cls(rotation_edges, signature)

    def _signed_search(self):
        # One spanning search checks connectivity and orientability: each
        # newly reached vertex is flipped so that the edge reaching it
        # reads +1, and the map is orientable iff every other edge then
        # reads +1 too.  A negative loop always reads -1 (a crosscap).
        sig, ends = self.signature, self._ends
        flip = {self.vertices[0]: 1}
        stack = [self.vertices[0]]
        orientable = True
        while stack:
            v = stack.pop()
            for e, end in self.rotation[v]:
                w = ends[e][1 - end]
                s = flip[v] * sig[e]
                if w not in flip:
                    flip[w] = s
                    stack.append(w)
                elif flip[w] != s:
                    orientable = False
        if len(flip) != len(self.vertices):
            missing = sorted(set(self.vertices) - set(flip))
            raise StructureError(
                "underlying graph is disconnected (vertex %r unreachable)"
                % (missing[0],))
        return orientable

    # -- basic accessors -------------------------------------------------

    def degree(self, v):
        """Number of darts at ``v`` (a loop counts twice)."""
        return len(self.rotation[v])

    def dart_vertex(self, d):
        """The vertex at dart ``d``; KeyError if ``d`` is not a dart here."""
        edge, end = d
        if end not in (0, 1) or edge not in self._ends:
            raise KeyError(d)
        return self._ends[edge][end]

    def endpoints(self, e):
        """Both endpoints of edge ``e`` in end order (equal for a loop)."""
        return self._ends[e]

    def adjacency(self):
        """Underlying simple adjacency: vertex -> sorted neighbour tuple.

        Loops are dropped and parallel edges collapse; use this for the
        path machinery, which works on the abstract graph.
        """
        adj = {v: set() for v in self.vertices}
        for u, w in self._ends.values():
            if u != w:
                adj[u].add(w)
                adj[w].add(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def __eq__(self, other):
        if not isinstance(other, RotationSystem):
            return NotImplemented
        return (self.rotation == other.rotation
                and self.signature == other.signature)

    def __repr__(self):
        return "<RotationSystem V=%d E=%d>" % (len(self.vertices), len(self.edges))


def _escape(ident, sep):
    """``ident`` as a string with ``%`` written ``%25`` and ``sep`` as its
    ``%XX`` code, so ``sep`` can join escaped ids without two joins
    colliding; an id free of both characters is returned unchanged."""
    s = str(ident)
    if "%" in s or sep in s:
        return s.replace("%", "%25").replace(sep, "%%%02X" % ord(sep))
    return s


def _pair_edge(u, w):
    a, b = (u, w) if u < w else (w, u)
    return "%s~%s" % (_escape(a, "~"), _escape(b, "~"))


class FacialWalk(NamedTuple):
    """One facial walk, in a fixed canonical direction.

    ``darts[i]`` is the dart the walk leaves along at step ``i`` and
    ``vertex_sequence[i]`` is its anchor vertex, so consecutive entries
    (cyclically) are joined by an edge of the walk.
    """

    darts: tuple
    vertex_sequence: tuple
    degree: int


def _trace_walks(neg, succ, pred):
    """Raw two-sided face trace: orbits over integer states.

    Dart ``i`` is end ``i & 1`` of edge ``i >> 1`` in sorted order, and
    ``succ``/``pred`` give its rotation neighbours; ``neg[e]`` is true for
    a negative edge.  State ``2 * i + b`` leaves along dart ``i`` with
    side +1 (b = 0) or -1 (b = 1), so states sort like ``(dart, side)``
    pairs taken +1 before -1, and each orbit begins at its smallest
    state.  An orbit is decided as it closes: kept as traced if its
    mirror is not traced yet, dropped if it is.  An orbit that is its
    own mirror contradicts the trace, a bug rather than bad input, and
    raises RuntimeError, as does a corner ``MapTopology`` finds traced
    twice or never.
    """
    # Arriving over dart i ^ 1, turn to its rotation successor while the
    # side times the signature reads +1, to its predecessor otherwise.
    step = []
    for i in range(len(succ)):
        o = i ^ 1
        if neg[i >> 1]:
            step += (2 * pred[o] + 1, 2 * succ[o])
        else:
            step += (2 * succ[o], 2 * pred[o] + 1)
    # step is a permutation, so every orbit closes at its start.
    orbit_of = [-1] * len(step)
    walks = []
    for start in range(len(step)):
        if orbit_of[start] >= 0:
            continue
        orbit = []
        cur = start
        while orbit_of[cur] < 0:
            orbit_of[cur] = start
            orbit.append(cur)
            cur = step[cur]
        # The mirror leaves along the other end of the edge, on the side
        # the signature makes of this one, reversed.
        mirror = orbit_of[start ^ 2 ^ (not neg[start >> 2])]
        if mirror == start:
            raise RuntimeError("facial walk is its own mirror image")
        if mirror < 0:
            walks.append(orbit)
    # By smallest dart; two faces may share it, seen from its two
    # sides, and then side -1 comes first, unlike in the trace order.
    walks.sort(key=lambda walk: walk[0] ^ 1)
    return walks


def trace_faces(rs):
    """All facial walks of ``rs``: the faces of :func:`topology`.

    Every ``(dart, side)`` pair is consumed exactly once over the full
    two-sided trace; each face is kept in one canonical direction.
    Faces are returned ordered by their smallest contained dart.
    """
    return list(topology(rs).faces)


class MapTopology:
    """Everything derived from one face trace of a rotation system.

    Attributes:
        rs: the underlying rotation system.
        faces: tuple of FacialWalk, in canonical order.
        face_degrees: degree of each face, indexed like ``faces``.
        euler_characteristic: V - E + F.
        orientable: ``rs.orientable``, from the construction's search.
        vertex_faces: vertex -> tuple of face indices, one per corner in
            rotation order (corner ``t`` sits between rotation darts
            ``t`` and ``t+1``); repeated indices are repeated incidences.
        vertex_types: vertex -> sorted degrees of its faces, one entry
            per incidence: the type (a1, ..., an) naming a degree-n
            vertex, all that curvature and the light table read.
        edge_faces: edge -> (face index, face index), its two sides.
    """

    def __init__(self, rs):
        self.rs = rs
        # Dart tables indexed by dart id 2 * rank(edge) + end: the Dart,
        # its vertex, its rotation successor and predecessor.
        rank = {e: r for r, e in enumerate(rs.edges)}
        num = 2 * len(rank)
        dart, vertex = [None] * num, [None] * num
        succ, pred = [0] * num, [0] * num
        rows = []
        for v in rs.vertices:
            row = rs.rotation[v]
            ids = [2 * rank[e] + end for e, end in row]
            prev = ids[-1]
            for d, i in zip(row, ids):
                dart[i], vertex[i] = d, v
                pred[i], succ[prev] = prev, i
                prev = i
            rows.append(ids)
        neg = [rs.signature[e] < 0 for e in rs.edges]
        walks = []
        # corner[i]: the face at the corner after rotation dart i
        corner = [-1] * num
        sides = [[] for _ in rs.edges]
        for idx, states in enumerate(_trace_walks(neg, succ, pred)):
            ids = [s >> 1 for s in states]
            walks.append(FacialWalk(
                darts=tuple([dart[i] for i in ids]),
                vertex_sequence=tuple([vertex[i] for i in ids]),
                degree=len(ids),
            ))
            for s, nxt in zip(states, states[1:] + states[:1]):
                sides[s >> 2].append(idx)
                # the turn from arrival dart (s >> 1) ^ 1 to nxt's dart
                # passes the corner after the former on side +1, after
                # the latter on side -1
                c = nxt >> 1 if nxt & 1 else (s >> 1) ^ 1
                if corner[c] >= 0:
                    raise RuntimeError(
                        "corner %d of vertex %r traced twice"
                        % (rs.rotation[vertex[c]].index(dart[c]), vertex[c]))
                corner[c] = idx
        vertex_faces = {v: tuple([corner[i] for i in ids])
                        for v, ids in zip(rs.vertices, rows)}
        if -1 in corner:
            v = next(v for v, faces in vertex_faces.items() if -1 in faces)
            raise RuntimeError("corner of vertex %r never traced" % (v,))
        self.faces = tuple(walks)
        self.vertex_faces = vertex_faces
        self.edge_faces = dict(zip(rs.edges, map(tuple, sides)))
        self.face_degrees = degrees = tuple(w.degree for w in self.faces)
        self.vertex_types = {
            v: tuple(sorted([degrees[f] for f in faces]))
            for v, faces in vertex_faces.items()}
        self.euler_characteristic = (
            len(rs.vertices) - len(rs.edges) + len(self.faces))
        self.orientable = rs.orientable

    @property
    def num_vertices(self):
        return len(self.rs.vertices)

    @property
    def num_edges(self):
        return len(self.rs.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    def vertex_type(self, v):
        """``vertex_types[v]``; StructureError for an unknown vertex."""
        if v not in self.vertex_types:
            raise StructureError("unknown vertex %r" % (v,))
        return self.vertex_types[v]

    def classify_edge(self, e):
        """weak: both endpoints of degree 3; semi_weak: exactly one."""
        if e not in self.edge_faces:
            raise StructureError("unknown edge %r" % (e,))
        u, w = self.rs.endpoints(e)
        three = (self.rs.degree(u) == 3) + (self.rs.degree(w) == 3)
        return ("normal", "semi_weak", "weak")[three]

    def face_class(self, f):
        """minor: degree <= 5; major: degree >= 7; six otherwise."""
        if not 0 <= f < len(self.faces):
            raise StructureError("unknown face index %r" % (f,))
        d = self.face_degrees[f]
        if d <= 5:
            return "minor"
        if d >= 7:
            return "major"
        return "six"


def topology(rs):
    """Trace ``rs`` and assemble the full :class:`MapTopology`."""
    return MapTopology(rs)

