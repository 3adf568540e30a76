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
Construction stores each edge's two ends once and runs one signed
spanning search, which checks connectivity and decides orientability.

Vertex and edge identifiers are plain strings throughout (the map file
format and the generators only ever produce strings); any hashable,
sortable identifiers work.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``rotation_edges`` maps each vertex to the sequence of incident edge
    ids in rotation order; an edge id must appear exactly twice in the
    whole system (twice at the same vertex for a loop).  ``signature``
    maps edge ids to +1 or -1; omitted edges default to +1.

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
        self._dart_vertex = {}
        self._dart_pos = {}
        for v in self.vertices:
            row = tuple(rotation_edges[v])
            if not row:
                raise StructureError("vertex %r has an empty rotation" % (v,))
            darts = []
            for e in row:
                at = ends.setdefault(e, [])
                if len(at) > 1:
                    raise StructureError(
                        "edge %r appears more than twice" % (e,))
                d = Dart(e, len(at))
                self._dart_vertex[d] = v
                self._dart_pos[d] = len(darts)
                darts.append(d)
                at.append(v)
            rotation[v] = tuple(darts)
        bad = sorted(e for e, at in ends.items() if len(at) != 2)
        if bad:
            raise StructureError(
                "edge %r must appear exactly twice, found once" % (bad[0],))
        self.rotation = rotation
        self.edges = tuple(sorted(ends))
        self._ends = {e: tuple(at) for e, at in ends.items()}
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
        ids sorted, so the construction is deterministic.  Pairs listed
        in ``negative_edges`` get signature -1.
        """
        rotation_edges = {}
        for v, row in neighbors.items():
            if len(set(row)) != len(row) or v in row:
                raise StructureError(
                    "vertex %r: from_rotations only accepts simple graphs" % (v,))
            rotation_edges[v] = [_pair_edge(v, w) for w in row]
        for v, row in neighbors.items():
            for w in row:
                if w not in neighbors or v not in neighbors[w]:
                    raise StructureError(
                        "edge between %r and %r is not listed at both ends" % (v, w))
        signature = {}
        for u, w in negative_edges:
            signature[_pair_edge(u, w)] = -1
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
        return self._dart_vertex[d]

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


def _pair_edge(u, w):
    a, b = sorted((u, w))
    return "%s~%s" % (a, b)


@dataclass(frozen=True)
class FacialWalk:
    """One facial walk, in a fixed canonical direction.

    ``darts[i]`` is the dart the walk leaves along at step ``i`` and
    ``vertex_sequence[i]`` is its anchor vertex, so consecutive entries
    (cyclically) are joined by an edge of the walk.
    """

    darts: tuple
    vertex_sequence: tuple
    degree: int


def _trace_walks(rs):
    """Raw two-sided face trace: orbits over (dart, side) states.

    Starts are taken in (dart, side +1 before -1) order, so each orbit
    begins at its smallest state.  An orbit is decided as it closes:
    kept as traced if its mirror is not traced yet, dropped if it is.
    """
    sig, vertex_of, pos = rs.signature, rs._dart_vertex, rs._dart_pos

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
    # By smallest dart; two faces may share it, seen from its two
    # sides, and then side -1 comes first, unlike in the trace order.
    walks.sort(key=lambda walk: walk[0])
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
        vertex_degrees: vertex -> degree.
        euler_characteristic: V - E + F.
        orientable: ``rs.orientable``, from the construction's search.
        vertex_faces: vertex -> tuple of face indices, one per corner in
            rotation order (corner ``t`` sits between rotation darts
            ``t`` and ``t+1``); repeated indices are repeated incidences.
        edge_faces: edge -> (face index, face index), its two sides.
    """

    def __init__(self, rs):
        self.rs = rs
        walks = []
        corner = {v: [None] * rs.degree(v) for v in rs.vertices}
        edge_faces = {e: [] for e in rs.edges}
        for idx, states in enumerate(_trace_walks(rs)):
            darts = tuple(d for d, _ in states)
            walks.append(FacialWalk(
                darts=darts,
                vertex_sequence=tuple(rs.dart_vertex(d) for d in darts),
                degree=len(darts),
            ))
            n = len(states)
            for i in range(n):
                d, _ = states[i]
                nxt, side = states[(i + 1) % n]
                edge_faces[d.edge].append(idx)
                arrive = d.opposite()
                w = rs.dart_vertex(nxt)
                t = rs._dart_pos[arrive] if side == 1 else rs._dart_pos[nxt]
                if corner[w][t] is not None:
                    raise StructureError(
                        "corner %d of vertex %r traced twice" % (t, w))
                corner[w][t] = idx
        for v, faces in corner.items():
            if None in faces:
                raise StructureError("corner of vertex %r never traced" % (v,))
        self.faces = tuple(walks)
        self.vertex_faces = {v: tuple(faces) for v, faces in corner.items()}
        self.edge_faces = {e: tuple(sides) for e, sides in edge_faces.items()}
        self.face_degrees = tuple(w.degree for w in self.faces)
        self.vertex_degrees = {v: rs.degree(v) for v in rs.vertices}
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
        """Sorted degrees of the faces around ``v``, one entry per
        incidence: the (a1, ..., an) naming a degree-n vertex."""
        if v not in self.vertex_faces:
            raise StructureError("unknown vertex %r" % (v,))
        return tuple(sorted(self.face_degrees[f] for f in self.vertex_faces[v]))

    def classify_edge(self, e):
        """weak: both endpoints of degree 3; semi_weak: exactly one."""
        if e not in self.edge_faces:
            raise StructureError("unknown edge %r" % (e,))
        u, w = self.rs.endpoints(e)
        three = (self.vertex_degrees[u] == 3) + (self.vertex_degrees[w] == 3)
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

