"""Computations made apart from polymap, used to check its outputs.

Nothing here imports the program.  Maps are read from the map files
with a parser of our own, faces come from a face trace of our own,
3-connectivity from articulation-point searches, and transferability
from a forward and a backward breadth-first search over the move
relation of directed n-paths (no Tarjan, no transfer digraph).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property


class Map:
    """A signed rotation system read from the map-file text."""

    def __init__(self, text):
        self.rotation = {}
        ends = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("surface:"):
                continue
            head, _, body = line[2:].partition(":")
            v = head.strip()
            row = []
            for token in body.split():
                edge, sign = token[:-1], (-1 if token[-1] in "-−" else 1)
                ends.setdefault(edge, []).append((v, len(row), sign))
                row.append(edge)
            self.rotation[v] = row
        self.signature = {}
        self.other_end = {}
        for edge, pair in ends.items():
            if len(pair) != 2:
                raise ValueError("edge %r does not have two ends" % edge)
            (v, i, s), (w, j, t) = pair
            self.signature[edge] = 1 if s == t else -1
            self.other_end[(v, i)] = (w, j)
            self.other_end[(w, j)] = (v, i)
        self.vertices = sorted(self.rotation)
        self.num_edges = len(ends)
        self.adj = {v: set() for v in self.vertices}
        for (v, i), (w, _) in self.other_end.items():
            if v != w:
                self.adj[v].add(w)
        # a loop or a parallel edge leaves fewer neighbours than darts
        self.simple = all(len(self.adj[v]) == self.degree(v)
                          for v in self.vertices)
        self.faces = self._trace_faces()
        self.euler_characteristic = (
            len(self.vertices) - self.num_edges + len(self.faces))

    def degree(self, v):
        return len(self.rotation[v])

    def _trace_faces(self):
        """One vertex sequence per face.

        A state is (vertex, rotation position, side).  Leaving along a
        dart, the side is multiplied by the edge's signature and the walk
        turns to the rotation neighbour on that side at the far end.
        Every face is met twice, once from each side, and the two orbits
        are mirror images; one of each pair is kept.
        """
        orbit_of = {}
        orbits = []
        for v in self.vertices:
            for i in range(self.degree(v)):
                for side in (1, -1):
                    state = (v, i, side)
                    if state in orbit_of:
                        continue
                    orbit = []
                    while state not in orbit_of:
                        orbit_of[state] = len(orbits)
                        orbit.append(state)
                        u, k, s = state
                        w, j = self.other_end[(u, k)]
                        s *= self.signature[self.rotation[u][k]]
                        state = (w, (j + s) % self.degree(w), s)
                    orbits.append(orbit)
        faces = []
        for idx, orbit in enumerate(orbits):
            u, k, s = orbit[0]
            w, j = self.other_end[(u, k)]
            mirror = orbit_of[(w, j, -s * self.signature[self.rotation[u][k]])]
            if mirror == idx:
                raise ValueError("an orbit is its own mirror")
            if idx < mirror:
                faces.append(tuple(state[0] for state in orbit))
        if 2 * len(faces) != len(orbits):
            raise ValueError("face orbits do not pair up")
        return faces

    @property
    def face_degrees(self):
        return sorted(len(f) for f in self.faces)

    @cached_property
    def closed_2cell(self):
        return all(len(set(f)) == len(f) for f in self.faces)

    @property
    def orientable(self):
        flip = {self.vertices[0]: 1}
        queue = deque([self.vertices[0]])
        tree = set()
        while queue:
            v = queue.popleft()
            for i, edge in enumerate(self.rotation[v]):
                w, _ = self.other_end[(v, i)]
                if w not in flip:
                    flip[w] = flip[v] * self.signature[edge]
                    tree.add(edge)
                    queue.append(w)
        for (v, i), (w, _) in self.other_end.items():
            edge = self.rotation[v][i]
            if edge not in tree and flip[v] * self.signature[edge] * flip[w] != 1:
                return False
        return True

    def curvature(self):
        """Exact 1 - deg/2 + sum of 1/deg(face) over corners, per vertex."""
        phi = {v: 1 - Fraction(self.degree(v), 2) for v in self.vertices}
        for face in self.faces:
            for v in face:
                phi[v] += Fraction(1, len(face))
        return phi

    def faces_meet_properly(self):
        """Any two faces share nothing, one vertex, or one edge."""
        shared = {}
        at = {v: [] for v in self.vertices}
        for idx, face in enumerate(self.faces):
            for v in set(face):
                at[v].append(idx)
        for v, fs in at.items():
            for a in range(len(fs)):
                for b in range(a + 1, len(fs)):
                    shared.setdefault((fs[a], fs[b]), []).append(v)
        for (f, g), common in shared.items():
            if len(common) == 1:
                continue
            if len(common) > 2 or common[1] not in self.adj[common[0]]:
                return False
            if not (_has_edge(self.faces[f], common) and _has_edge(self.faces[g], common)):
                return False
        return True

    @cached_property
    def three_connected(self):
        return three_connected(self.adj)

    @cached_property
    def polyhedral(self):
        """Polyhedral iff 3-connected, every face a cycle, and faces
        meeting properly (face-width at least 3)."""
        return (self.simple and self.closed_2cell and self.three_connected
                and self.faces_meet_properly())


def _has_edge(face, pair):
    n = len(face)
    return any({face[i], face[(i + 1) % n]} == set(pair) for i in range(n))


def separates(adj, removed):
    """True iff deleting the vertices in ``removed`` disconnects the rest."""
    left = [v for v in adj if v not in removed]
    if not left:
        return False
    seen = {left[0]}
    queue = deque([left[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return len(seen) != len(left)


def _has_cut_vertex(adj, removed):
    """Articulation-point search (lowpoints) on the graph minus ``removed``;
    also True when that graph is disconnected."""
    verts = [v for v in adj if v != removed]
    root = verts[0]
    disc = {root: 0}
    low = {root: 0}
    stack = [(root, None, iter(adj[root]))]
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == removed or w == parent:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
                continue
            disc[w] = low[w] = len(disc)
            stack.append((w, v, iter(adj[w])))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if parent is None:
            continue
        low[parent] = min(low[parent], low[v])
        if parent == root:
            root_children += 1
        elif low[v] >= disc[parent]:
            return True
    return root_children > 1 or len(disc) != len(verts)


def three_connected(adj):
    """K4 and up: no vertex u leaves G - u with a cut vertex."""
    if len(adj) < 4:
        return False
    return not any(_has_cut_vertex(adj, u) for u in adj)


class PathSpace:
    """Directed simple n-paths of a graph and the move relation on them.

    A move drops the tail and appends a neighbour of the head that is not
    an inner vertex (the old tail is allowed).  Vertices are recoded to
    small integers so states pack into bytes.
    """

    def __init__(self, adj):
        self.names = sorted(adj)
        index = {v: i for i, v in enumerate(self.names)}
        self.index = index
        self.adj = [sorted(index[w] for w in adj[v]) for v in self.names]
        if len(self.names) > 256:
            raise ValueError("PathSpace packs vertices into bytes")

    def paths(self, n):
        out = []
        for s in range(len(self.names)):
            stack = [bytes((s,))]
            while stack:
                p = stack.pop()
                if len(p) == n + 1:
                    out.append(p)
                    continue
                for w in self.adj[p[-1]]:
                    if w not in p:
                        stack.append(p + bytes((w,)))
        return out

    def successors(self, p):
        inner = p[1:-1]
        return [p[1:] + bytes((w,)) for w in self.adj[p[-1]] if w not in inner]

    def predecessors(self, q):
        body = q[:-1]
        return [bytes((x,)) + body for x in self.adj[q[0]] if x not in body]

    def _reach(self, start, step):
        seen = {start}
        queue = deque([start])
        while queue:
            for r in step(queue.popleft()):
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        return len(seen)

    def summary(self, n):
        """States, arcs, stuck states and the n-transferability verdict."""
        states = self.paths(n)
        arcs = 0
        stuck = 0
        for p in states:
            k = len(self.successors(p))
            arcs += k
            stuck += k == 0
        ok = bool(states)
        if ok:
            ok = (self._reach(states[0], self.successors) == len(states)
                  and self._reach(states[0], self.predecessors) == len(states))
        return {"n": n, "states": len(states), "arcs": arcs, "stuck": stuck,
                "transferable": ok}
