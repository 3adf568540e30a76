"""Reference map families used throughout the test corpus.

All generators return :class:`~polymap.surface_map.RotationSystem`
objects with string vertex ids, labelled deterministically so that
serialised output is stable run to run.

The torus families are quotients of the planar hexagonal / triangular
lattices.  Rotations are written down in one global counterclockwise
frame, so all signatures are +1 and the quotients are orientable.  The
Klein-bottle family reuses the hexagonal cylinder and reglues one wrap
column through a reflection, marked by negative signatures on the
reglued edges.
"""

from .surface_map import RotationSystem, _escape

__all__ = [
    "tetrahedron",
    "hex_torus",
    "tri_torus",
    "k7_torus",
    "hex_klein",
    "truncate",
]


def tetrahedron():
    """The tetrahedron map on the sphere (planar rotations)."""
    neighbors = {
        "0": ["3", "1", "2"],
        "1": ["2", "0", "3"],
        "2": ["3", "0", "1"],
        "3": ["1", "0", "2"],
    }
    return RotationSystem.from_rotations(neighbors)


def _check_params(p, q):
    if not (isinstance(p, int) and isinstance(q, int)) or p < 3 or q < 3:
        raise ValueError("torus quotient parameters must be integers >= 3")


def _hex_vertex(kind, i, j):
    return "%s%d.%d" % (kind, i, j)


def _hex_lattice(p, q, twist):
    """The hexagonal cylinder with its j-direction wrap column reglued:
    cell i meets cell -i (mod p) when ``twist``, else cell i, and only
    a twisted wrap gives the p reglued edges signature -1."""
    _check_params(p, q)
    neighbors = {}
    negative = []
    for i in range(p):
        wrap = (-i) % p if twist else i
        for j in range(q):
            down = (_hex_vertex("b", i, j - 1) if j > 0
                    else _hex_vertex("b", wrap, q - 1))
            neighbors[_hex_vertex("a", i, j)] = [
                _hex_vertex("b", i, j),
                _hex_vertex("b", (i - 1) % p, j),
                down,
            ]
            up = (_hex_vertex("a", i, j + 1) if j < q - 1
                  else _hex_vertex("a", wrap, 0))
            neighbors[_hex_vertex("b", i, j)] = [
                up,
                _hex_vertex("a", i, j),
                _hex_vertex("a", (i + 1) % p, j),
            ]
        if twist:
            negative.append((_hex_vertex("a", i, 0), _hex_vertex("b", wrap, q - 1)))
    return RotationSystem.from_rotations(neighbors, negative_edges=negative)


def hex_torus(p, q):
    """3-regular hexagonal map on the torus: 2pq vertices, pq hexagons.

    Vertices form two triangular sublattices a(i,j) and b(i,j) with
    i mod p, j mod q; each a connects to the b of its own cell and the
    cells one step back in each lattice direction.
    """
    return _hex_lattice(p, q, twist=False)


def tri_torus(p, q):
    """6-regular triangulated torus: pq vertices, 2pq triangles."""
    _check_params(p, q)
    offsets = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    neighbors = {}
    for i in range(p):
        for j in range(q):
            neighbors["%d.%d" % (i, j)] = [
                "%d.%d" % ((i + di) % p, (j + dj) % q) for di, dj in offsets]
    return RotationSystem.from_rotations(neighbors)


def k7_torus():
    """K7 triangulating the torus: the cyclic rotation i -> i + (1, 3, 2, 6, 4, 5)."""
    shifts = (1, 3, 2, 6, 4, 5)
    neighbors = {
        str(i): [str((i + s) % 7) for s in shifts] for i in range(7)}
    return RotationSystem.from_rotations(neighbors)


def hex_klein(p, q):
    """3-regular hexagonal map on the Klein bottle: chi = 0, non-orientable.

    Same hexagonal cylinder as :func:`hex_torus`, but the wrap column in
    the j direction is reglued through the reflection i -> -i (mod p);
    the p reglued edges carry signature -1.
    """
    return _hex_lattice(p, q, twist=True)


def truncate(rs):
    """Truncate every vertex of a map.

    A vertex of degree d becomes a d-cycle of new vertices, one per
    dart; original edges survive between the new vertices at their two
    ends, and each original k-face becomes a 2k-face.  Signatures are
    inherited, so Euler characteristic and orientability are preserved.

    Every id taken from ``rs`` is escaped first: ``%`` is written
    ``%25`` and ``/`` is written ``%2F``, the rule ``from_rotations``
    applies with ``~``.  The new vertex on dart ``t`` of the rotation at
    a vertex with escaped id ``x`` is ``x/t``, the cycle edge between
    its corners t and t+1 is ``x/ct``, and an original edge keeps its
    escaped id, which holds no ``/``.  So no two ids collide, and ids
    free of ``%`` and ``/`` (every generated family's) are kept as they
    are.
    """
    edge_id = {e: _escape(e, "/") for e in rs.edges}
    rotation_edges = {}
    for v, darts in rs.rotation.items():
        x, d = _escape(v, "/"), len(darts)
        for t, dart in enumerate(darts):
            rotation_edges["%s/%d" % (x, t)] = [
                edge_id[dart.edge],
                "%s/c%d" % (x, t),
                "%s/c%d" % (x, (t - 1) % d),
            ]
    signature = {edge_id[e]: s for e, s in rs.signature.items() if s < 0}
    return RotationSystem(rotation_edges, signature)
