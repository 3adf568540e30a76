"""Text format for signed rotation systems.

One line per vertex::

    v <vertex-id>: <edge-id><sign> <edge-id><sign> ...

with sign ``+`` or ``-`` (U+2212 is accepted too) on each edge token.
Every edge id appears exactly twice in the whole file; the token order
on a line is the rotation at that vertex; an edge's signature is +1
exactly when its two occurrences carry the same sign.  ``#`` starts a
comment, blank lines are skipped, and an optional ``surface:`` line may
carry a free-form hint, which parsing ignores.

Serialisation writes vertices in sorted order and signs each edge's
first occurrence ``+``, so ``parse_map(serialize_map(rs))`` reproduces
``rs`` exactly; ids therefore must not contain whitespace or ``#``, and
vertex ids must not contain ``:``.
"""

from __future__ import annotations

import re

from .errors import MapFormatError, StructureError
from .surface_map import RotationSystem

__all__ = ["parse_map", "serialize_map"]

_SIGNS = {"+": 1, "-": -1, "−": -1}

# Characters that would end an id early or start a comment.
_BAD_VERTEX_ID = re.compile(r"[\s#:]")
_BAD_EDGE_ID = re.compile(r"[\s#]")


def parse_map(text):
    """Build a RotationSystem from the text format above."""
    rotation = {}
    occurrences = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("surface:"):
            continue
        if not line.startswith("v "):
            raise MapFormatError("expected a 'v <id>: ...' line", lineno)
        head, sep, body = line[2:].partition(":")
        vertex = head.strip()
        if not sep or not vertex:
            raise MapFormatError("missing vertex id or ':'", lineno)
        if vertex in rotation:
            raise MapFormatError("vertex %r listed twice" % vertex, lineno)
        row = []
        for token in body.split():
            sign = _SIGNS.get(token[-1])
            edge = token[:-1]
            if sign is None or not edge:
                raise MapFormatError(
                    "bad edge token %r (want <edge-id>+ or <edge-id>-)"
                    % token, lineno)
            seen = occurrences.setdefault(edge, [])
            if len(seen) >= 2:
                raise MapFormatError(
                    "edge %r appears more than twice" % edge, lineno)
            seen.append((lineno, sign))
            row.append(edge)
        if not row:
            raise MapFormatError("vertex %r has an empty rotation" % vertex,
                                 lineno)
        rotation[vertex] = row
    if not rotation:
        raise MapFormatError("no vertex lines found")
    for edge, seen in sorted(occurrences.items()):
        if len(seen) != 2:
            raise MapFormatError(
                "edge %r appears once; every edge needs two ends" % edge,
                seen[0][0])
    signature = {
        edge: 1 if seen[0][1] == seen[1][1] else -1
        for edge, seen in occurrences.items()
    }
    try:
        return RotationSystem(rotation, signature)
    except StructureError as exc:
        raise MapFormatError(str(exc)) from exc


def serialize_map(rs):
    """Render a RotationSystem in the text format, scan-order signs.

    Raises StructureError for an id the format cannot carry, rather
    than writing a file that ``parse_map`` would reject.
    """
    for kind, ids, bad in (("vertex", rs.vertices, _BAD_VERTEX_ID),
                           ("edge", rs.edges, _BAD_EDGE_ID)):
        for ident in ids:
            if ident == "" or bad.search(str(ident)):
                raise StructureError(
                    "%s id %r cannot be written: ids must be non-empty and "
                    "free of whitespace and '#', vertex ids also of ':'"
                    % (kind, ident))
    seen = set()
    lines = []
    for v in rs.vertices:
        tokens = []
        for d in rs.rotation[v]:
            if d.edge not in seen:
                seen.add(d.edge)
                tokens.append(d.edge + "+")
            else:
                tokens.append(d.edge + ("+" if rs.signature[d.edge] == 1 else "-"))
        lines.append("v %s: %s" % (v, " ".join(tokens)))
    return "\n".join(lines) + "\n"
