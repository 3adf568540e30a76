"""Text format for signed rotation systems.

One line per vertex::

    v <vertex-id>: <edge-id><sign> <edge-id><sign> ...

with sign ``+`` or ``-`` (U+2212 is accepted too) on each edge token.
Every edge id appears exactly twice in the whole file; the token order
on a line is the rotation at that vertex; an edge's signature is +1
exactly when its two occurrences carry the same sign.  ``#`` starts a
comment, blank lines are skipped, and an optional ``surface:`` line may
carry a free-form hint, which parsing ignores.  One leading byte-order
mark (U+FEFF) is dropped.

Serialisation writes vertices in sorted order and signs each edge's
first occurrence ``+``, so ``parse_map(serialize_map(rs))`` reproduces
``rs`` exactly; ids therefore must be non-empty strings without
whitespace or ``#``, and vertex ids must not contain ``:``.  Parsing
rejects a vertex id with inner whitespace by the same rule that
serialising applies.

``parse_map`` takes decoded text.  The file itself is UTF-8: the CLI
reads its bytes from a path or from stdin alike and decodes them once,
strictly, so a byte that is not UTF-8 fails with its line number.

Ids that the package makes follow one escape rule: an id is joined to
another part by a separator only after ``%`` is written ``%25`` and the
separator as its ``%XX`` code inside it.  ``RotationSystem.from_rotations``
joins two endpoint ids with ``~`` (``%7E``), and ``truncate`` writes a
vertex id then ``/`` (``%2F``) then a corner or cycle-edge tag, and an
inherited edge id escaped the same way, so no two made ids collide.  Ids
free of ``%`` and the separator are kept as they are.
"""

import re

from .errors import MapFormatError, StructureError
from .surface_map import RotationSystem

__all__ = ["parse_map", "serialize_map"]

_SIGNS = {"+": 1, "-": -1, "−": -1}

# Characters that would end an id early or start a comment.
_BAD_VERTEX_ID = re.compile(r"[\s#:]")
_BAD_EDGE_ID = re.compile(r"[\s#]")


def parse_map(text):
    """Build a RotationSystem from the text format above.

    Errors are MapFormatErrors with a line number.  A fault on a line
    (a bad token, a vertex listed twice, an edge's third occurrence) is
    reported at the first line that has one.  Each edge keeps one
    record, the line and sign of its first occurrence; its second
    occurrence sets its signature, and a third is an edge that already
    has one.  Once every line is read, an edge without a signature
    appears once, and the smallest such edge is reported at its first
    line.
    """
    rotation = {}
    first = {}  # edge -> (line, sign) of its first occurrence
    signature = {}  # set at an edge's second occurrence
    text = text.removeprefix("\ufeff")
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
        if _BAD_VERTEX_ID.search(vertex):
            raise MapFormatError("vertex id %r has whitespace" % vertex, lineno)
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
            if edge not in first:
                first[edge] = lineno, sign
            elif edge in signature:
                raise MapFormatError(
                    "edge %r appears more than twice" % edge, lineno)
            else:
                signature[edge] = 1 if first[edge][1] == sign else -1
            row.append(edge)
        if not row:
            raise MapFormatError("vertex %r has an empty rotation" % vertex,
                                 lineno)
        rotation[vertex] = row
    if not rotation:
        raise MapFormatError("no vertex lines found")
    if len(signature) < len(first):
        edge = min(first.keys() - signature.keys())
        raise MapFormatError(
            "edge %r appears once; every edge needs two ends" % edge,
            first[edge][0])
    try:
        return RotationSystem(rotation, signature)
    except StructureError as exc:
        raise MapFormatError(str(exc)) from exc


def serialize_map(rs):
    """Render a RotationSystem in the text format, scan-order signs.

    Raises StructureError for an id the format cannot carry, rather
    than writing a file that ``parse_map`` would reject or read back
    differently: an id that is not a ``str`` (the int vertex 1 would
    parse back as ``'1'``), an empty one, or one with a character that
    would end it early.
    """
    for kind, ids, bad in (("vertex", rs.vertices, _BAD_VERTEX_ID),
                           ("edge", rs.edges, _BAD_EDGE_ID)):
        for ident in ids:
            if not isinstance(ident, str) or not ident or bad.search(ident):
                raise StructureError(
                    "%s id %r cannot be written: ids must be non-empty "
                    "strings free of whitespace and '#', vertex ids also "
                    "of ':'" % (kind, ident))
    # construction makes each edge's first occurrence in this scan end 0
    sig = rs.signature
    lines = []
    for v in rs.vertices:
        tokens = []
        for e, end in rs.rotation[v]:
            tokens.append(e + ("+" if end == 0 or sig[e] == 1 else "-"))
        lines.append("v %s: %s" % (v, " ".join(tokens)))
    return "\n".join(lines) + "\n"
