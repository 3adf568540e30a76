"""Structured reports over the analysis modules.

A report is a plain nested structure (dicts, lists, scalars) that both
renderers accept: ``render_json`` emits it verbatim as JSON, and
``render_text`` as stable indented ``key: value`` lines.  Exact
rationals are serialized as ``num/den`` strings (integers included, so
an Euler characteristic of zero prints as ``0/1``), and both renderers
print a ``Fraction`` left in a report the same way; counts stay plain
integers.  Building is deterministic, so equal inputs give
byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .curvature_light import curvature, gauss_bonnet_sum

__all__ = [
    "fraction_str",
    "topology_section",
    "validity_section",
    "curvature_section",
    "light_section",
    "discharge_section",
    "transfer_section",
    "verdict_row",
    "stuck_section",
    "render_text",
    "render_json",
]


def fraction_str(value):
    # an int or a Fraction is already in lowest terms with a positive
    # denominator; only other numbers need a Fraction built
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return "%d/%d" % (value.numerator, value.denominator)


def topology_section(top):
    return {
        "vertices": top.num_vertices,
        "edges": top.num_edges,
        "faces": top.num_faces,
        "euler_characteristic": fraction_str(top.euler_characteristic),
        "orientable": top.orientable,
        "face_degrees": sorted(top.face_degrees),
    }


def validity_section(report):
    # the keys are ValidityReport's fields in order, so reordering them
    # changes the report; witness parts become strings
    section = report._asdict()
    section["witnesses"] = [[str(part) for part in w]
                            for w in report.witnesses]
    return section


def curvature_section(top):
    # Phi depends only on the vertex type: one evaluation per type.
    types = top.vertex_types
    one_of = {t: v for v, t in types.items()}
    text = {t: fraction_str(curvature(top, v)) for t, v in one_of.items()}
    return {
        "vertex_curvature": {v: text[t] for v, t in types.items()},
        "total": fraction_str(gauss_bonnet_sum(top)),
    }


def light_section(scan):
    # one label per matched table row, not one per light vertex
    labels = {row: row.label() for row in {row for _, row in scan.light}}
    return {
        "verdict": scan.verdict,
        "simple_polyhedral": scan.simple_polyhedral,
        "chi_nonpositive": scan.chi_nonpositive,
        "enough_vertices": scan.enough_vertices,
        "euler_characteristic": fraction_str(scan.euler_characteristic),
        "vertices": scan.num_vertices,
        "light_count": len(scan.light),
        "light": [[v, labels[row]] for v, row in scan.light],
    }


def discharge_section(state, ledger, audit):
    return {
        "stage": state.stage,
        "total": fraction_str(state.total()),
        "vertex_charge": {v: fraction_str(c)
                          for v, c in sorted(state.vertex_charge.items())},
        "face_charge": {str(f): fraction_str(c)
                        for f, c in sorted(state.face_charge.items())},
        "transfers": [
            {"rule": e.rule,
             "source": "%s:%s" % e.source,
             "target": "%s:%s" % e.target,
             "amount": fraction_str(e.amount),
             "note": e.note}
            for e in ledger.entries
        ],
        "audit": {
            "lemma1_violations": [
                {"face": f, "degree": d, "charge": fraction_str(c),
                 "bound": fraction_str(b)}
                for f, d, c, b in audit.lemma1_violations
            ],
            "lemma2_violations": [
                {"vertex": v, "charge": fraction_str(c)}
                for v, c in audit.lemma2_violations
            ],
            "light_count": audit.light_count,
            "hypotheses_met": audit.hypotheses_met,
            "contradiction": audit.contradiction,
        },
    }


def transfer_section(result):
    return {
        "value": result.value,
        "search_bound": result.search_bound,
        "truncated_at": result.truncated_at,
        "per_n": [verdict_row(r) for r in result.per_n],
    }


def verdict_row(verdict):
    return {"n": verdict.n,
            "transferable": verdict.transferable,
            "reason": verdict.reason,
            "states": verdict.state_count,
            "sccs": verdict.scc_count}


def stuck_section(witness, n, anchor):
    section = {"n": n, "anchor": anchor, "found": witness is not None}
    if witness is not None:
        section["path"] = list(witness.path.vertices)
    return section


def render_json(doc):
    """``json.dumps(doc, indent=2, default=_json_fallback)`` and a newline,
    byte for byte.  The standard library lays out an indented document in
    pure Python, one call per value; this writer lays out dicts with str
    keys, lists and tuples itself and encodes a container's values, when
    they are all str or all int, with one C-level ``map``, and a list of
    such dicts with one key tuple, or of such lists of one length, with
    one map and one template.  None and bools are JSON constants; any
    other value (a Fraction, a float, a subclass) goes to ``json.dumps``
    and has its newlines re-indented, which is exact because JSON text
    holds no raw newline inside a string."""
    return _json_text(doc, "\n") + "\n"


_ONLY_STR = frozenset((str,))
_ONLY_INT = frozenset((int,))
_ONLY_DICT = frozenset((dict,))
_ONLY_LIST = frozenset((list,))
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(node, newline):
    # ``newline`` is "\n" plus the indent of the line ``node`` starts on
    kind = type(node)
    if kind is dict:
        if not node:
            return "{}"
        try:
            keys = list(map(encode_basestring_ascii, node))
        except TypeError:  # a key that is not a str
            return _json_fallback_text(node, newline)
        inner = newline + "  "
        items = map("{}: {}".format, keys, _json_values(node.values(), inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not node:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join(_json_values(node, inner))
                + newline + "]")
    if kind is str:
        return encode_basestring_ascii(node)
    if kind is int:
        return int.__repr__(node)
    if node is None or kind is bool:
        return _JSON_CONSTANTS[node]
    return _json_fallback_text(node, newline)


def _json_values(values, newline):
    kinds = set(map(type, values))
    leaves = _json_leaves(kinds, values)
    if leaves is not None:
        return leaves
    if kinds == _ONLY_DICT or kinds == _ONLY_LIST:
        rows = _json_rows(kinds == _ONLY_DICT, values, newline)
        if rows is not None:
            return rows
    return [_json_text(value, newline) for value in values]


def _json_leaves(kinds, values):
    # one map over ``values`` when their types ``kinds`` are str alone or
    # int alone, else None
    if kinds == _ONLY_STR:
        return map(encode_basestring_ascii, values)
    if kinds == _ONLY_INT:
        return map(int.__repr__, values)
    return None


def _json_rows(dicts, rows, newline):
    # Dicts that share one tuple of str keys, or lists of one length, their
    # values all str or all int, are laid out from one %-template: the
    # values of every row are encoded with one map and each row is one
    # format.  Otherwise (empty rows included: they have no values) None.
    shapes = set(map(tuple if dicts else len, rows))
    if len(shapes) != 1:
        return None
    shape, = shapes
    values = list(itertools.chain.from_iterable(
        map(dict.values, rows) if dicts else rows))
    leaves = _json_leaves(set(map(type, values)), values)
    if leaves is None:
        return None
    if not dicts:
        heads, brackets = [""] * shape, "[]"
    elif set(map(type, shape)) == _ONLY_STR:
        heads = [key.replace("%", "%%") + ": "
                 for key in map(encode_basestring_ascii, shape)]
        brackets = "{}"
    else:
        return None
    inner = newline + "  "
    template = brackets[0] + inner + ("," + inner).join(
        head + "%s" for head in heads) + newline + brackets[1]
    return map(template.__mod__, zip(*[leaves] * len(heads)))


def _json_fallback_text(node, newline):
    return json.dumps(node, indent=2,
                      default=_json_fallback).replace("\n", newline)


def _json_fallback(value):
    if isinstance(value, Fraction):
        return fraction_str(value)
    raise TypeError("cannot render %r in a report" % (value,))


def render_text(doc):
    lines = []
    _render(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _render(node, depth, lines, label=None):
    # ``label`` is printed as given: "key:" for a dict entry, "-" for a
    # list item, so a key "-" still prints as "-:"
    prefix = "  " * depth + (label or "")
    if isinstance(node, dict):
        if label is not None:
            lines.append(prefix)
        for key, value in node.items():
            _render(value, depth + (label is not None), lines,
                    label="%s:" % (key,))
    elif isinstance(node, (list, tuple)):
        if not node:
            lines.append("%s []" % prefix)
            return
        if all(not isinstance(x, (dict, list, tuple)) for x in node):
            lines.append("%s %s" % (prefix, " ".join(_scalar(x) for x in node)))
            return
        lines.append(prefix)
        for item in node:
            _render(item, depth + 1, lines, label="-")
    else:
        lines.append("%s %s" % (prefix, _scalar(node)))


def _scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, Fraction):
        return fraction_str(value)
    return str(value)
