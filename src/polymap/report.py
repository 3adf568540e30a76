"""Structured reports over the analysis modules.

A report is a plain nested structure (dicts, lists, scalars) that both
renderers accept: ``render_json`` emits it verbatim as JSON, and
``render_text`` as stable indented ``key: value`` lines.  Exact
rationals are serialized as ``num/den`` strings (integers included, so
an Euler characteristic of zero prints as ``0/1``); counts stay plain
integers.  Building is deterministic, so equal inputs give
byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

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
    f = Fraction(value)
    return "%d/%d" % (f.numerator, f.denominator)


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
    return {
        "is_simple": report.is_simple,
        "min_degree_ok": report.min_degree_ok,
        "closed_2cell": report.closed_2cell,
        "wheel_neighborhood": report.wheel_neighborhood,
        "three_connected": report.three_connected,
        "polyhedral": report.polyhedral,
        "witnesses": [[str(part) for part in w] for w in report.witnesses],
    }


def curvature_section(top):
    return {
        "vertex_curvature": {v: fraction_str(curvature(top, v))
                             for v in top.rs.vertices},
        "total": fraction_str(gauss_bonnet_sum(top)),
    }


def light_section(scan):
    return {
        "verdict": scan.verdict,
        "simple_polyhedral": scan.simple_polyhedral,
        "chi_nonpositive": scan.chi_nonpositive,
        "enough_vertices": scan.enough_vertices,
        "euler_characteristic": fraction_str(scan.euler_characteristic),
        "vertices": scan.num_vertices,
        "light_count": len(scan.light),
        "light": [[v, row.label()] for v, row in scan.light],
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
    return json.dumps(doc, indent=2, sort_keys=False,
                      default=_json_fallback) + "\n"


def _json_fallback(value):
    if isinstance(value, Fraction):
        return fraction_str(value)
    raise TypeError("cannot render %r in a report" % (value,))


def render_text(doc):
    lines = []
    _render(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _render(node, depth, lines, label=None):
    pad = "  " * depth
    if label == "-":
        prefix = pad + "-"
    elif label is None:
        prefix = pad
    else:
        prefix = "%s%s:" % (pad, label)
    if isinstance(node, dict):
        if label is not None:
            lines.append(prefix)
        for key, value in node.items():
            _render(value, depth + (label is not None), lines, label=str(key))
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
    return str(value)
