"""The traced run: the same operations, timed module by module.

Each operation calls the public functions that the matching CLI handler
in ``polymap.cli`` calls, in the handler's order, and writes the same
report.  Every call into a module records a span (metric name, start,
end, parent span, operation id); counters read from return values sit
beside the spans.  After the handler part, the four validity sub-checks,
the five discharge rules and the per-n digraph builds of a sweep are
also called on their own, outside the operation's span, so that each
shows its share.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Per-module metrics, in report order.  Times are seconds per pass.
PER_LAYER = (
    "mapfile.parse_map_s", "mapfile.bytes",
    "surface_map.topology_s", "surface_map.trace_faces_s",
    "surface_map.adjacency_s", "surface_map.faces", "surface_map.darts",
    "validity.check_simple_map_s", "validity.check_closed_2cell_s",
    "validity.check_wheel_neighborhood_s", "validity.check_3_connected_s",
    "validity.check_polyhedral_s", "validity.witnesses",
    "curvature_light.gauss_bonnet_sum_s", "curvature_light.scan_theorem2_s",
    "curvature_light.light_vertices",
    "discharging.initial_charges_s", "discharging.apply_rule_a1_s",
    "discharging.apply_rule_a2_s", "discharging.apply_rule_a3_s",
    "discharging.apply_rule_a4_s", "discharging.apply_rule_b_s",
    "discharging.ledger_replay_s", "discharging.run_discharge_s",
    "discharging.ledger_entries.A1", "discharging.ledger_entries.A2",
    "discharging.ledger_entries.A3", "discharging.ledger_entries.A4",
    "discharging.ledger_entries.B",
    "transferability.build_transfer_digraph_s", "transferability.scc_summary_s",
    "transferability.transferability_s", "transferability.find_stuck_s",
    "transferability.to_dot_s", "transferability.states",
    "transferability.arcs", "transferability.sccs",
    "transferability.states_per_s",
    "report.sections_s", "report.render_json_s", "report.bytes",
    "command.analyze_s", "command.check_s", "command.discharge_s",
    "command.sweep_s", "command.transfer_n_s", "command.stuck_s",
    "command.export_s", "trace.pass_s",
)

UNITS = {"mapfile.bytes": "bytes", "report.bytes": "bytes",
         "transferability.states_per_s": "1/s"}


def unit(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.timings = {}  # op id -> its pace.Pace
        self.counts = Counter()
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def records(self):
        """Spans as dicts with their self time (duration minus children),
        the pace handler's time inside them, and their operation's scale
        to reference speed; times are wall times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op, "self": end - start - child[i],
                 "paused": self.timings[op].hidden(start, end),
                 "scale": self.timings[op].factor}
                for i, (name, start, end, parent, op) in enumerate(self.spans)]

    def metrics(self):
        """Inclusive span time per name, scaled to reference speed like the
        operation it belongs to, plus the counters, for one pass.  Module
        spans have no children, so for them this is self time."""
        values = dict.fromkeys(PER_LAYER, 0.0)
        for name, start, end, _, op in self.spans:
            timing = self.timings[op]
            values[name] += (end - start - timing.hidden(start, end)) * timing.factor
        values.update(self.counts)
        return values


def per_layer(tracers):
    """Per-module metrics of a traced run: each time is its fastest pass,
    as for the end-to-end metrics; counters are the same in every pass."""
    per_pass = [t.metrics() for t in tracers]
    values = {name: min(p[name] for p in per_pass) for name in PER_LAYER}
    values["trace.pass_s"] = sum(values[m] for m in PER_LAYER if m.startswith("command."))
    build = values["transferability.build_transfer_digraph_s"]
    if build:
        values["transferability.states_per_s"] = values["transferability.states"] / build
    return values


def run_op(tr, pm, op, out):
    """Run ``op`` as its CLI handler would, writing the report to ``out``;
    returns the exit code the CLI would give."""
    return _HANDLERS[op.command](tr, pm, op, out)


def _read(tr, pm, op):
    with open(op.argv[1], "r", encoding="utf-8") as handle:
        text = handle.read()
    tr.counts["mapfile.bytes"] += len(text.encode("utf-8"))
    return tr.call("mapfile.parse_map_s", pm.mapfile.parse_map, text)


def _topology(tr, pm, rs):
    top = tr.call("surface_map.topology_s", pm.surface_map.topology, rs)
    tr.counts["surface_map.faces"] += top.num_faces
    tr.counts["surface_map.darts"] += 2 * top.num_edges
    return top


def _adjacency(tr, rs):
    return tr.call("surface_map.adjacency_s", rs.adjacency)


def _emit(tr, pm, doc, out):
    text = tr.call("report.render_json_s", pm.report.render_json, doc)
    tr.counts["report.bytes"] += len(text.encode("utf-8"))
    out.write(text)


def _validity(tr, pm, top):
    validity = tr.call("validity.check_polyhedral_s", pm.validity.check_polyhedral, top)
    tr.counts["validity.witnesses"] += len(validity.witnesses)
    return validity


def _validity_parts(tr, pm, top):
    v = pm.validity
    tr.call("validity.check_simple_map_s", v.check_simple_map, top)
    tr.call("validity.check_closed_2cell_s", v.check_closed_2cell, top)
    tr.call("validity.check_wheel_neighborhood_s", v.check_wheel_neighborhood, top)
    adj = _adjacency(tr, top.rs)
    tr.call("validity.check_3_connected_s", v.check_3_connected, adj)


def _analyze(tr, pm, op, out):
    r = pm.report
    with tr.span("command.analyze_s"):
        rs = _read(tr, pm, op)
        top = _topology(tr, pm, rs)
        validity = _validity(tr, pm, top)
        scan = tr.call("curvature_light.scan_theorem2_s",
                       pm.curvature_light.scan_theorem2, top, validity)
        tr.counts["curvature_light.light_vertices"] += len(scan.light)
        with tr.span("report.sections_s"):
            doc = {"topology": r.topology_section(top),
                   "validity": r.validity_section(validity),
                   "curvature": r.curvature_section(top),
                   "light": r.light_section(scan)}
        _emit(tr, pm, doc, out)
    tr.call("surface_map.trace_faces_s", pm.surface_map.trace_faces, rs)
    tr.call("curvature_light.gauss_bonnet_sum_s",
            pm.curvature_light.gauss_bonnet_sum, top)
    _validity_parts(tr, pm, top)
    return 0


def _check(tr, pm, op, out):
    with tr.span("command.check_s"):
        top = _topology(tr, pm, _read(tr, pm, op))
        validity = _validity(tr, pm, top)
        with tr.span("report.sections_s"):
            doc = {"validity": pm.report.validity_section(validity)}
        _emit(tr, pm, doc, out)
    _validity_parts(tr, pm, top)
    return 0 if validity.polyhedral else 1


def _discharge(tr, pm, op, out):
    d = pm.discharging
    with tr.span("command.discharge_s"):
        top = _topology(tr, pm, _read(tr, pm, op))
        state, ledger, audit = tr.call("discharging.run_discharge_s", d.run_discharge, top)
        for entry in ledger.entries:
            tr.counts["discharging.ledger_entries." + entry.rule] += 1
        with tr.span("report.sections_s"):
            doc = {"topology": pm.report.topology_section(top),
                   "discharge": pm.report.discharge_section(state, ledger, audit)}
        _emit(tr, pm, doc, out)
    scratch = d.TransferLedger()
    initial = tr.call("discharging.initial_charges_s", d.initial_charges, top)
    stage = initial
    for rule in ("a1", "a2", "a3", "a4", "b"):
        stage = tr.call("discharging.apply_rule_%s_s" % rule,
                        getattr(d, "apply_rule_" + rule), stage, top, scratch)
    tr.call("discharging.ledger_replay_s", ledger.replay, initial)
    return 1 if audit.contradiction else 0


def _build(tr, pm, graph, n):
    t = pm.transferability
    digraph = tr.call("transferability.build_transfer_digraph_s",
                      t.build_transfer_digraph, graph, n, t.DEFAULT_BUDGET)
    tr.counts["transferability.states"] += digraph.state_count
    tr.counts["transferability.arcs"] += digraph.arc_count
    return digraph


def _digraph(tr, pm, graph, n):
    digraph = _build(tr, pm, graph, n)
    summary = None
    if digraph.state_count:
        summary = tr.call("transferability.scc_summary_s", digraph.scc_summary)
        tr.counts["transferability.sccs"] += summary.count
    return digraph, summary


def _sweep(tr, pm, op, out):
    t = pm.transferability
    max_n = int(op.flag("--max-n"))
    with tr.span("command.sweep_s"):
        graph = _adjacency(tr, _read(tr, pm, op))
        result = tr.call("transferability.transferability_s", t.transferability,
                         graph, max_n, t.DEFAULT_BUDGET)
        with tr.span("report.sections_s"):
            doc = {"transfer": pm.report.transfer_section(result)}
        _emit(tr, pm, doc, out)
    for n in range(1, max_n + 1):
        _digraph(tr, pm, graph, n)
    return 3 if result.truncated_at is not None else 0


def _transfer_n(tr, pm, op, out):
    n = int(op.flag("--n"))
    with tr.span("command.transfer_n_s"):
        graph = _adjacency(tr, _read(tr, pm, op))
        digraph, summary = _digraph(tr, pm, graph, n)
        if summary is None:
            verdict = {"n": n, "transferable": False,
                       "reason": "no-n-path", "states": 0, "sccs": 0}
        else:
            ok = summary.count == 1
            verdict = {"n": n, "transferable": ok,
                       "reason": "" if ok else "not-strongly-connected",
                       "states": digraph.state_count, "sccs": summary.count}
        _emit(tr, pm, {"transfer": verdict}, out)
    return 0 if verdict["transferable"] else 1


def _stuck(tr, pm, op, out):
    t = pm.transferability
    n, anchor = int(op.flag("--n")), op.flag("--anchor")
    with tr.span("command.stuck_s"):
        graph = _adjacency(tr, _read(tr, pm, op))
        witness = tr.call("transferability.find_stuck_s", t.find_stuck,
                          graph, n, anchor, t.DEFAULT_BUDGET)
        with tr.span("report.sections_s"):
            doc = {"stuck": pm.report.stuck_section(witness, n, anchor)}
        _emit(tr, pm, doc, out)
    return 0 if witness is not None else 1


def _export(tr, pm, op, out):
    n = int(op.flag("--n"))
    with tr.span("command.export_s"):
        digraph = _build(tr, pm, _adjacency(tr, _read(tr, pm, op)), n)
        out.write(tr.call("transferability.to_dot_s", digraph.to_dot))
    return 0


_HANDLERS = {"analyze": _analyze, "check": _check, "discharge": _discharge,
             "sweep": _sweep, "transfer_n": _transfer_n, "stuck": _stuck,
             "export": _export}
