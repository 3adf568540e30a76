"""Checks of every CLI output against the independent computations in
:mod:`oracle` and against properties the method must have.

``check(op, rc, text, ctx)`` returns a list of problems; an empty list
means the output is correct.  A wrong exit code is a problem too: the
code must match the verdict printed (exit 1 is the correct code for a
map that is not polyhedral, an n that is not transferable, or an n
without a stuck path).
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


class Context:
    """Independent results per map, computed once per run on demand."""

    def __init__(self, texts):
        self.texts = texts
        self._maps = {}
        self._spaces = {}
        self._summaries = {}

    def map(self, name):
        if name not in self._maps:
            self._maps[name] = oracle.Map(self.texts[name])
        return self._maps[name]

    def paths(self, name, n):
        """Oracle summary of the directed n-paths of map ``name``."""
        if (name, n) not in self._summaries:
            if name not in self._spaces:
                self._spaces[name] = oracle.PathSpace(self.map(name).adj)
            self._summaries[name, n] = self._spaces[name].summary(n)
        return self._summaries[name, n]


def check(op, rc, text, ctx):
    problems = []
    try:
        _CHECKERS[op.command](op, rc, text, ctx, problems)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        problems.append("malformed output: %s: %s" % (type(exc).__name__, exc))
    return problems


def _expect(problems, ok, what, *args):
    if not ok:
        problems.append(what % args if args else what)


# -- analyze / check / discharge -----------------------------------------

def _topology(section, m, problems):
    _expect(problems, section["vertices"] == len(m.vertices), "vertex count %s", section["vertices"])
    _expect(problems, section["edges"] == m.num_edges, "edge count %s", section["edges"])
    _expect(problems, section["faces"] == len(m.faces),
            "face count %s, the face trace gives %d", section["faces"], len(m.faces))
    _expect(problems, Fraction(section["euler_characteristic"]) == m.euler_characteristic,
            "chi %s, expected %d", section["euler_characteristic"], m.euler_characteristic)
    _expect(problems, section["orientable"] == m.orientable, "orientable %s", section["orientable"])
    _expect(problems, section["face_degrees"] == m.face_degrees, "face degrees differ")


def _validity(section, m, props, problems):
    min_degree = all(m.degree(v) >= 3 for v in m.vertices)
    expected = {
        "is_simple": m.simple,
        "min_degree_ok": min_degree,
        "closed_2cell": m.closed_2cell,
        "three_connected": m.three_connected,
        "polyhedral": m.polyhedral,
        "wheel_neighborhood": m.polyhedral,
    }
    for key, want in expected.items():
        _expect(problems, section[key] is want, "%s is %s, expected %s",
                key, section[key], want)
    for key, want in props.items():
        if key in expected:
            _expect(problems, section[key] is want, "%s is %s, the input family "
                    "guarantees %s", key, section[key], want)
    if section["wheel_neighborhood"]:
        _expect(problems, section["three_connected"] and section["closed_2cell"],
                "wheel without 3-connected and closed 2-cell")
    witnesses = section["witnesses"]
    _expect(problems, section["polyhedral"] or witnesses, "no witness for a rejected map")
    cut_pairs = [w for w in witnesses if w[0] == "cut_pair"]
    _expect(problems, section["three_connected"] or cut_pairs, "no cut pair witness")
    for w in witnesses:
        tag = w[0]
        if tag == "cut_pair":
            _expect(problems, len(w) == 3 and w[1] in m.adj and w[2] in m.adj
                    and oracle.separates(m.adj, {w[1], w[2]}),
                    "cut pair %r does not separate the graph", w[1:])
        elif tag == "degree_below_3":
            _expect(problems, m.degree(w[1]) == int(w[2]) < 3, "degree witness %r", w)
        elif tag == "face_vertex_repeat":
            _expect(problems, any(f.count(w[2]) > 1 for f in m.faces),
                    "no face repeats vertex %r", w[2])
        elif tag == "wheel":
            _expect(problems, w[1] in m.adj and not section["wheel_neighborhood"],
                    "wheel witness %r", w)
        else:
            _expect(problems, not m.simple, "unexpected witness %r", w)


def _analyze(op, rc, text, ctx, problems):
    doc = json.loads(text)
    m = ctx.map(op.map_name)
    _expect(problems, rc == 0, "exit code %s", rc)
    _topology(doc["topology"], m, problems)
    _validity(doc["validity"], m, op.props, problems)
    phi = m.curvature()
    printed = doc["curvature"]["vertex_curvature"]
    _expect(problems, set(printed) == set(phi), "curvature vertices differ")
    bad = [v for v in phi if Fraction(printed[v]) != phi[v]]
    _expect(problems, not bad, "curvature of %d vertices differs, e.g. %r", len(bad), bad[:1])
    _expect(problems, Fraction(doc["curvature"]["total"]) == m.euler_characteristic,
            "curvature total %s != chi", doc["curvature"]["total"])
    light = doc["light"]
    _expect(problems, light["light_count"] == len(light["light"]), "light count mismatch")
    _expect(problems, all(v in m.adj for v, _ in light["light"]), "unknown light vertex")
    chi = m.euler_characteristic
    hypotheses = (doc["validity"]["polyhedral"] and m.simple
                  and all(m.degree(v) >= 3 for v in m.vertices)
                  and chi <= 0 and len(m.vertices) > 126 * abs(chi))
    want = ("hypotheses-not-met" if not hypotheses
            else "theorem-confirmed" if light["light"] else "counterexample-candidate")
    _expect(problems, light["verdict"] == want, "light verdict %s, expected %s",
            light["verdict"], want)
    if op.props.get("all_light"):
        _expect(problems, light["light_count"] == len(m.vertices),
                "light count %s, expected V=%d", light["light_count"], len(m.vertices))


def _check(op, rc, text, ctx, problems):
    section = json.loads(text)["validity"]
    _validity(section, ctx.map(op.map_name), op.props, problems)
    _expect(problems, rc == (0 if section["polyhedral"] else 1), "exit code %s", rc)


def _discharge(op, rc, text, ctx, problems):
    doc = json.loads(text)
    m = ctx.map(op.map_name)
    _topology(doc["topology"], m, problems)
    d = doc["discharge"]
    chi = m.euler_characteristic
    _expect(problems, d["stage"] == "after_B", "stage %s", d["stage"])
    _expect(problems, Fraction(d["total"]) == -6 * chi, "total %s != -6 chi", d["total"])
    vertex_final = {v: Fraction(c) for v, c in d["vertex_charge"].items()}
    face_final = {f: Fraction(c) for f, c in d["face_charge"].items()}
    _expect(problems, sum(vertex_final.values()) + sum(face_final.values()) == -6 * chi,
            "final charges do not sum to -6 chi")
    # Replay the printed ledger from the initial charges 2 deg - 6.
    vertex = {v: Fraction(2 * m.degree(v) - 6) for v in m.vertices}
    face_flow = {f: Fraction(0) for f in face_final}
    charges = {"v": vertex, "f": face_flow}
    for t in d["transfers"]:
        _expect(problems, t["rule"] in ("A1", "A2", "A3", "A4", "B"), "rule %s", t["rule"])
        amount = Fraction(t["amount"])
        _expect(problems, amount > 0, "non-positive amount %s", t["amount"])
        kind, _, ref = t["source"].partition(":")
        charges[kind][ref] -= amount
        kind, _, ref = t["target"].partition(":")
        charges[kind][ref] += amount
    _expect(problems, vertex == vertex_final, "ledger replay misses the final vertex charges")
    # A face's initial charge deg - 6 is its final charge minus what the
    # ledger moved into it; those degrees must be the traced ones.
    initial = {f: face_final[f] - face_flow[f] for f in face_final}
    degrees = sorted(c + 6 for c in initial.values())
    _expect(problems, degrees == m.face_degrees,
            "ledger replay misses the initial face charges deg - 6")
    _expect(problems, all(face_final[f] == 0 for f, c in initial.items() if c + 6 >= 7),
            "a major face keeps charge after rule B")
    audit = d["audit"]
    if op.props.get("all_light"):
        _expect(problems, audit["light_count"] == len(m.vertices),
                "audit light count %s, expected V", audit["light_count"])
    _expect(problems, rc == (1 if audit["contradiction"] else 0), "exit code %s", rc)


# -- transfer / stuck / export -------------------------------------------

def _verdict(entry, s, problems):
    n = entry["n"]
    _expect(problems, entry["states"] == s["states"], "n=%d: %s states, counted %d",
            n, entry["states"], s["states"])
    _expect(problems, entry["transferable"] is s["transferable"],
            "n=%d: transferable %s, BFS says %s", n, entry["transferable"], s["transferable"])
    reason = ("" if s["transferable"] else
              "no-n-path" if s["states"] == 0 else "not-strongly-connected")
    _expect(problems, entry["reason"] == reason, "n=%d: reason %r", n, entry["reason"])
    sccs = entry["sccs"]
    if s["states"] == 0:
        _expect(problems, sccs == 0, "n=%d: %s sccs without states", n, sccs)
    elif s["transferable"]:
        _expect(problems, sccs == 1, "n=%d: %s sccs but transferable", n, sccs)
    else:
        # Every stuck state is a strong component of its own.
        low = max(2, s["stuck"] + (s["stuck"] < s["states"]))
        _expect(problems, low <= sccs <= s["states"], "n=%d: %s sccs, expected %d..%d",
                n, sccs, low, s["states"])


def _sweep(op, rc, text, ctx, problems):
    t = json.loads(text)["transfer"]
    max_n = int(op.flag("--max-n"))
    _expect(problems, [e["n"] for e in t["per_n"]] == list(range(1, max_n + 1)),
            "per_n does not list n = 1..%d", max_n)
    value = 0
    for entry in t["per_n"]:
        s = ctx.paths(op.map_name, entry["n"])
        _verdict(entry, s, problems)
        if s["transferable"]:
            value = entry["n"]
    _expect(problems, t["value"] == value, "value %s, BFS gives %d", t["value"], value)
    if "value" in op.props:
        _expect(problems, t["value"] == op.props["value"], "value %s, the paper states %d",
                t["value"], op.props["value"])
    _expect(problems, t["search_bound"] == max_n and t["truncated_at"] is None,
            "search bound %s, truncated at %s", t["search_bound"], t["truncated_at"])
    _expect(problems, rc == 0, "exit code %s", rc)


def _transfer_n(op, rc, text, ctx, problems):
    t = json.loads(text)["transfer"]
    n = int(op.flag("--n"))
    _expect(problems, t["n"] == n, "n %s", t["n"])
    _verdict(t, ctx.paths(op.map_name, n), problems)
    _expect(problems, rc == (0 if t["transferable"] else 1), "exit code %s", rc)


def _stuck(op, rc, text, ctx, problems):
    st = json.loads(text)["stuck"]
    n = int(op.flag("--n"))
    anchor = op.flag("--anchor")
    exists = ctx.paths(op.map_name, n)["stuck"] > 0
    _expect(problems, st["n"] == n and st["anchor"] == anchor, "n/anchor echo wrong")
    _expect(problems, st["found"] is exists, "found %s, a stuck %d-path %s", st["found"],
            n, "exists" if exists else "does not exist")
    _expect(problems, rc == (0 if st["found"] else 1), "exit code %s", rc)
    if st["found"]:
        adj = ctx.map(op.map_name).adj
        path = st["path"]
        _expect(problems, _is_path(path, n, adj), "witness is not a directed %d-path", n)
        _expect(problems, all(w in path[1:-1] for w in adj.get(path[-1], ())),
                "witness has a legal move")
        if op.props.get("through_anchor"):
            _expect(problems, anchor in path, "witness misses its anchor %s", anchor)


def _is_path(path, n, adj):
    return (len(path) == n + 1 and len(set(path)) == len(path)
            and all(b in adj.get(a, ()) for a, b in zip(path, path[1:])))


def _export(op, rc, text, ctx, problems):
    n = int(op.flag("--n"))
    adj = ctx.map(op.map_name).adj
    lines = text.splitlines()
    _expect(problems, lines[0] == "digraph transfer {" and lines[-1] == "}",
            "not a DOT digraph")
    nodes = set()
    arcs = 0
    for line in lines[1:-1]:
        line = line.strip().rstrip(";")
        if " -> " not in line:
            label = _label(line)
            _expect(problems, _is_path(label, n, adj), "node %s is not an %d-path", line, n)
            nodes.add(tuple(label))
            continue
        p, q = (tuple(_label(x)) for x in line.split(" -> "))
        arcs += 1
        legal = (p in nodes and q in nodes and q[:-1] == p[1:]
                 and q[-1] in adj[p[-1]] and q[-1] not in p[1:-1])
        if not legal:
            problems.append("illegal arc %s" % line)
    s = ctx.paths(op.map_name, n)
    _expect(problems, len(nodes) == s["states"], "%d nodes, counted %d states",
            len(nodes), s["states"])
    _expect(problems, arcs == s["arcs"], "%d arcs, counted %d moves", arcs, s["arcs"])
    _expect(problems, rc == 0, "exit code %s", rc)


def _label(token):
    if not (token.startswith('"') and token.endswith('"')):
        raise ValueError("unquoted DOT label %s" % token)
    return token[1:-1].split(",")


_CHECKERS = {"analyze": _analyze, "check": _check, "discharge": _discharge,
             "sweep": _sweep, "transfer_n": _transfer_n, "stuck": _stuck,
             "export": _export}
