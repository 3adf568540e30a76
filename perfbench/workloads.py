"""The benchmark's workloads: which maps are written and which commands run.

Each workload is a list of :class:`Op`, one CLI invocation each, over map
files written at set-up.  ``smoke=True`` gives a tiny version of the same
workload, with the same commands and checks, for the benchmark's tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("tori-verify", "broken-maps", "cubic-paths")

# The CLI commands, by the name their time is reported under.
COMMANDS = ("analyze", "check", "discharge", "sweep", "transfer_n", "stuck",
            "export")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``polymap <argv>`` on the map ``map_name``.

    ``props`` holds what the method guarantees for this input beyond what
    the independent computations decide, e.g. ``{"polyhedral": True}``
    for the torus and Klein families.
    """

    command: str
    map_name: str
    argv: tuple
    props: dict = field(default_factory=dict, compare=False)

    @property
    def label(self):
        return "%s %s" % (self.command, self.map_name)

    def flag(self, name):
        """The value given to ``name`` in argv, or None."""
        argv = self.argv
        return argv[argv.index(name) + 1] if name in argv else None


def build(name, seed, polymap, workdir, smoke=False):
    """Generate the workload's maps, write them under ``workdir`` and
    return ``(maps, ops)``: map name -> file text, and the operations.

    ``polymap`` is a namespace with the program's ``generators``,
    ``mapfile`` and ``surface_map`` modules.
    """
    maker = {"tori-verify": _tori_verify, "broken-maps": _broken_maps,
             "cubic-paths": _cubic_paths}[name]
    rng = random.Random(seed)
    maps, plan = maker(polymap.generators, polymap.surface_map, rng, smoke)
    texts = {}
    ops = []
    for map_name, rs in maps.items():
        texts[map_name] = polymap.mapfile.serialize_map(rs)
        path = workdir / ("map%d.txt" % len(texts))
        path.write_text(texts[map_name], encoding="utf-8")
        for command, args, props in plan[map_name]:
            ops.append(Op(command, map_name, tuple(args[:1]) + (str(path),)
                          + tuple(args[1:]) + ("--format", "json"), props))
    return texts, ops


def _tori_verify(gen, _surface_map, _rng, smoke):
    """Accept path of validity: polyhedral tori and a Klein bottle."""
    if smoke:
        analyze = {"hex_torus(4,4)": gen.hex_torus(4, 4),
                   "hex_klein(4,4)": gen.hex_klein(4, 4),
                   "tri_torus(4,4)": gen.tri_torus(4, 4)}
        discharge = {"tri_torus(4,4)": gen.tri_torus(4, 4),
                     "truncate(hex_klein(3,3))": gen.truncate(gen.hex_klein(3, 3))}
    else:
        analyze = {"hex_torus(%d,%d)" % (p, p): gen.hex_torus(p, p)
                   for p in (6, 10, 14)}
        analyze["hex_klein(10,10)"] = gen.hex_klein(10, 10)
        analyze["tri_torus(12,12)"] = gen.tri_torus(12, 12)
        analyze["truncate(hex_torus(6,6))"] = gen.truncate(gen.hex_torus(6, 6))
        discharge = {"tri_torus(12,12)": analyze["tri_torus(12,12)"],
                     "truncate(hex_torus(6,6))": analyze["truncate(hex_torus(6,6))"],
                     "truncate(hex_klein(4,4))": gen.truncate(gen.hex_klein(4, 4))}
    # Every vertex of these maps has a light type, and every map is
    # polyhedral: both follow from the families' construction.
    props = {"polyhedral": True, "all_light": True}
    maps = {**analyze, **discharge}
    plan = {m: [] for m in maps}
    for m in analyze:
        plan[m].append(("analyze", ["analyze"], props))
    for m in discharge:
        plan[m].append(("discharge", ["discharge"], props))
    return maps, plan


def _broken_maps(gen, surface_map, rng, smoke):
    """Reject path of validity: seeded mutants and subdivided edges."""
    if smoke:
        bases = {"hex_torus(3,3)": gen.hex_torus(3, 3),
                 "tri_torus(4,4)": gen.tri_torus(4, 4)}
        per_base, host, host_name = 1, gen.hex_torus(4, 4), "hex_torus(4,4)"
    else:
        bases = {"hex_torus(6,6)": gen.hex_torus(6, 6),
                 "tri_torus(8,8)": gen.tri_torus(8, 8),
                 "hex_klein(6,6)": gen.hex_klein(6, 6),
                 "truncate(hex_torus(4,4))": gen.truncate(gen.hex_torus(4, 4))}
        per_base, host, host_name = 3, gen.hex_torus(10, 10), "hex_torus(10,10)"
    maps = {}
    plan = {}
    for base_name, rs in bases.items():
        for k in range(per_base):
            name = "mutant%d(%s)" % (k, base_name)
            maps[name] = perturb(surface_map, rs, rng, rng.randint(1, 3))
            # Mutants keep their base's graph, which is 3-connected.
            plan[name] = {"three_connected": True}
    edges = host.edges
    for where, edge in (("first", edges[0]), ("middle", edges[len(edges) // 2]),
                        ("last", edges[-1])):
        name = "subdivide(%s,%s)" % (host_name, where)
        maps[name] = subdivide(surface_map, host, edge)
        # A degree-2 vertex: its two neighbours form a cut pair.
        plan[name] = {"three_connected": False, "min_degree_ok": False}
    return maps, {m: [("check", ["check"], props), ("analyze", ["analyze"], props)]
                  for m, props in plan.items()}


def _cubic_paths(gen, _surface_map, _rng, smoke):
    """Path transferability on cubic maps; validity does no work here."""
    if smoke:
        maps = {"truncate(tetrahedron)": gen.truncate(gen.tetrahedron())}
        max_n, value_props, export_n, export_map = 8, {}, 5, "truncate(tetrahedron)"
    else:
        maps = {"truncate(hex_torus(3,3))": gen.truncate(gen.hex_torus(3, 3)),
                "truncate(hex_klein(3,3))": gen.truncate(gen.hex_klein(3, 3))}
        # The value the source paper states for the 54-vertex cubic map.
        max_n, value_props = 13, {"truncate(hex_torus(3,3))": {"value": 12}}
        export_n, export_map = 10, "truncate(hex_torus(3,3))"
    plan = {}
    for name, rs in maps.items():
        anchor = rs.vertices[0]
        plan[name] = [
            ("sweep", ["transfer", "--sweep", "--max-n", str(max_n)],
             value_props.get(name, {})),
            ("transfer_n", ["transfer", "--n", str(max_n)], {}),
            ("stuck", ["stuck", "--n", str(max_n - 1)], {}),
            ("stuck", ["stuck", "--n", str(max_n), "--anchor", anchor],
             {"through_anchor": True}),
        ]
    plan[export_map].append(("export", ["export-digraph", "--n", str(export_n)], {}))
    return maps, plan


def perturb(surface_map, rs, rng, moves):
    """A nearby rotation system on the same graph: each move swaps two
    entries of one rotation, flips one edge's sign, or reverses one
    rotation."""
    rot = {v: [d.edge for d in rs.rotation[v]] for v in rs.vertices}
    sig = dict(rs.signature)
    for _ in range(moves):
        kind = rng.randrange(3)
        v = rs.vertices[rng.randrange(len(rs.vertices))]
        if kind == 0:
            i, j = rng.sample(range(len(rot[v])), 2)
            rot[v][i], rot[v][j] = rot[v][j], rot[v][i]
        elif kind == 1:
            e = rs.edges[rng.randrange(len(rs.edges))]
            sig[e] = -sig[e]
        else:
            rot[v].reverse()
    return surface_map.RotationSystem(rot, sig)


def subdivide(surface_map, rs, edge):
    """Replace ``edge`` by a path through one new vertex of degree 2."""
    rot = {v: [d.edge for d in rs.rotation[v]] for v in rs.vertices}
    u, w = rs.endpoints(edge)
    first, second = edge + "-0", edge + "-1"
    rot[u][rot[u].index(edge)] = first
    rot[w][rot[w].index(edge)] = second
    rot[edge + "-z0"] = [first, second]
    sig = {e: s for e, s in rs.signature.items() if e != edge}
    sig[first] = rs.signature[edge]
    return surface_map.RotationSystem(rot, sig)
