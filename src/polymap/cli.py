"""Command-line interface.

Subcommands: ``analyze``, ``check``, ``discharge``, ``transfer``,
``stuck``, ``gen``, ``export-digraph``.  Map files are read from a path
or from stdin as ``-``.  Exit codes: 0 success, 1 a checked property
fails (not polyhedral, not transferable, no stuck path, audit
contradiction), 2 malformed input or parameters, 3 state budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .curvature_light import scan_theorem2
from .discharging import run_discharge
from .errors import BudgetError, MapFormatError, StructureError
from .generators import (hex_klein, hex_torus, k7_torus, tetrahedron,
                         tri_torus, truncate)
from .mapfile import parse_map, serialize_map
from .report import (curvature_section, discharge_section, light_section,
                     render_json, render_text, stuck_section,
                     topology_section, transfer_section, validity_section,
                     verdict_row)
from .surface_map import topology
from .transferability import (DEFAULT_BUDGET, build_transfer_digraph,
                              find_stuck, n_verdict, transferability)
from .validity import check_polyhedral

__all__ = ["main"]

_FAMILIES = {
    "hex-torus": (hex_torus, 2),
    "tri-torus": (tri_torus, 2),
    "k7-torus": (k7_torus, 0),
    "hex-klein": (hex_klein, 2),
    "tetrahedron": (tetrahedron, 0),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MapFormatError, StructureError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


def _build_parser():
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="state budget for the search")

    parser = argparse.ArgumentParser(
        prog="polymap",
        description="Analyze maps on surfaces given as signed rotation systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[report],
                       help="topology, validity, curvature and light vertices")
    p.add_argument("file", help="map file, or - for stdin")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("check", parents=[report],
                       help="validity only; exit 0 iff polyhedral")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("discharge", parents=[report],
                       help="run the discharging rules with ledger and audits")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_discharge)

    p = sub.add_parser("transfer", parents=[report, search],
                       help="path transferability of the underlying graph")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int, help="test one path length")
    mode.add_argument("--sweep", action="store_true",
                      help="sweep path lengths 1..--max-n")
    p.add_argument("--max-n", type=int, default=None,
                   help="upper bound for --sweep (default: longest path)")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("stuck", parents=[report, search],
                       help="search for a path with no legal move")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--anchor", default=None,
                   help="vertex to search around first")
    p.set_defaults(handler=_cmd_stuck)

    p = sub.add_parser("gen",
                       help="write a generated map in the file format")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="*", type=int,
                   help="family parameters (e.g. p q)")
    p.add_argument("--truncate", action="store_true",
                   help="truncate the generated map")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("export-digraph", parents=[report, search],
                       help="emit the transfer digraph in DOT format")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


def _read_map(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise StructureError("cannot read %s: %s" % (args.file, exc))
    return parse_map(text)


def _emit(args, doc):
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(doc))


def _cmd_analyze(args):
    top = topology(_read_map(args))
    validity = check_polyhedral(top)
    scan = scan_theorem2(top, validity)
    _emit(args, {
        "topology": topology_section(top),
        "validity": validity_section(validity),
        "curvature": curvature_section(top),
        "light": light_section(scan),
    })
    return 0


def _cmd_check(args):
    validity = check_polyhedral(topology(_read_map(args)))
    _emit(args, {"validity": validity_section(validity)})
    return 0 if validity.polyhedral else 1


def _cmd_discharge(args):
    top = topology(_read_map(args))
    state, ledger, audit = run_discharge(top)
    _emit(args, {
        "topology": topology_section(top),
        "discharge": discharge_section(state, ledger, audit),
    })
    return 1 if audit.contradiction else 0


def _cmd_transfer(args):
    graph = _read_map(args).adjacency()
    if args.n is not None:
        verdict = n_verdict(graph, args.n, args.budget)
        _emit(args, {"transfer": verdict_row(verdict)})
        return 0 if verdict.transferable else 1
    result = transferability(graph, args.max_n, args.budget)
    _emit(args, {"transfer": transfer_section(result)})
    return 3 if result.truncated_at is not None else 0


def _cmd_stuck(args):
    graph = _read_map(args).adjacency()
    witness = find_stuck(graph, args.n, anchor=args.anchor,
                         budget=args.budget)
    _emit(args, {"stuck": stuck_section(witness, args.n, args.anchor)})
    return 0 if witness is not None else 1


def _cmd_gen(args):
    builder, arity = _FAMILIES[args.family]
    if len(args.params) != arity:
        raise ValueError("%s takes %d parameter(s), got %d"
                         % (args.family, arity, len(args.params)))
    rs = builder(*args.params)
    if args.truncate:
        rs = truncate(rs)
    sys.stdout.write(serialize_map(rs))
    return 0


def _cmd_export(args):
    graph = _read_map(args).adjacency()
    digraph = build_transfer_digraph(graph, args.n, args.budget)
    sys.stdout.write(digraph.to_dot())
    return 0
