"""Benchmark for polymap: time to a checked verdict from the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tori-verify --seed 1 --seconds 20 --trace 0

One process, no threads.  Set-up imports polymap from ``src/``,
generates the workload's maps and writes them as map files; it is
repeated several times and its median is ``setup_s``.  Then whole passes
over the workload's operations run until ``--seconds`` have passed (at
least one pass).  Each operation calls ``polymap.cli.main(argv)`` in
process, with stdout going to a file.  After the timed passes every
output is checked against computations made apart from the program
(see checks.py and oracle.py).

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` the same operations run through tracing.py and the result
line carries the per-module metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import checks  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9
END_TO_END = {"pass_s": "s", "op_geomean_ms": "ms", "peak_rss_mib": "MiB",
              "setup_s": "s"}
MODULES = ("cli", "curvature_light", "discharging", "generators", "mapfile",
           "report", "surface_map", "transferability", "validity")


class Setup:
    """A fresh import of polymap plus the workload's map files."""

    def __init__(self, workload, seed, workdir, reference, smoke=False):
        if workdir.exists():
            shutil.rmtree(workdir)
        (workdir / "out").mkdir(parents=True)
        self.reference = reference
        with pace.Pace(reference).measure() as timing:
            self.pm = import_polymap()
            self.texts, self.ops = workloads.build(workload, seed, self.pm, workdir, smoke)
        self.seconds = timing.scaled
        self.workdir = workdir


def import_polymap():
    """Import polymap from this checkout's ``src``, dropping any copy
    already imported, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "polymap" or m.startswith("polymap.")]:
        del sys.modules[name]
    package = importlib.import_module("polymap")
    if Path(package.__file__).resolve().parent != SRC / "polymap":
        raise ImportError("polymap was imported from %s, not from %s"
                          % (package.__file__, SRC))
    return types.SimpleNamespace(**{
        name: importlib.import_module("polymap." + name) for name in MODULES})


class OpRun:
    """Outcome of one operation: wall time, the same at reference speed,
    the pace factor between them, exit code and output digest."""

    def __init__(self, index, timing, rc, digest, error):
        self.index, self.raw_seconds, self.seconds = index, timing.seconds, timing.scaled
        self.factor, self.rc, self.digest, self.error = timing.factor, rc, digest, error


def execute(setup, index, tracer=None):
    """Run operation ``index`` once; stdout goes to a file.  Returns an
    OpRun; a distinct output is kept under ``out/`` for checking."""
    op = setup.ops[index]
    out_path = setup.workdir / "stdout.txt"
    err = io.StringIO()
    rc, error = None, None
    timing = pace.Pace(setup.reference)
    gc.collect()
    try:
        with open(out_path, "w", encoding="utf-8") as out, timing.measure():
            if tracer is None:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = setup.pm.cli.main(list(op.argv))
            else:
                tracer.op = index
                tracer.timings[index] = timing
                rc = tracing.run_op(tracer, setup.pm, op, out)
    except SystemExit as exc:
        error = "exit %s: %s" % (exc.code, err.getvalue().strip())
    except Exception:  # a crash is a failed operation, reported below
        error = traceback.format_exc(limit=4)
    if error is None and rc not in (0, 1):
        error = "exit code %s: %s" % (rc, err.getvalue().strip())
    digest = None
    if error is None:
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        kept = kept_path(setup, index, digest)
        if not kept.exists():
            os.replace(out_path, kept)
    return OpRun(index, timing, rc, digest, error)


def kept_path(setup, index, digest):
    return setup.workdir / "out" / ("%d-%s.txt" % (index, digest[:20]))


def run_passes(setup, seconds, traced):
    """Whole passes until ``seconds`` have passed; returns the OpRuns of
    each pass and, when traced, each pass's Tracer."""
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced else None
        passes.append([execute(setup, i, tracer) for i in range(len(setup.ops))])
        tracers.append(tracer)
        if time.perf_counter() - start >= seconds:
            return passes, tracers


def check_outputs(setup, passes):
    """Check each distinct output once.  Returns the failed operations,
    the problems found in the outputs of the others, and the Context."""
    ctx = checks.Context(setup.texts)
    checked = set()
    failures, wrong = [], []
    for runs in passes:
        for r in runs:
            op = setup.ops[r.index]
            if r.error is not None:
                failures.append("%s failed: %s" % (op.label, r.error))
                continue
            if (r.index, r.digest, r.rc) in checked:
                continue
            checked.add((r.index, r.digest, r.rc))
            text = kept_path(setup, r.index, r.digest).read_text(encoding="utf-8")
            wrong.extend("%s: %s" % (op.label, p)
                         for p in checks.check(op, r.rc, text, ctx))
    return failures, wrong, ctx


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def best_times(passes, raw=False):
    """Each operation's fastest time over the passes, scaled to reference
    speed unless ``raw``.  Noise only ever slows an operation down, so the
    minimum is the steadiest estimate of its cost."""
    return [min(r.raw_seconds if raw else r.seconds for r in (runs[i] for runs in passes))
            for i in range(len(passes[0]))]


def end_to_end(setups, passes):
    best = best_times(passes)
    return {
        "pass_s": sum(best),
        "op_geomean_ms": geomean(best) * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s.seconds for s in setups),
    }


def command_times(setup, passes):
    """Each command's summed best operation time."""
    best = best_times(passes)
    out = {}
    for command in workloads.COMMANDS:
        total = sum(t for t, op in zip(best, setup.ops) if op.command == command)
        if total:
            out[command + "_s"] = round(total, 4)
    return out


def describe(setup, passes, ctx, args, failed, check_s):
    """Lines on the run, the machine and the inputs, printed before the result."""
    lines = ["# perfbench workload=%s seed=%d seconds=%s trace=%d python=%s nproc=%d passes=%d"
             % (args.workload, args.seed, args.seconds, args.trace,
                platform.python_version(), len(os.sched_getaffinity(0)), len(passes))]
    for name in setup.texts:
        m = ctx.map(name)
        lines.append("# map %s: V=%d E=%d F=%d chi=%d orientable=%s"
                     % (name, len(m.vertices), m.num_edges, len(m.faces),
                        m.euler_characteristic, m.orientable))
    for index, op in enumerate(setup.ops):
        if op.command != "sweep":
            continue
        digest = next(r.digest for r in passes[0] if r.index == index)
        if digest is None:
            continue
        text = kept_path(setup, index, digest).read_text(encoding="utf-8")
        for entry in json.loads(text)["transfer"]["per_n"]:
            s = ctx.paths(op.map_name, entry["n"])
            lines.append("# paths %s n=%d: states=%d arcs=%d sccs=%d"
                         % (op.map_name, entry["n"], s["states"], s["arcs"], entry["sccs"]))
    lines.append("# command seconds per pass (best of each operation, at reference speed): %s"
                 % json.dumps(command_times(setup, passes)))
    factors = [r.factor for runs in passes for r in runs]
    lines.append("# wall seconds per pass (best of each operation)=%.4f; machine speed "
                 "against quiet, min/median/max=%.2f/%.2f/%.2f"
                 % (sum(best_times(passes, raw=True)), min(factors),
                    statistics.median(factors), max(factors)))
    lines.append("# operations per pass=%d attempted=%d failed=%d check_s=%.2f"
                 % (len(setup.ops), sum(map(len, passes)), failed, check_s))
    return lines


def run(args, smoke=False):
    """One benchmark run; returns (result dict, info lines, spans)."""
    workdir = WORK / ("run-%d" % os.getpid())
    try:
        reference = pace.Reference()
        setups = [Setup(args.workload, args.seed, workdir, reference, smoke)
                  for _ in range(SETUPS)]
        setup = setups[-1]
        passes, tracers = run_passes(setup, args.seconds, args.trace)
        if args.trace:
            values = tracing.per_layer(tracers)
            units = {name: tracing.unit(name) for name in values}
        else:
            values = end_to_end(setups, passes)
            units = END_TO_END
        start = time.perf_counter()
        failures, wrong, ctx = check_outputs(setup, passes)
        check_s = time.perf_counter() - start
        info = describe(setup, passes, ctx, args, len(failures), check_s)
        info.extend("# problem: %s" % p for p in failures + wrong)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not wrong,
        "attempted": sum(map(len, passes)),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in (tracing.PER_LAYER if args.trace else END_TO_END)},
    }
    spans = []
    for number, tracer in enumerate(tracers):
        if tracer is not None:
            spans.extend(dict(record, passno=number) for record in tracer.records())
    return result, info, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polymap" / "__init__.py").is_file():
        print("error: no polymap sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, info, spans = run(args)
    if spans:
        WORK.mkdir(exist_ok=True)
        path = WORK / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(spans), encoding="utf-8")
        info.append("# spans written to %s" % path.relative_to(ROOT))
    print("\n".join(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
