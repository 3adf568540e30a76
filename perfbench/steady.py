"""Steadiness mode: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload cubic-paths --runs 10 --seed 1

Runs ``perfbench/run.py`` once per seed (seed, seed+1, ...), one run at a
time, and prints per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, beside the metric's bound from BENCHMARK.json.  The
bounds in BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    values, shares, walls = {}, [], []
    for seed in range(args.seed, args.seed + args.runs):
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("run with seed %d exited %d" % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("\n".join(l for l in done.stdout.splitlines() if "problem" in l))
            raise SystemExit("run with seed %d gave wrong outputs" % seed)
        shares.append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %.1f s wall, %s" % (seed, walls[-1], json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print("%-42s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-42s %12.5g %12.5g %12.5g %8.4f %6s" % (
            name, median, q1, q3, spread, "-" if bound is None else bound))
    failed_share = {f / a for f, a in shares}
    print("failed share of attempted: %s" % sorted(failed_share))
    print("wall per run: median %.1f s, max %.1f s" % (statistics.median(walls), max(walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
