"""Tests of the benchmark itself: every check rejects a corrupted output,
and a tiny version of each workload runs clean, untraced and traced.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Per workload: (op, exit code, output) of every smoke operation,
    and the Context that checks them."""
    outputs = {}
    for name in workloads.WORKLOADS:
        setup = run.Setup(name, 7, tmp_path_factory.mktemp(name), pace.Reference(),
                          smoke=True)
        runs = [run.execute(setup, i) for i in range(len(setup.ops))]
        outputs[name] = (checks.Context(setup.texts), [
            (setup.ops[r.index], r.rc,
             run.kept_path(setup, r.index, r.digest).read_text(encoding="utf-8"))
            for r in runs])
    return outputs


def pick(smoke_outputs, workload, command, where=lambda op: True):
    ctx, runs = smoke_outputs[workload]
    op, rc, text = next(r for r in runs if r[0].command == command and where(r[0]))
    assert checks.check(op, rc, text, ctx) == []
    return ctx, op, rc, text


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload(workload, traced):
    args = types.SimpleNamespace(workload=workload, seed=3, seconds=0, trace=traced)
    result, info, _ = run.run(args, smoke=True)
    assert result["correct"], info
    assert result["failed"] == 0 and result["attempted"] > 0
    names = tracing.PER_LAYER if traced else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracing.unit(name)) for name in tracing.PER_LAYER]


def test_rejects_a_wrong_transferability_value(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "cubic-paths", "sweep")
    doc = json.loads(text)
    doc["transfer"]["value"] = 13
    assert checks.check(op, rc, json.dumps(doc), ctx)


def test_rejects_a_value_other_than_the_papers():
    op = workloads.Op("sweep", "m", ("transfer", "m", "--sweep", "--max-n", "1"),
                      {"value": 12})
    ctx = checks.Context({"m": "v a: e+ f+ g+\nv b: e+\nv c: f+\nv d: g+\n"})
    out = {"transfer": {"value": 1, "search_bound": 1, "truncated_at": None,
                        "per_n": [{"n": 1, "transferable": True, "reason": "",
                                   "states": 6, "sccs": 1}]}}
    problems = checks.check(op, 0, json.dumps(out), ctx)
    assert problems == ["value 1, the paper states 12"]


def test_rejects_a_wrong_state_count(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "cubic-paths", "transfer_n")
    doc = json.loads(text)
    doc["transfer"]["states"] += 1
    assert checks.check(op, rc, json.dumps(doc), ctx)


def test_rejects_a_non_separating_cut_pair(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "broken-maps", "check",
                             lambda op: op.map_name.startswith("subdivide"))
    doc = json.loads(text)
    adj = ctx.map(op.map_name).adj
    pair = next((u, w) for u in sorted(adj) for w in sorted(adj)
                if u < w and not oracle.separates(adj, {u, w}))
    index = next(i for i, w in enumerate(doc["validity"]["witnesses"])
                 if w[0] == "cut_pair")
    doc["validity"]["witnesses"][index] = ["cut_pair", *pair]
    problems = checks.check(op, rc, json.dumps(doc), ctx)
    assert any("does not separate" in p for p in problems)


def test_rejects_one_changed_ledger_amount(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "tori-verify", "discharge")
    for index in (0, -1):
        doc = json.loads(text)
        entry = doc["discharge"]["transfers"][index]
        changed = Fraction(entry["amount"]) + Fraction(1, 10)
        entry["amount"] = "%d/%d" % (changed.numerator, changed.denominator)
        assert checks.check(op, rc, json.dumps(doc), ctx), entry


def test_rejects_an_illegal_dot_arc(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "cubic-paths", "export")
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if " -> " in line)
    source = lines[index].strip().rstrip(";").split(" -> ")[0]
    lines[index] = "  %s -> %s;" % (source, source)
    problems = checks.check(op, rc, "\n".join(lines) + "\n", ctx)
    assert any("illegal arc" in p for p in problems)


def test_rejects_a_stuck_witness_with_a_move(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "cubic-paths", "stuck",
                             lambda op: op.flag("--anchor") is not None)
    doc = json.loads(text)
    doc["stuck"]["path"] = list(reversed(doc["stuck"]["path"]))
    adj = ctx.map(op.map_name).adj
    path = doc["stuck"]["path"]
    if all(w in path[1:-1] for w in adj[path[-1]]):
        pytest.skip("the reversed witness is stuck as well")
    assert checks.check(op, rc, json.dumps(doc), ctx)


def test_rejects_a_wrong_exit_code(smoke_outputs):
    ctx, op, rc, text = pick(smoke_outputs, "broken-maps", "check")
    assert checks.check(op, 1 - rc, text, ctx)


def test_oracle_three_connectivity():
    k4 = {v: {w for w in "abcd" if w != v} for v in "abcd"}
    cycle = {i: {(i - 1) % 5, (i + 1) % 5} for i in range(5)}
    assert oracle.three_connected(k4)
    assert not oracle.three_connected(cycle)
    assert oracle.separates(cycle, {0, 2}) and not oracle.separates(cycle, {0, 1})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubic-paths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
