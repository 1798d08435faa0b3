#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with --tiny,
untraced and traced, and checks that each run prints exactly the metrics
BENCHMARK.json names for that mode, each with its unit and a finite value,
and passes its correctness checks.  Then it checks that the correctness
checks can fail: a placement with one DROP rule removed must fail the
dataplane check, and a dropped event must fail the serve accounting check.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace=0, corrupt=None):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {proc.returncode}\n"
                             f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    return result, diagnostics


def check_metrics(result, spec, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{label}: attempted {result['attempted']}")
    if not isinstance(result["failed"], int):
        raise AssertionError(f"{label}: failed {result['failed']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        raise AssertionError(
            f"{label}: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            raise AssertionError(f"{label}: {name} unit {m.get('unit')}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise AssertionError(f"{label}: {name} value {v!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace={trace}"
            result, diag = run(w["name"], trace)
            check_metrics(result, bench[key], label)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{label}: {diag['failures']}")
            print(f"ok   {label}: {len(result['metrics'])} metrics")

    corruptions = [("place_k32", "drop_rule", "dataplane"),
                   ("place_k32", "drop_event", "accounting"),
                   ("serve_mixed", "drop_event", "accounting")]
    for workload, corrupt, check in corruptions:
        label = f"{workload} --corrupt {corrupt}"
        result, diag = run(workload, 0, corrupt)
        caught = [f for f in diag["failures"] if check in f]
        if result["correct"] or not caught:
            raise AssertionError(f"{label}: the {check} check did not fail")
        print(f"ok   {label}: {caught[0]}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
