#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, runs one workload, checks that the result carries exactly
the metrics BENCHMARK.json names for that mode, and prints the result as
the last line of standard output.  Build logs go to standard error.  The
workloads and metrics are described in perfbench/README.md.

Extra flags for the self-test: --tiny (small instances) and
--corrupt drop_rule|drop_event (deliberately broken output).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", choices=("drop_rule", "drop_event"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"units {sorted(n for n in want if n in got and got[n] != want[n])}",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
