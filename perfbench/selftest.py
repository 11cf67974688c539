#!/usr/bin/env python3
"""Self-test of the benchmark in its short mode.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --short, untraced and traced,
and checks the result line against the contract: exactly the keys
correct/attempted/failed/metrics, a correct run with no failures, every
declared metric (and no other) with its declared unit and a finite value,
and non-zero end-to-end metrics. Each workload also runs twice on one seed:
the step-domain guards must agree exactly across runs (the program itself
checks them across passes). Exits 1 on the first violation.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEP_GUARDS = ("makespan_steps", "commit_latency_steps.p50",
               "commit_latency_steps.p999")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), "--short"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n"
                 f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(result, declared, what, nonzero):
    def fail(msg):
        sys.exit(f"FAIL {what}: {msg}")

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail("run reported incorrect output")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"attempted = {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{m['name']} value {got['value']}")
        if nonzero and got["value"] == 0:
            fail(f"{m['name']} is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = run(name, 3, 0)
        check(first, bench["end_to_end"], f"{name} trace=0", nonzero=True)
        again = run(name, 3, 0)
        for g in STEP_GUARDS:
            if first["metrics"][g]["value"] != again["metrics"][g]["value"]:
                sys.exit(f"FAIL {name}: {g} differs between runs of one seed")
        traced = run(name, 3, 1)
        check(traced, bench["per_layer"], f"{name} trace=1", nonzero=False)
        print(f"ok {name}")
    print("selftest passed")


if __name__ == "__main__":
    main()
