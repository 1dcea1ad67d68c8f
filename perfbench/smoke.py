#!/usr/bin/env python3
"""The benchmark's own smoke test.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at tiny size, traced and untraced, and checks the
result line's schema against BENCHMARK.json and the metric catalog
(perfbench/metrics.json).  Then runs mc-deep, whose operations all pass,
against a deliberately wrong expected verdict and checks that the
failure is counted.  Exits 1 on the first problem.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, *extra):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", *extra]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(argv), r.returncode,
                                     r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_schema(result, declared, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(where + ": keys " + str(sorted(result)))
    if not isinstance(result["correct"], bool):
        fail(where + ": correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(where + ": " + key + " is not a count")
    if result["attempted"] < 1:
        fail(where + ": nothing attempted")
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        fail(where + ": metrics differ from BENCHMARK.json: "
             + str(sorted(set(result["metrics"]) ^ set(want))))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            fail(where + ": metric " + name + " malformed: " + str(m))
        if not isinstance(m["value"], (int, float)):
            fail(where + ": metric " + name + " is not a number")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/metrics.json") as f:
        catalog = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)) or not all(map(NAME.match, names)):
        fail("metric names must be unique and well formed")
    if [m["name"] for m in bench["per_layer"]] != list(catalog):
        fail("perfbench/metrics.json must list the per-layer metrics of "
             "BENCHMARK.json, in order")
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            result = run(workload, trace)
            where = "%s trace %d" % (workload, trace)
            check_schema(result, bench["per_layer" if trace else "end_to_end"],
                         where)
            if not result["correct"]:
                fail(where + ": outputs inconsistent")
            print("smoke: ok %-8s trace %d  attempted %d failed %d"
                  % (workload, trace, result["attempted"], result["failed"]))
    clean = run("mc-deep", 1)
    wrong = run("mc-deep", 1, "--wrong-expect")
    if clean["failed"] != 0 or clean["metrics"]["fail_frac"]["value"] != 0:
        fail("mc-deep fails without a wrong expectation")
    if wrong["failed"] == 0 or wrong["metrics"]["fail_frac"]["value"] <= 0:
        fail("a wrong expected verdict was not counted as a failure")
    print("smoke: ok wrong expectation counted: %d of %d operations failed"
          % (wrong["failed"], wrong["attempted"]))


if __name__ == "__main__":
    main()
