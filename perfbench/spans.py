#!/usr/bin/env python3
"""Self time per layer from the spans a traced benchmark run writes.

    python3 perfbench/spans.py .bench_out/<run>/spans.jsonl

A span's self time is its duration minus the part of its interval that
its child spans cover; a layer's self time is the sum over its spans.
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_time_by_layer(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["t0"], s["t1"]))
    by_layer = defaultdict(float)
    for s in spans:
        dur = s["t1"] - s["t0"]
        by_layer[s["layer"]] += dur - covered(s["t0"], s["t1"],
                                              children.get(s["id"], []))
    return dict(by_layer)


def render(workload, table, overhead):
    total = sum(table.values()) or 1.0
    rows = ["self time by layer, workload %s (all traced rounds)" % workload,
            "  %-14s %12s %7s" % ("layer", "self_s", "share")]
    for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
        rows.append("  %-14s %12.6f %6.1f%%" % (layer, secs,
                                                100.0 * secs / total))
    if overhead is not None:
        rows.append("  obs.trace_overhead %+.4f (traced over untraced round"
                    " time, minus 1)" % overhead)
    return "\n".join(rows)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spans = load(sys.argv[1])
    workload = spans[0]["workload"] if spans else "?"
    print(render(workload, self_time_by_layer(spans), None))
