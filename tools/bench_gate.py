#!/usr/bin/env python3
"""Paired benchmark gate: fail a change that is more than 2x worse than its parent.

    python3 tools/bench_gate.py PARENT_RESULTS CHANGE_RESULTS

Each file holds benchmark/run.py result lines (the last line of its
standard output), one per workload, in the same order in both files.
For every end-to-end metric in BENCHMARK.json the gate compares the
change with the parent line by line; "worse" follows that metric's
"better" direction. It fails when any metric is more than 2x worse,
when a change result says "correct": false, or when a change result
counts more failed operations than the parent's.

Exit codes: 0 pass, 1 gate failed, 2 unusable input.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_RATIO = 2.0


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(line, parent, change, better):
    """Returns the problems of one pair of result lines."""
    problems = []
    if not change["correct"]:
        problems.append("line %d: change reports correct: false" % line)
    if change["failed"] > parent["failed"]:
        problems.append("line %d: change failed %d operations, parent %d"
                        % (line, change["failed"], parent["failed"]))
    for name, direction in better.items():
        if name not in change["metrics"]:
            problems.append("line %d: change has no %s" % (line, name))
            continue
        now = change["metrics"][name]["value"]
        was = parent["metrics"][name]["value"]
        ratio = now / was
        worse = ratio if direction == "lower" else (
            1 / ratio if ratio > 0 else float("inf"))
        verdict = "FAIL" if worse > MAX_RATIO else "ok"
        print("line %d %-16s parent %-12.4g change %-12.4g %6.3fx %s"
              % (line, name, was, now, ratio, verdict))
        if worse > MAX_RATIO:
            problems.append("line %d: %s is %.2fx worse than the parent"
                            % (line, name, worse))
    return problems


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py PARENT_RESULTS CHANGE_RESULTS",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load(argv[1]), load(argv[2])
    if not change or len(parent) != len(change):
        print("bench_gate: %d parent and %d change results; need the "
              "same non-zero number" % (len(parent), len(change)),
              file=sys.stderr)
        return 2
    problems = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        problems += compare(i, p, c, better)
    for p in problems:
        print("bench_gate: FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
