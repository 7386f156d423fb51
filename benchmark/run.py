#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload campaign_mm --seed 1 \
        --seconds 20 --trace 0
    python3 benchmark/run.py --self-test

The first call configures and builds benchmark/ (which compiles ../src)
into .bench_build/ at the repository root; later calls only re-check the
build. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. --self-test runs every workload in
the tiny smoke mode with tracing off and on, and checks that each run
passes its output checks and emits exactly the metrics, with the units,
that BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "warped_bench")
WORKLOADS = ["sim_ref", "campaign_mm", "campaign_sha_sharded",
             "campaign_mem"]


def build():
    """Configure (once) and build; exits non-zero when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("benchmark: no simulator sources in %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("benchmark: cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        sys.exit("benchmark: build failed")


def run_bench(args):
    """Run the binary; returns (exit code, stdout text)."""
    proc = subprocess.run([BINARY, "--workdir", WORKDIR] + args,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s" % names)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_bench(["--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace",
                                   str(trace), "--smoke"])
            where = "%s --trace %d" % (workload, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: output checks failed" % where)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics %s, expected %s"
                                % (where, got, want[trace]))
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (where, k))
            print("self-test: %s ok" % where)
    for p in problems:
        print("self-test: FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    code, out = run_bench(["--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
