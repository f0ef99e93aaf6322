#!/usr/bin/env python3
"""The benchmark's own test, on a tiny dataset (a few seconds per run).

    python3 stackbench/selftest.py [--binary PATH]

Without --binary it builds the benchmark the way run.py does (run it from
the repository root). It asserts that
  1. every metric BENCHMARK.json names is emitted, on every workload, with
     the unit BENCHMARK.json gives and a sample count;
  2. a deliberately corrupted answer is counted in fail_ratio and makes the
     run exit non-zero;
  3. on a heatmap query, the traced ladder's self times add up to the
     request's end-to-end time within LADDER_TOLERANCE_PCT.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lookup", "analytics", "ingest"]
LADDER_TOLERANCE_PCT = 15.0


def run(binary, workload, trace, *extra):
    argv = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary")
    args = ap.parse_args()
    binary = args.binary
    if not binary:
        sys.path.insert(0, HERE)
        import run as runner  # noqa: E402 (run.py next to this file)
        binary = runner.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    # 1. Every metric, with its unit and a sample count, on every workload.
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(binary, workload, trace)
            if code != 0:
                problems.append("%s trace=%d: exit %d %s" %
                                (workload, trace, code, result["errors"]))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: %s missing" %
                                    (workload, trace, m["name"]))
                elif got["unit"] != m["unit"] or got["samples"] < 1:
                    problems.append("%s trace=%d: %s unit %r samples %d" %
                                    (workload, trace, m["name"], got["unit"],
                                     got["samples"]))

    # 2. A corrupted answer is a failure.
    code, result = run(binary, "lookup", 0, "--corrupt-answer")
    if code == 0 or result["metrics"]["fail_ratio"]["value"] <= 0:
        problems.append("corrupted answer not counted: exit %d, fail_ratio %s"
                        % (code, result["metrics"]["fail_ratio"]["value"]))

    # 3. The heatmap ladder adds up.
    _, result = run(binary, "analytics", 1, "--ladder-check")
    error = result["metrics"]["ladder.sum_error_pct"]["value"]
    if error > LADDER_TOLERANCE_PCT:
        problems.append("heatmap ladder self times are %.1f%% off the request"
                        % error)

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
