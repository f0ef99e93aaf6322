#!/usr/bin/env python3
"""Builds stackbench from source and runs one workload of it.

Run from the repository root:

    python3 stackbench/run.py --workload lookup|analytics|ingest \
        --seed N --seconds S --trace 0|1

The benchmark is compiled (Release) into .bench_build/stackbench on first
use. The workload's inputs come from --seed alone. Progress goes to stderr;
stdout gets the configuration stamp, one line per metric (value, unit,
sample count) and, as its last line, the result:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The full result, with the configuration and
the spans of a traced run, is kept under .bench_out/. The exit code is 0
only when every answer checked out.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stackbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("stackbench: " + message, file=sys.stderr)
    sys.exit(2)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt in the working directory: "
             "run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "stackbench"]]
    if cmake_cache("CMAKE_BUILD_TYPE") == "Release":
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "stackbench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def compiler_version(path):
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else path
    except (OSError, subprocess.SubprocessError, IndexError):
        return path


def run_binary(binary, argv):
    """Runs the benchmark binary; returns (exit code, parsed result)."""
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result (exit code %d)" %
             proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def wanted_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["lookup", "analytics", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s_%d_%d" % (args.workload, args.seed, args.trace)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", os.path.join(OUT_DIR, "spans_%s.jsonl" % tag)]
    code, result = run_binary(binary, argv)
    if code not in (0, 1):
        fail("the benchmark failed (exit code %d)" % code)

    config = result["config"]
    config["build_type"] = cmake_cache("CMAKE_BUILD_TYPE")
    config["cxx"] = compiler_version(cmake_cache("CMAKE_CXX_COMPILER"))
    config["git_commit"] = git_commit()
    with open(os.path.join(OUT_DIR, "result_%s.json" % tag), "w") as f:
        json.dump(result, f, indent=1)

    metrics = result["metrics"]
    names = wanted_metrics(args.trace) or sorted(metrics)
    missing = [n for n in names if n not in metrics]
    correct = (result["valid"] and result["failed"] == 0 and not missing)
    for key in sorted(config):
        print("config %-10s %s" % (key, json.dumps(config[key])))
    for name in names:
        m = metrics.get(name)
        if m:
            print("metric %-36s %16.4f %-6s samples=%d" %
                  (name, m["value"], m["unit"], m["samples"]))
    for error in result.get("errors", []) + ["missing metric " + n
                                             for n in missing]:
        print("error  " + error)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]) + len(missing),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]}
                    for n in names if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
