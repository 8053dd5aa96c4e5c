#!/usr/bin/env python3
"""Builds and runs the HEAVEN end-to-end benchmark.

    python3 perfbench/run.py --workload cold_range --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and compiles
perfbench/ (the library sources under src/ plus bench/workload.cc) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs only rebuild what changed. Build output goes to stderr. The
benchmark's report goes to stdout and its last line is one JSON object
with the keys correct, attempted, failed and metrics. The metric names
are checked against BENCHMARK.json: the end_to_end list with --trace 0,
the per_layer list with --trace 1.

--workload all runs every workload in turn and ends with one combined
JSON line whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cold_range", "hot_storm", "ingest_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs `cmd` with its output on stderr; fails on error or timeout."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail("build step failed: %s" % error)


def build():
    for source in ("src/CMakeLists.txt", "bench/workload.cc",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, source)):
            fail("missing %s: run from a full checkout of the repository"
                 % source)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        dump_dir = os.path.join(build_dir, "traces")
        os.makedirs(dump_dir, exist_ok=True)
        cmd += ["--dump-dir", dump_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return proc.returncode or 1, None
    names = sorted(result.get("metrics", {}))
    if names != sorted(expected_metrics(trace)):
        fail("%s printed metrics %s, BENCHMARK.json lists %s"
             % (workload, names, sorted(expected_metrics(trace))))
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = build()
    if args.workload != "all":
        code, result = run_workload(build_dir, args.workload, args.seed,
                                    args.seconds, args.trace == 1)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in WORKLOADS:
        print("== %s" % workload)
        code, result = run_workload(build_dir, workload, args.seed,
                                    args.seconds, args.trace == 1)
        exit_code = exit_code or code
        if result is None:
            combined["correct"] = False
            continue
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
