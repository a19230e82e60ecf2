#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The engine and the benchmark are compiled
into .bench_build/ (or $CARGO_TARGET_DIR when set), the checker self-test
runs, then one workload runs in its own process. The last line of standard
output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run records spans and the metrics are the per-layer ones,
computed by trace_summary.py. Exits non-zero, printing no result, when the
build, the self-test or the workload process fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import trace_summary  # noqa: E402

# The workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return out


def run_process(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, ""
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    out = build()
    if out is None:
        return 1
    code, selftest = run_process([os.path.join(out, "perfbench_selftest")], 60)
    if code != 0:
        sys.stderr.write(selftest)
        log("checker self-test failed")
        return 1

    work_dir = os.path.join(out, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
        code, stdout = run_process(cmd, RUN_TIMEOUT_S)
        if code != 0 or not stdout.strip():
            log(f"workload process failed (exit code {code})")
            return 1
        raw = json.loads(stdout.strip().splitlines()[-1])
        if args.trace:
            metrics = trace_summary.per_layer(raw, spec["per_layer"])
        else:
            metrics = {}
            for m in spec["end_to_end"]:
                if m["name"] not in raw["metrics"]:
                    log(f"workload did not report {m['name']}")
                    return 1
                metrics[m["name"]] = {"value": raw["metrics"][m["name"]]["value"],
                                      "unit": m["unit"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not raw["correct"]:
        log(f"OUTPUT CHECK FAILED: {raw['error']}")
    log(f"{raw['tables_checked']} result tables checked against the reference; "
        f"{raw['answer_variants']} repeats were not bit-identical to the first answer")
    print("operations: " + json.dumps(raw["ops"], sort_keys=True))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": sum(op["attempted"] for op in raw["ops"].values()),
        "failed": sum(op["failed"] for op in raw["ops"].values()),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
