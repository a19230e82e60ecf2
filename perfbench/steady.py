#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, workloads alternating.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace-runs 1]

In each set, every seed runs every workload once (workloads alternate
within a seed), each through run.py with BENCHMARK.json's run length. Set 1
uses seeds 1..runs, set 2 seeds 101..100+runs. For each workload and
end-to-end metric it prints the median and quartiles of each set, the
spread (quartile distance over median), and whether

  * each set's spread is within the metric's bound (setup_s exempt: a
    run's three half-second set-ups fall within a few seconds, so one stall
    of the machine moves their median; only its cross-set median is held
    to the bound),
  * the two medians differ, in either direction, by at most the bound,
  * the share of failed operations is the same in both sets,

and, with --trace-runs, the tracing overhead: the traced run_s against the
untraced median. Raw results go to the --out JSON file. Exits 1 when any
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - start
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workloads", default="", help="comma-separated (default: all)")
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per workload, for the tracing overhead")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "steady.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [[], []] for w in workloads}
    for s in range(2):
        for i in range(args.runs):
            seed = 100 * s + i + 1
            for w in workloads:
                r = run_once(w, seed, seconds, 0)
                results[w][s].append(r)
                print(f"set {s + 1} seed {seed:>3} {w:<13} {r['wall_s']:6.1f}s "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
    traced = {w: [run_once(w, 1000 + i, seconds, 1) for i in range(args.trace_runs)]
              for w in workloads}

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(2):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                steady = name == "setup_s" or spread <= bound
                ok = ok and steady and all(r["correct"] for r in results[w][s])
                print(f"  {name:<22} {s + 1:>3} {q1:>11.5g} {q2:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {bound:>6.2f}  "
                      f"{'ok' if steady else 'SPREAD ABOVE BOUND'}"
                      f"{' (< bound/3)' if spread < bound / 3 else ''}")
            change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            agree = abs(change) <= bound
            ok = ok and agree
            print(f"  {name:<22} set 2 vs 1: {change:+.3%} "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for runs in results[w]]
        same_share = len(set(shares)) == 1
        ok = ok and same_share
        print(f"  failed share per set: {shares} {'same' if same_share else 'DIFFERENT'}")
        if traced[w]:
            base = statistics.median(
                r["metrics"]["run_s"]["value"] for runs in results[w] for r in runs)
            t = statistics.median(r["metrics"]["trace.run_s"]["value"] for r in traced[w])
            print(f"  tracing overhead: traced run_s {t:.6g} vs untraced {base:.6g} "
                  f"({(t / base - 1):+.1%})")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"results": results, "traced": traced}, f)
    print(f"\n{'ALL STEADY' if ok else 'NOT STEADY'}; raw results in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
