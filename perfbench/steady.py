#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report spreads.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--trace]

Round i (from 1) runs every workload with seed i for BENCHMARK.json's
run_seconds, and the workloads run in alternating order
(the order rotates by one each round), so slow drift on the host hits
every workload alike.  For each workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json.  A
spread above a third of the bound is marked "wide", above the bound
"OVER".  The exit code is non-zero when any run fails or any
end-to-end spread is over its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--trace", action="store_true",
                    help="run traced and report the per-layer metrics")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {w: {m["name"]: [] for m in specs} for w in workloads}
    bad_runs = 0
    for i in range(args.runs):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            seed = i + 1
            res = run_once(w, seed, bench["run_seconds"], args.trace)
            ok = res is not None and res["correct"] and res["failed"] == 0
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"{'ok' if ok else 'FAILED'}", file=sys.stderr,
                  flush=True)
            if not ok:
                bad_runs += 1
            if res is None:
                continue
            for m in specs:
                if m["name"] in res["metrics"]:
                    values[w][m["name"]].append(
                        res["metrics"][m["name"]]["value"])

    over = 0
    print(f"{'workload':16} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in specs:
            v = values[w][m["name"]]
            if len(v) < 2:
                print(f"{w:16} {m['name']:34} (too few values)")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "OVER"
                    over += 1
                elif spread > bound / 3:
                    verdict = "wide"
            print(f"{w:16} {m['name']:34} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    if bad_runs:
        print(f"{bad_runs} run(s) failed", file=sys.stderr)
    return 1 if bad_runs or over else 0


if __name__ == "__main__":
    sys.exit(main())
