#!/usr/bin/env python3
"""Steadiness check: runs one workload N times per side and prints, per
end-to-end metric, each side's median, quartiles and spread, and how far
side B's median is from side A's, against the metric's bound.

    python3 perfbench/steady.py --workload ingest --runs 10
    python3 perfbench/steady.py --workload ingest --runs 10 --other ../parent-checkout

Runs alternate between this checkout (side A) and --other (side B, a
second checkout of the repository; without it both sides are this
checkout). Seeds are 1..N, and each pair of runs uses the same seed.
Every run is an end-to-end run (--trace 0) of BENCHMARK.json's
run_seconds. A metric passes when both spreads (q3 - q1) / median stay
within its bound (setup_s excepted) and B's median is not worse than
A's by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed in %s (seed %d)" % (checkout, seed))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--other", help="second checkout (side B)")
    args = parser.parse_args()
    here = os.path.dirname(HERE)
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"A": here, "B": os.path.abspath(args.other) if args.other else here}
    results = {"A": [], "B": []}
    for seed in range(1, args.runs + 1):
        order = ("A", "B") if seed % 2 else ("B", "A")
        for side in order:
            r = run(sides[side], args.workload, seed, bench["run_seconds"])
            results[side].append(r)
            print("%s seed %d: %s" % (side, seed, json.dumps(r)), file=sys.stderr)
    print("%-26s %4s %12s %12s %12s %7s %7s %6s" % (
        "metric", "side", "median", "q1", "q3", "spread", "B-A", "bound"))
    ok = True
    for name in sorted(metrics):
        spec = metrics[name]
        stats = {side: summary([r["metrics"][name]["value"] for r in results[side]])
                 for side in ("A", "B")}
        a, b = stats["A"][0], stats["B"][0]
        worse = ((b - a) if spec["better"] == "lower" else (a - b)) / a if a else 0.0
        fail = worse > spec["bound"] or (name != "setup_s" and any(
            s[3] > spec["bound"] for s in stats.values()))
        ok = ok and not fail
        for side in ("A", "B"):
            med, q1, q3, spread = stats[side]
            print("%-26s %4s %12.6g %12.6g %12.6g %6.1f%% %s" % (
                name, side, med, q1, q3, 100 * spread,
                "%+6.1f%% %6.2f%s" % (100 * worse, spec["bound"], "  OVER" if fail else "")
                if side == "B" else ""))
    for side in ("A", "B"):
        shares = {r["failed"] / r["attempted"] for r in results[side]}
        print("side %s: correct in all runs: %s; failed shares: %s" % (
            side, all(r["correct"] for r in results[side]), sorted(shares)))
    print("within bounds: %s" % ok)


if __name__ == "__main__":
    main()
