#!/usr/bin/env python3
"""Steadiness check: runs every workload N times, in alternating order, and
prints the median, quartiles and spread of each end-to-end metric.

Run it from the repository root:

    python3 perfbench/steady.py --runs 10

Run i of every workload uses seed i+1; the workloads take turns, so a slow
spell of the machine lands on all of them instead of one. --seconds defaults
to BENCHMARK.json's run_seconds. The spread is (q3 - q1) / median, with the
quartiles of Python's statistics.quantiles(values, n=4).
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


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            cmd = spec["command"] + ["--workload", w, "--seed", str(i + 1),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t = time.time()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.time() - t
            if out.returncode != 0:
                sys.exit("%s seed %d failed (%d):\n%s" % (w, i + 1, out.returncode, out.stderr))
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["elapsed_s"] = took
            results[w].append(res)
            print("%-12s seed %-3d %5.1fs correct=%s failed=%d/%d" % (
                w, i + 1, took, res["correct"], res["failed"], res["attempted"]), file=sys.stderr)

    print("%-12s %-24s %12s %12s %12s %8s %6s" % ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in names:
        runs = results[w]
        for m in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print("%-12s %-24s %12.6g %12.6g %12.6g %8.4f %6s" % (
                w, m, med, q1, q3, spread, bounds.get(m, "")))
        shares = {r["failed"] / r["attempted"] for r in runs}
        elapsed = statistics.median(r["elapsed_s"] for r in runs)
        print("%-12s %-24s %12s   (failed share %s, median run %.1fs)" % (
            w, "correct", all(r["correct"] for r in runs), sorted(shares), elapsed))


if __name__ == "__main__":
    main()
