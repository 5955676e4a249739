#!/usr/bin/env python3
"""Steadiness check: runs every workload N times per set, alternating the
workloads, over two sets with the same seeds, and judges the result
against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

Run from the root of a checkout. Every set runs every workload of
BENCHMARK.json once per seed 1..runs, for run_seconds each. For every
end-to-end metric it prints the median and quartiles per set, and it fails
(exit 1) when

  * a modeled metric differs between two runs of the same seed,
  * a run's output checks failed or its failed share differs from another's,
  * a spread (Q3 - Q1) / median exceeds the metric's bound,
  * a later set's median is worse than the first set's by more than the
    bound.

Spreads above a third of the bound are flagged as a warning.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction

# Modeled metrics come from the deterministic simulation: for one seed they
# must repeat bit for bit.
MODELED = {"sim_s", "agg_p50_ms"}


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds",
                  str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    for line in p.stderr.splitlines():
        if line.startswith("perfbench:"):
            sys.stderr.write(line + "\n")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d exited %d" % (workload, seed, p.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (positive = worse)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    d = (new - base) / base
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    opt = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, opt.runs + 1))

    # results[set][workload] = list of result objects, in seed order.
    results = []
    for s in range(opt.sets):
        per = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                r = run_once(cmd, w, seed, seconds)
                per[w].append(r)
                sys.stderr.write("set %d %s seed %d: %s\n" % (
                    s + 1, w, seed,
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())))
        results.append(per)

    problems, warnings = [], []
    for w in workloads:
        print("== %s" % w)
        shares = set()
        for s, per in enumerate(results):
            for seed, r in zip(seeds, per[w]):
                if not r["correct"]:
                    problems.append("%s seed %d: output checks failed" % (w, seed))
                shares.add(Fraction(r["failed"], r["attempted"]))
                missing = set(metrics) - set(r["metrics"])
                if missing:
                    problems.append("%s seed %d: missing %s" % (w, seed, sorted(missing)))
        if len(shares) > 1:
            problems.append("%s: failed share differs between runs: %s" % (
                w, sorted(str(x) for x in shares)))
        for name, m in metrics.items():
            medians = []
            for s, per in enumerate(results):
                vals = [r["metrics"][name]["value"] for r in per[w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                print("  %-12s set %d  median %-14.6g Q1 %-14.6g Q3 %-14.6g spread %6.2f%%  (bound %g%%)" % (
                    name, s + 1, med, q1, q3, 100 * spread, 100 * m["bound"]))
                if spread > m["bound"]:
                    problems.append("%s %s set %d: spread %.2f%% > bound %g%%" % (
                        w, name, s + 1, 100 * spread, 100 * m["bound"]))
                elif spread > m["bound"] / 3:
                    warnings.append("%s %s set %d: spread %.2f%% > bound/3" % (
                        w, name, s + 1, 100 * spread))
                if name in MODELED and s > 0:
                    for seed, a, b in zip(seeds, results[0][w], per[w]):
                        if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                            problems.append("%s %s seed %d: modeled value differs between sets" % (
                                w, name, seed))
            for s in range(1, len(medians)):
                d = worse_by(m, medians[0], medians[s])
                if d > m["bound"]:
                    problems.append("%s %s: set %d median worse by %.2f%% > bound %g%%" % (
                        w, name, s + 1, 100 * d, 100 * m["bound"]))

    for x in warnings:
        print("warning: " + x)
    for x in problems:
        print("FAIL: " + x)
    print("steady.py: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
