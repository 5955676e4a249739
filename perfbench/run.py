#!/usr/bin/env python3
"""Builds the benchmark from source (if needed) and runs one workload.

    python3 perfbench/run.py --workload <ml-train|sparse-agg|shared-cluster>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory; build output goes to stderr, so
the last line of stdout is the result JSON. Exits non-zero, printing no
result, when the build or a round fails to run.

A run is a series of rounds. A round runs every part of the workload once
(one or more simulations with their set-up and checks), each part in a fresh
single-threaded process that prints a JSON record, and adds the records up.
Rounds start while the next one is predicted to end within --seconds (at
least one). Host times vary far more between processes than within one on
a shared machine (memory placement), so fresh processes make the reported
medians average over that too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
Every round of a run simulates the same input, so every modeled number,
traced or not, must repeat exactly; a mismatch makes the run incorrect.

--self-test runs check_test, which feeds every output check a wrong value,
and summarize_test.py, which feeds summarize() rounds that disagree.
--all runs every workload untraced and traced and prints each metric by
name with its unit.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "check_test"],
    ]
    for cmd in steps:
        # stdout of the build would precede the result line; send it to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_part(out, workload, seed, trace, index, part):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--part", str(part), "--trace", str(trace),
           "--trace-dir", os.path.join(out, "traces"), "--round", str(index)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s part %d exited %d without a record" % (workload, part, p.returncode))
    rec = json.loads(lines[-1])
    if p.returncode != 0 and not rec["errors"]:
        rec["errors"].append("part %d exited %d" % (part, p.returncode))
    return rec


def merge(parts):
    """Adds the part records of one round up (maximum for peaks)."""
    r = parts[0]
    for p in parts[1:]:
        for key in ("setup_s", "wall_s", "sim_s", "attempted", "failed"):
            r[key] += p[key]
        for key in ("job_ms", "errors", "notes"):
            r[key] += p[key]
        r["peak_rss_mb"] = max(r["peak_rss_mb"], p["peak_rss_mb"])
        for group in ("modeled", "host", "traced"):
            for name, value in p[group].items():
                old = r[group].get(name)
                if old is None:
                    r[group][name] = value
                elif "max_" in name:
                    r[group][name] = max(old, value)
                else:
                    r[group][name] = old + value
    return r


def run_round(out, workload, seed, trace, index):
    """Every part of the workload once, each in a process of its own."""
    parts = [run_part(out, workload, seed, trace, index, 0)]
    for part in range(1, parts[0]["parts"]):
        parts.append(run_part(out, workload, seed, trace, index, part))
    return merge(parts)


def measure(out, workload, seed, seconds, trace):
    plain, traced = [], []
    start = time.monotonic()
    elapsed = 0.0
    while True:
        plain.append(run_round(out, workload, seed, 0, len(plain)))
        if trace:
            traced.append(run_round(out, workload, seed, 1, len(traced)))
        last = time.monotonic() - start - elapsed
        elapsed += last
        if elapsed + last > seconds:
            return plain, traced


def summarize(bench, plain, traced, trace):
    first = plain[0]
    errors = []
    for rec in plain + traced:
        errors += rec["errors"]
        for key in ("sim_s", "job_ms", "modeled", "attempted", "failed"):
            if rec[key] != first[key]:
                errors.append("%s differs between rounds of one input" % key)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    walls = [r["wall_s"] for r in plain]
    if not trace:
        metrics = {
            "sim_s": first["sim_s"],
            "agg_p50_ms": statistics.median(first["job_ms"]),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        # Modeled and trace-only layers from the traced round; host timers
        # as medians over the untraced rounds, which tracing does not slow.
        metrics = dict(traced[0]["modeled"])
        metrics.update(traced[0]["traced"])
        for name in first["host"]:
            metrics[name] = statistics.median(r["host"].get(name, 0.0) for r in plain)
        metrics["obs.trace_overhead_wall_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls))
        metrics["sim.events_per_wall_s"] = first["modeled"]["sim.events"] / statistics.median(walls)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # Layers a workload leaves idle report 0.
        for name in units:
            metrics.setdefault(name, 0.0)
    for name in sorted(set(metrics) - set(units)):
        errors.append("metric %s is not listed in BENCHMARK.json" % name)
    for e in errors:
        sys.stderr.write("run.py: check failed: %s\n" % e)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(out, bench, opts):
    """Every workload, untraced then traced; one line per metric."""
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            plain, traced = measure(out, w["name"], int(opts.get("--seed", "1")),
                                    float(opts.get("--seconds", "1")), trace)
            r = summarize(bench, plain, traced, trace)
            status |= 0 if r["correct"] else 1
            print("%s trace=%d: correct=%s attempted=%d failed=%d" % (
                w["name"], trace, r["correct"], r["attempted"], r["failed"]))
            for name, m in r["metrics"].items():
                print("  %-32s %-22.10g %s" % (name, m["value"], m["unit"]))
    return status


def main(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    out = build_dir()
    try:
        build(out)
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        if argv == ["--self-test"]:
            checks = subprocess.run([os.path.join(out, "check_test")]).returncode
            rounds = subprocess.run([sys.executable,
                                     os.path.join(HERE, "summarize_test.py")]).returncode
            return 1 if checks or rounds else 0
        bench = load_benchmark()
        if argv[:1] == ["--all"]:
            return run_all(out, bench, dict(zip(argv[1::2], argv[2::2])))
        trace = int(opts["--trace"])
        plain, traced = measure(out, opts["--workload"], int(opts["--seed"]),
                                float(opts["--seconds"]), trace)
        for note in plain[0]["notes"]:
            sys.stderr.write("run.py: %s: %s\n" % (opts["--workload"], note))
        result = summarize(bench, plain, traced, trace)
    except (OSError, RuntimeError, KeyError, ValueError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
