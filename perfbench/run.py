#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
harness (Release) from ../src into .bench_build/perfbench; later calls
rebuild incrementally. The harness runs the workload in its own process;
this script checks its metric names and units against BENCHMARK.json and
prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 the per_layer ones; a layer the workload does not exercise
reads 0. --tiny runs the smallest inputs (the benchmark's own tests).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
TIME_LIMIT_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)


def source_digest():
    """Digest of the sources the harness is built from (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def parse_harness(stdout):
    metrics, info, prov = {}, [], {}
    attempted = failed = None
    for line in stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            metrics[name] = (float(value), unit)
        elif kind == "count":
            attempted, failed = (int(x) for x in rest.split(" "))
        elif kind == "provenance":
            key, _, value = rest.partition(" ")
            prov[key] = value
        elif kind == "info":
            info.append(rest)
    return metrics, attempted, failed, info, prov


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    start = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--pinned", os.path.join(HERE, "pinned.json"), "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    budget = max(10.0, TIME_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {budget:.0f} s")
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"harness exited with code {proc.returncode}")
        return 1

    metrics, attempted, failed, info, prov = parse_harness(proc.stdout)
    if attempted is None or attempted < 1:
        log("harness reported no operations")
        return 1
    out, idle = {}, []
    for m in wanted:
        if m["name"] in metrics:
            value, unit = metrics.pop(m["name"])
            if unit != m["unit"]:
                log(f"metric {m['name']}: unit {unit!r}, BENCHMARK.json says {m['unit']!r}")
                return 1
        elif args.trace == "1":
            value = 0.0
            idle.append(m["name"])
        else:
            log(f"harness did not report end-to-end metric {m['name']}")
            return 1
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    if metrics:
        log(f"metrics missing from BENCHMARK.json: {sorted(metrics)}")
        return 1

    prov["source_digest"] = source_digest()
    prov["workload"] = args.workload
    prov["seed"] = str(args.seed)
    print(json.dumps({"provenance": prov}))
    for line in info:
        print("info: " + line)
    if idle:
        print("info: layers this workload does not exercise (reported as 0): " + ", ".join(idle))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
