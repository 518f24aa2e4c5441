#!/usr/bin/env python3
"""Self-tests of the benchmark, at the tiny input size.

    python3 perfbench/test_perfbench.py        (from the repository root)

- every workload, in both modes, prints every metric BENCHMARK.json names,
  with its unit, and passes its output checks;
- counts that are deterministic by construction repeat exactly between two
  traced runs at one seed;
- every result carries its provenance;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Count -> the workload whose fixed traced pass makes it deterministic.
DETERMINISTIC = {
    "tcad.solver_passes": "paper-pipeline",
    "spice.batch.newton_iterations": "circuit-study",
    "spice.newton_iterations": "circuit-study",
    "sat.conflicts": "serve-mix",
    "serve.cache.misses": "serve-mix",
}


def run(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    prov, res = result_of(run(workload, trace))
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, metric in res["metrics"].items():
                        self.assertEqual(metric["unit"], want[name], name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0.0, name)
                    self.assertEqual(res["metrics"].get("ok_frac", {"value": 1.0})["value"], 1.0)
                    for key in ("nproc", "compiler", "build_type", "git_sha", "source_digest",
                                "host_probe_ms_before", "host_probe_ms_after"):
                        self.assertIn(key, prov)

    def test_counts_repeat_at_a_fixed_seed(self):
        for workload in sorted(set(DETERMINISTIC.values())):
            first = result_of(run(workload, 1, seed=5))[1]["metrics"]
            second = result_of(run(workload, 1, seed=5))[1]["metrics"]
            for name, owner in DETERMINISTIC.items():
                if owner != workload:
                    continue
                with self.subTest(metric=name):
                    self.assertGreater(first[name]["value"], 0.0)
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
