#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (the first run builds the benchmark):

    python3 e2ebench/test_e2ebench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
QUALITY = ("fmax_mhz_geomean", "hpwl_geomean", "luts_geomean",
           "bitstream_bytes_geomean")


def run_bench(workload, seed, trace, cwd=REPO_DIR, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr[-2000:]
    return json.loads(lines[-1])


def meta_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and len(lines) >= 2, proc.stderr[-2000:]
    return json.loads(lines[-2])["meta"]


class E2eBenchTest(unittest.TestCase):

    def test_result_line_prints_every_declared_metric(self):
        with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[section]}
            proc = run_bench("qual_campaign", 3, trace)
            result = result_of(proc)
            if trace == 0:
                self.assertEqual(meta_of(proc)["setup_runs"], 15)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(result["attempted"], 200)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, units)

    def test_same_seed_gives_identical_design_figures(self):
        for workload in ("kernel_flow", "dse_sweep", "qual_campaign"):
            result = result_of(run_bench(workload, 7, 0))
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            first = result["metrics"]
            second = result_of(run_bench(workload, 7, 0))["metrics"]
            for name in QUALITY:
                self.assertEqual(first[name]["value"], second[name]["value"],
                                 "%s %s" % (workload, name))
            other = result_of(run_bench(workload, 8, 0))["metrics"]
            self.assertNotEqual(first["hpwl_geomean"]["value"],
                                other["hpwl_geomean"]["value"], workload)

    def test_traced_decomposition_equals_library_flow(self):
        # Every traced kernel_flow op compares its stage-by-stage netlist
        # digest and bitstream with hls::run_flow / nx::run_backend and
        # records a "decomposition" failure when they differ. Every check of
        # an op runs, so another failure of the same op cannot hide it.
        proc = run_bench("kernel_flow", 5, 1)
        result = result_of(proc)
        self.assertGreaterEqual(result["attempted"], 200)
        self.assertNotIn("decomposition", meta_of(proc)["failed_by"])
        metrics = result["metrics"]
        self.assertGreater(metrics["nxmap.place_ms"]["value"], 0)
        self.assertGreater(metrics["boot.chain_ms"]["value"], 0)
        self.assertGreaterEqual(metrics["harness.coverage"]["value"], 0.9)

    def test_traced_layers_match_each_workload(self):
        dse = result_of(run_bench("dse_sweep", 5, 1))["metrics"]
        self.assertGreater(dse["svc.stage.map_ms"]["value"], 0)
        # The sweep's designed mix, per op of 4 points x 4 stages: the fresh
        # point misses schedule, map and bitstream, its place-seed variant
        # misses map and bitstream, both revisits hit every stage, and the
        # characterization always hits.
        self.assertEqual(dse["svc.cache.hit_share"]["value"], 11 / 16)
        self.assertEqual(dse["boot.chain_ms"]["value"], 0)
        qual = result_of(run_bench("qual_campaign", 5, 1))["metrics"]
        self.assertGreater(qual["fault.seu_batch_ms"]["value"], 0)
        self.assertEqual(qual["nxmap.place_ms"]["value"], 0)
        for metrics in (dse, qual):
            self.assertGreaterEqual(metrics["harness.coverage"]["value"], 0.9)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(BENCH_DIR, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), bare)
            proc = run_bench("kernel_flow", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
