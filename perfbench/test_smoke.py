#!/usr/bin/env python3
"""Tests of the benchmark itself, at a scale where each run takes seconds.

Run from the repository root:

    python3 perfbench/test_smoke.py

Each workload runs untraced and traced at --scale smoke. The tests check
that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that the traced run writes a loadable trace, that
a corrupted result fails the fingerprint check, that trace selection is
stratified by category and follows the seed, and that the benchmark
fails cleanly without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# sampled_long is not timed by BENCHMARK.json but still runs on request.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["sampled_long"]
OUT = ROOT / ".bench_build"


def run_bench(workload, trace, cwd=ROOT, seed=1):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return res


def result_of(res):
    assert res.returncode == 0, res.stderr[-3000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(run_bench(workload, trace))
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[section]}
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        self.assert_trace_loads(workload)

    def assert_trace_loads(self, workload):
        """The traced run wrote Chrome trace-event JSON: complete spans
        with a layer category, on named processes."""
        path = OUT / "perfbench-out" / ("trace-%s-seed1.json" % workload)
        events = json.loads(path.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        self.assertTrue(spans)
        for e in spans:
            self.assertGreaterEqual(e["ts"], 0)
            self.assertGreaterEqual(e["dur"], 0)
            self.assertTrue(e["cat"])
        named = {e["pid"] for e in events if e["name"] == "process_name"}
        self.assertEqual({e["pid"] for e in spans} - named, set())

    def test_corrupted_result_fails_the_fingerprint_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result_of(run_bench(workload, 0))
                refs = sorted(
                    (OUT / "perfbench-ref").glob(workload + "*-smoke-*.json"),
                    key=lambda p: p.stat().st_mtime)
                ref_path = refs[-1]
                original = ref_path.read_text()
                ref = json.loads(original)
                if "digests" in ref:
                    ref["digests"]["fig11_speedup_nosmt"] = "0" * 16
                else:
                    ref["cells"][0] = "0" * 16
                try:
                    ref_path.write_text(json.dumps(ref))
                    result = result_of(run_bench(workload, 0))
                finally:
                    ref_path.write_text(original)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_trace_selection_is_stratified_and_seeded(self):
        result_of(run_bench("full_1t", 0))
        runner = OUT / "perfbench" / "perfbench_passes"
        picks = []
        for seed in (1, 2):
            out = subprocess.run(
                [str(runner), "full", "--seed", str(seed), "--traces", "10",
                 "--ops", "500", "--presets", "baseline"],
                capture_output=True, text=True, check=True).stdout
            traces = json.loads(out.strip().splitlines()[-1])["traces"]
            picks.append(traces)
            cats = Counter(t.split("/")[0] for t in traces)
            self.assertEqual(cats, {"Client": 2, "Enterprise": 2,
                                    "FSPEC17": 3, "ISPEC17": 1,
                                    "Server": 2})
        self.assertNotEqual(picks[0], picks[1])

    def test_fails_without_the_simulator_sources(self):
        bare = OUT / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            res = run_bench("full_1t", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
