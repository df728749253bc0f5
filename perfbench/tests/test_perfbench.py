"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds `flexminer` and the probe (as a run does); the toy
runs then take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench_run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


class ToyRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = bench_run(w["name"], trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float), m["name"])
                    if trace:
                        trace_file = os.path.join(
                            ROOT, "perfbench", "out", "traces",
                            f"{w['name']}-seed3-trace1-toy.json")
                        with open(trace_file) as f:
                            events = json.load(f)["traceEvents"]
                        names = {e["name"] for e in events}
                        for span in ("ingest", "compile", "prepare", "mine", "submit", "wait"):
                            self.assertIn(span, names)

    def test_a_wrong_reference_fails_the_run(self):
        code, result, _ = bench_run("cli-sparse", 0, "--wrong-reference")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_exits_nonzero_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-sparse", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            done = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180,
                                  env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


def result_set(workload, metric, values, seconds=30):
    return {"benchmark": BENCH,
            "runs": [{"workload": workload, "seed": i, "correct": True, "failed": 0,
                      "metrics": {metric: {"value": v}}, "provenance": {"seconds": seconds}}
                     for i, v in enumerate(values)]}


def run_compare(tmp, parent, change):
    paths = []
    for name, data in (("parent", parent), ("change", change)):
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as f:
            json.dump(data, f)
        paths.append(path)
    cmd = [sys.executable, "perfbench/run.py", "compare", *paths]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)


class Verdicts(unittest.TestCase):
    def test_verdicts_follow_the_bounds(self):
        steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        cases = [
            (steady, [v * 1.5 for v in steady], "regressed"),
            (steady, [v * 1.02 for v in steady], "within bound"),
            (steady, [v * 0.5 for v in steady], "better"),
            ([50, 150, 70, 130, 100, 60, 140, 90, 110, 100], steady, "unresolved"),
        ]
        for parent, change, want in cases:
            with self.subTest(want=want):
                self.assertEqual(compare.verdict(parent, change, True, 0.1), want)

    def test_compare_prints_each_workload_and_fails_on_regression(self):
        sets = []
        for values in ([100, 101, 99, 100], [150, 151, 149, 150]):
            runs = [result_set(w, "e2e_ms_p50", values)["runs"] for w in ("w-a", "w-b")]
            sets.append({"benchmark": BENCH, "runs": runs[0] + runs[1]})
        with tempfile.TemporaryDirectory() as tmp:
            done = run_compare(tmp, *sets)
            self.assertEqual(done.returncode, 1)
            rows = [l for l in done.stdout.splitlines() if "e2e_ms_p50" in l]
            self.assertEqual([r.split()[0] for r in rows], ["w-a", "w-b"])
            self.assertTrue(all(r.endswith("regressed") for r in rows))

    def test_one_incorrect_change_run_fails_the_comparison(self):
        steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        parent = result_set("w-a", "e2e_ms_p50", steady)
        change = result_set("w-a", "e2e_ms_p50", steady)
        change["runs"][3].update(correct=False, failed=1)
        with tempfile.TemporaryDirectory() as tmp:
            done = run_compare(tmp, parent, change)
        self.assertEqual(done.returncode, 1)
        self.assertIn("w-a          failed: incorrect runs (seeds [3])", done.stdout)
        # The bounds alone would have let it through.
        self.assertIn("within bound", done.stdout)

    def test_more_failed_requests_than_the_parent_fail_the_comparison(self):
        steady = [100, 101, 99, 100]
        parent = result_set("w-a", "e2e_ms_p50", steady)
        change = result_set("w-a", "e2e_ms_p50", steady)
        for r in change["runs"]:
            r["failed"] = 1
        with tempfile.TemporaryDirectory() as tmp:
            done = run_compare(tmp, parent, change)
        self.assertEqual(done.returncode, 1)
        self.assertIn("failed: 4 failed requests, parent 0", done.stdout)

    def test_sets_of_different_run_lengths_are_refused(self):
        steady = [100, 101, 99, 100]
        parent = result_set("w-a", "e2e_ms_p50", steady, seconds=30)
        change = result_set("w-a", "e2e_ms_p50", steady, seconds=10)
        with tempfile.TemporaryDirectory() as tmp:
            done = run_compare(tmp, parent, change)
        self.assertEqual(done.returncode, 2)
        self.assertIn("different run lengths", done.stderr)


if __name__ == "__main__":
    unittest.main()
