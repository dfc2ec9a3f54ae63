"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest e2ebench/test_run.py

The smoke tests run every workload at tiny size in both modes and check
the result line against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class HelperTest(unittest.TestCase):

    def test_tail_percentile_keeps_ten_samples_above(self):
        self.assertIsNone(run.tail_percentile(10))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(1000), 99)
        for n in range(11, 300):
            p = run.tail_percentile(n)
            if p is None:
                continue
            rank = -(-p * n // 100)
            self.assertGreaterEqual(n - rank, 10)
            self.assertLess(n - (-(-(p + 1) * n // 100)), 10)

    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(run.nearest_rank(values, 50), 5)
        self.assertEqual(run.nearest_rank(values, 90), 9)
        self.assertEqual(run.nearest_rank([1, 2], 50), 1)

    def test_scrub_drops_timing_lines_only(self):
        body = (b'{\n  "nodes": 3,\n  "load_ms": 1.25,\n'
                b'  "align_seconds": 0.1,\n  "ratio": 1.0\n}\n')
        self.assertEqual(run.scrub(body),
                         b'{\n  "nodes": 3,\n  "ratio": 1.0\n}\n')
        self.assertEqual(run.scrub(b"no timings\n"), b"no timings\n")
        self.assertEqual(run.scrub(b'  "x_ms": 1'), b"")
        self.assertEqual(run.digest(body.decode()), run.digest(
            b'{\n  "nodes": 3,\n  "ratio": 1.0\n}\n'))


class ReferenceTest(unittest.TestCase):

    def test_every_input_set_is_pinned(self):
        for name, spec in run.WORKLOADS.items():
            keys = set(run.plan_keys(spec))
            for size in run.SIZES[spec["data"]]:
                for k in range(run.INPUT_SETS):
                    with self.subTest(workload=name, size=size, set=k):
                        ref = run.reference(name, size, k)
                        self.assertEqual(set(ref), keys)

    def test_missing_reference_fails(self):
        with self.assertRaises(run.BenchError):
            run.reference("cli-cold", 12345, 0)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "0.5", "--trace",
             str(trace), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
