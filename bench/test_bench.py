"""Tests of the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py     (or python3 -m unittest discover bench)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import lrcone  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import queries as qmod  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, pct in ((20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                       (1000, 99.0), (10000, 99.9), (100000, 99.99)):
            p, _ = run.tail([float(i) for i in range(n)])
            self.assertEqual(p, pct, n)
            self.assertGreaterEqual(round(n * (100 - p) / 100, 6), 10)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(run.tail([float(i) for i in range(19)])[0], 100.0)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([0.0, 10.0], 50), 5.0)
        self.assertEqual(run.percentile([float(i) for i in range(101)], 90), 90.0)


class SpanArithmetic(unittest.TestCase):
    def test_nested_and_recursive_spans(self):
        # A[0,10] holds B[1,4] and a recursive A[5,9], which holds C[6,8]
        names = ["A", "B", "C"]
        name = np.array([0, 1, 0, 2])
        parent = np.array([-1, 0, 0, 2])
        start = np.array([0.0, 1.0, 5.0, 6.0])
        end = np.array([10.0, 4.0, 9.0, 8.0])
        got = spans.summarize(names, name, parent, start, end)
        self.assertEqual(got["A"], {"calls": 2, "busy_s": 10.0, "self_s": 5.0})
        self.assertEqual(got["B"], {"calls": 1, "busy_s": 3.0, "self_s": 3.0})
        self.assertEqual(got["C"], {"calls": 1, "busy_s": 2.0, "self_s": 2.0})

    def test_union_of_disjoint_and_overlapping_intervals(self):
        start = np.array([0.0, 1.0, 5.0, 6.0])
        end = np.array([3.0, 2.0, 7.0, 8.0])
        self.assertEqual(spans.union_length(start, end), 6.0)
        self.assertEqual(spans.union_length(np.array([]), np.array([])), 0.0)

    def test_tracer_on_a_recursive_function(self):
        tracer = spans.Tracer()
        seen = []
        tracer.results["depth"] = lambda args, result, nested: seen.append(nested)
        global _countdown
        _countdown = tracer.wrap(_countdown, "depth")
        try:
            self.assertEqual(_countdown(3), 0)
        finally:
            _countdown = _countdown.__wrapped__
        got = tracer.summary()["depth"]
        self.assertEqual(got["calls"], 4)
        # every level's self time plus its child's adds up to the outer span
        name, parent, start, end = tracer.arrays()
        self.assertEqual(list(parent), [-1, 0, 1, 2])
        self.assertAlmostEqual(got["self_s"], end[0] - start[0], places=12)
        self.assertAlmostEqual(got["busy_s"], end[0] - start[0], places=12)
        self.assertEqual(seen, [0, 1, 2, 3])   # innermost call returns first


def _countdown(n):
    return n if n == 0 else _countdown(n - 1)


class HostSpeed(unittest.TestCase):
    def test_factor_averages_the_samples_in_the_interval(self):
        probe = hostspeed.Probe.__new__(hostspeed.Probe)
        ref = hostspeed.REFERENCE_S
        # (time, first pass, last pass); the first pass runs at half speed
        probe.samples = [(0.1 * i, 2 * ref * (2 if i >= 5 else 1), ref * (2 if i >= 5 else 1))
                         for i in range(10)]
        self.assertAlmostEqual(probe.factor(0.0, 0.45), 1.0)
        self.assertAlmostEqual(probe.factor(0.5, 0.95), 0.5)
        self.assertAlmostEqual(probe.factor(0.5, 0.55, fallback=0.9), 0.9)
        self.assertAlmostEqual(probe.factor(5.0, 6.0), 0.75)   # all samples
        self.assertAlmostEqual(probe.factor(0.0, 0.45, cold=True), 0.5)
        self.assertAlmostEqual(probe.factor(0.5, 0.95, cold=True), 0.25)

    def test_probe_samples_until_stopped(self):
        probe = hostspeed.Probe()
        time.sleep(0.3)
        samples = probe.stop()
        self.assertEqual(probe.proc.returncode, 0)
        self.assertGreater(len(samples), 1)
        self.assertTrue(all(cold > 0 and warm > 0 for _, cold, warm in samples))
        self.assertIs(probe.stop(), samples)


class Queries(unittest.TestCase):
    rays = qmod.load_rays(gate.EXPECTED_PATH)

    def test_same_seed_same_queries(self):
        a = qmod.make_queries(7, 504, self.rays)
        self.assertEqual(a, qmod.make_queries(7, 504, self.rays))
        self.assertNotEqual(a, qmod.make_queries(8, 504, self.rays))

    def test_equal_shares_and_repeats(self):
        qs = qmod.make_queries(3, 1001, self.rays)
        for op in qmod.OPS:
            self.assertEqual(sum(q[0] == op for q in qs), 143)
        self.assertLess(qmod.distinct_frac(qs), 0.9)
        with self.assertRaises(ValueError):
            qmod.make_queries(3, 1000, self.rays)

    def test_digest_depends_on_values_not_types(self):
        q = [("lr_coef", (2, 1), (1,), (3, 1)), ("certify", ((1, 0),), "LR")]
        a = [2, (((1, 0),), True, 1)]
        same = [np.int64(2), [[[np.int64(1), 0]], np.bool_(True), np.int64(1)]]
        self.assertEqual(qmod.digest(q, a), qmod.digest(q, same))
        self.assertNotEqual(qmod.digest(q, a), qmod.digest(q, [3, a[1]]))
        self.assertNotEqual(qmod.digest(q, a), qmod.digest(q, [2, (a[1][0], 1, 1)]))

    def test_inputs_come_from_the_seed(self):
        self.assertEqual(gate.inputs("queries", "default", 5),
                         gate.inputs("queries", "default", 5))
        self.assertEqual(run.cli_commands(5), run.cli_commands(5))


class Gate(unittest.TestCase):
    """The gate must reject wrong answers; src/ is never modified."""

    rays = {key: set(points) for key, points in
            qmod.load_rays(gate.EXPECTED_PATH).items()}

    def query(self, op, accept=lambda q: True):
        return next(q for q in qmod.make_queries(1, 301, qmod.load_rays(gate.EXPECTED_PATH))
                    if q[0] == op and accept(q))

    def test_right_answers_pass(self):
        for op in qmod.OPS:
            q = self.query(op)
            self.assertEqual(qmod.problems(lrcone, q, qmod.answer(lrcone, q), self.rays), [])

    def test_wrong_answers_fail(self):
        q = self.query("lr_coef", lambda q: lrcone.lr_coef(*q[1:]))
        self.assertTrue(qmod.problems(lrcone, q, qmod.answer(lrcone, q) + 1, self.rays))
        q = self.query("member")
        self.assertTrue(qmod.problems(lrcone, q, not qmod.answer(lrcone, q), self.rays))
        q = self.query("is_indecomposable")
        self.assertTrue(qmod.problems(lrcone, q, not qmod.answer(lrcone, q), self.rays))
        q = self.query("shadow", lambda q: not lrcone.member(q[1], "LR"))
        self.assertTrue(qmod.problems(lrcone, q, q[1], self.rays))  # not shrunk
        q = self.query("certify")
        point, primitive, rank = qmod.answer(lrcone, q)
        self.assertTrue(qmod.problems(lrcone, q, (point, primitive, rank - 1), self.rays))

    def test_wrong_ray_set_fails(self):
        item = (3, 4, "EqLR")
        good = [qmod.parse(t) for t in self.expected_points(item)]
        self.assertEqual(gate.check_outputs(lrcone, "rays", [item], [good],
                                            full=False), [])
        bad = gate.check_outputs(lrcone, "rays", [item], [good[1:]], full=False)
        self.assertEqual(len(bad), 1)
        raised = gate.check_outputs(lrcone, "rays", [item],
                                    [gate.Raised("ValueError: boom")], full=False)
        self.assertEqual(raised, [[0, "Raised('ValueError: boom')"]])

    def test_wrong_hilbert_basis_fails(self):
        item = (4, 3, "EqLR", 4)
        good = [qmod.parse(t) for t in self.expected_points((4, 3, "EqLR"))]
        self.assertEqual(gate.check_outputs(lrcone, "hilbert", [item], [good],
                                            full=False), [])
        doubled = good[:-1] + [qmod.add(good[0], good[0])]
        self.assertEqual(len(gate.check_outputs(lrcone, "hilbert", [item],
                                                [doubled], full=False)), 1)

    def test_cli_checks(self):
        expected = gate.load_expected()
        self.assertIsNone(run.check_cli("member", b"true\n", expected))
        self.assertIsNotNone(run.check_cli("member", b"false\n", expected))
        table = b"r\tLR\tEqLR\n1\t2\t3\n2\t5\t10\n3\t10\t27\n4\t20\t71\n"
        self.assertIsNotNone(run.check_cli("tables", table, expected))

    @staticmethod
    def expected_points(key):
        return next(e["points"] for e in gate.load_expected()["rays"]
                    if (e["r"], e["s"], e["kind"]) == key)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_refuses_a_checkout_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rays",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
