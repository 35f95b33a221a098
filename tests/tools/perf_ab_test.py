#!/usr/bin/env python3
"""tools/perf_ab.py on canned perfbench result lines: pair order, wins, the
median change and its IQR, the sign test and the exit status. Runs no
build and no benchmark.

    python3 tests/tools/perf_ab_test.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "tools"))
import perf_ab  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_us", "better": "lower", "bound": 0.25},
]


def result_line(ops_per_s, op_p50_us, correct="true"):
    """A last stdout line of perfbench/run.py, in the driver's format."""
    return ('{"correct": %s, "attempted": 900, "failed": 0, "metrics": '
            '{"ops_per_s": {"value": %.17g, "unit": "1/s"}, '
            '"op_p50_us": {"value": %.17g, "unit": "us"}}}'
            % (correct, ops_per_s, op_p50_us))


# (base, change) result lines for seeds 1..6.
CANNED = [
    (result_line(1750, 480), result_line(4800, 470)),
    (result_line(1790, 460), result_line(4900, 490)),
    (result_line(1730, 470), result_line(4775, 500)),
    (result_line(1760, 475), result_line(4950, 475)),
    (result_line(1740, 450), result_line(4800, 480)),
    (result_line(1770, 490), result_line(4880, 485)),
]


# One line as perfbench/run.py printed it (recover, seed 7, 1 s).
VERBATIM = (
    '{"correct": true, "attempted": 110, "failed": 0, "metrics": '
    '{"setup_s": {"value": 0.15491932, "unit": "s"}, '
    '"ops_per_s": {"value": 273.52946796989204, "unit": "1/s"}, '
    '"op_p50_us": {"value": 3474.91, "unit": "us"}, '
    '"op_tail_us": {"value": 3863.637, "unit": "us"}, '
    '"peak_rss_mb": {"value": 21.66015625, "unit": "MiB"}}}')


class CannedRunner:
    """Answers run(side, workload, seed) from CANNED and logs the calls."""

    def __init__(self, canned=CANNED):
        self.canned = canned
        self.calls = []

    def __call__(self, side, workload, seed):
        self.calls.append((side, workload, seed))
        line = self.canned[seed - 1][0 if side == "base" else 1]
        return json.loads(line) if line is not None else None


def compare(runner):
    out = []
    status = perf_ab.compare(["churn_durable"], len(runner.canned), 1,
                             METRICS, runner, out=out.append)
    return status, "\n".join(out)


class Verbatim(unittest.TestCase):
    def test_reads_every_end_to_end_metric_of_the_benchmark(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "..")
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        result = json.loads(VERBATIM)
        self.assertTrue(perf_ab.run_ok(result))
        self.assertEqual(perf_ab.value(result, "op_p50_us"), 3474.91)
        rows = perf_ab.summarize([(result, result)], metrics)
        self.assertEqual([r["metric"] for r in rows],
                         [m["name"] for m in metrics])
        for r in rows:
            self.assertEqual((r["wins"], r["losses"], r["over_bound"]),
                             (0, 0, 0), r["metric"])


class SignTest(unittest.TestCase):
    def test_exact_two_sided_p(self):
        self.assertEqual(perf_ab.sign_test_p(6, 0), 2 / 64)
        self.assertEqual(perf_ab.sign_test_p(0, 6), 2 / 64)
        self.assertEqual(perf_ab.sign_test_p(9, 1), 2 * 11 / 1024)
        self.assertEqual(perf_ab.sign_test_p(3, 3), 1.0)
        self.assertEqual(perf_ab.sign_test_p(0, 0), 1.0)


class Quartiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(perf_ab.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(perf_ab.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))


class Compare(unittest.TestCase):
    def test_sides_alternate_and_seeds_change(self):
        runner = CannedRunner()
        compare(runner)
        self.assertEqual(runner.calls[:4], [
            ("base", "churn_durable", 1), ("change", "churn_durable", 1),
            ("change", "churn_durable", 2), ("base", "churn_durable", 2)])
        self.assertEqual(len(runner.calls), 12)

    def test_summary_counts_wins_and_median_change(self):
        pairs = [(json.loads(b), json.loads(c)) for b, c in CANNED]
        rows = {r["metric"]: r for r in perf_ab.summarize(pairs, METRICS)}
        ops = rows["ops_per_s"]
        self.assertEqual((ops["pairs"], ops["wins"], ops["losses"]),
                         (6, 6, 0))
        self.assertEqual(ops["sign_p"], 2 / 64)
        self.assertAlmostEqual(ops["base_median"], 1755.0)
        self.assertAlmostEqual(ops["change_median"], 4840.0)
        deltas = sorted(c / b - 1 for b, c in
                        [(1750, 4800), (1790, 4900), (1730, 4775),
                         (1760, 4950), (1740, 4800), (1770, 4880)])
        self.assertAlmostEqual(ops["median_delta"],
                               (deltas[2] + deltas[3]) / 2)
        q1, _, q3 = perf_ab.quartiles(deltas)
        self.assertAlmostEqual(ops["delta_iqr"], q3 - q1)
        # Lower is better: 2 wins, 3 losses, 1 tie.
        p50 = rows["op_p50_us"]
        self.assertEqual((p50["wins"], p50["losses"]), (2, 3))
        self.assertEqual(p50["sign_p"], 1.0)

    def test_a_gain_and_a_split_exit_zero(self):
        status, text = compare(CannedRunner())
        self.assertEqual(status, 0, text)
        self.assertIn("churn_durable: 6 pairs", text)
        self.assertIn("pair 2/6 seed 2 (change first)", text)
        self.assertNotIn("REGRESSED", text)

    def test_losing_most_pairs_inside_the_bound_exits_zero(self):
        canned = list(CANNED)
        # Pair 4 was a tie on op_p50_us; make it a loss: 4 of 6 lost, each
        # by less than the 25% bound.
        canned[3] = (canned[3][0], result_line(4950, 500))
        status, text = compare(CannedRunner(canned))
        self.assertEqual(status, 0, text)
        self.assertNotIn("REGRESSED", text)

    def test_a_metric_over_its_bound_in_most_pairs_exits_one(self):
        # op_p50_us at least 35% worse in 4 of 6 pairs.
        canned = [(b, result_line(4800, 650 if i < 4 else 400))
                  for i, (b, _) in enumerate(CANNED)]
        rows = {r["metric"]: r for r in perf_ab.summarize(
            [(json.loads(b), json.loads(c)) for b, c in canned], METRICS)}
        self.assertEqual(rows["op_p50_us"]["over_bound"], 4)
        self.assertEqual(rows["ops_per_s"]["over_bound"], 0)
        status, text = compare(CannedRunner(canned))
        self.assertEqual(status, 1)
        self.assertIn("REGRESSED: op_p50_us worse than its bound in most "
                      "pairs", text)

    def test_a_failed_run_exits_one_and_leaves_its_pair_out(self):
        canned = list(CANNED)
        canned[0] = (canned[0][0], result_line(4800, 470, correct="false"))
        canned[1] = (None, canned[1][1])  # no result line at all
        status, text = compare(CannedRunner(canned))
        self.assertEqual(status, 1)
        self.assertIn("churn_durable: 4 pairs, 2 failed", text)
        self.assertIn("change run FAILED", text)
        self.assertIn("base run FAILED: null", text)


if __name__ == "__main__":
    unittest.main()
