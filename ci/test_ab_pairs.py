#!/usr/bin/env python3
"""Unit tests for the paired A/B runner (``ci/ab_pairs.py``).

Run with ``python3 ci/test_ab_pairs.py`` (CI does, next to the bench
gate's own tests). The end-to-end cases drive the runner against small
stand-in fleetbench executables that print a canned result line.
"""

import json
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab_pairs import main, parse_result, quartiles, run_failure, summarize  # noqa: E402

END_TO_END = [
    {"name": "user_slots_per_s", "better": "higher", "bound": 0.24},
    {"name": "op_ms_p50", "better": "lower", "bound": 0.24},
]


def result(throughput, p50, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "user_slots_per_s": {"value": throughput, "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
        },
    }


class QuartileTests(unittest.TestCase):
    def test_odd_count_median_is_the_middle_value(self):
        self.assertEqual(quartiles([5.0, 1.0, 3.0]), (2.0, 3.0, 4.0))

    def test_even_count_interpolates(self):
        q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 3.25)

    def test_single_value_is_every_quartile(self):
        self.assertEqual(quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            quartiles([])


class ParseTests(unittest.TestCase):
    def test_reads_the_last_non_empty_line(self):
        stdout = "summary line\n" + json.dumps(result(1.0, 2.0)) + "\n\n"
        self.assertEqual(parse_result(stdout)["metrics"]["op_ms_p50"]["value"], 2.0)

    def test_missing_keys_and_empty_output_are_errors(self):
        with self.assertRaises(ValueError):
            parse_result("")
        with self.assertRaises(ValueError):
            parse_result(json.dumps({"correct": True}))

    def test_incorrect_or_failing_runs_do_not_count(self):
        self.assertEqual(run_failure(result(1.0, 1.0)), "")
        self.assertIn("check", run_failure(result(1.0, 1.0, correct=False)))
        self.assertIn("failed", run_failure(result(1.0, 1.0, failed=2)))


class SummarizeTests(unittest.TestCase):
    def test_equal_sides_pass_with_no_wins_and_no_gain(self):
        pairs = [(result(100.0, 10.0), result(100.0, 10.0))] * 10
        rows = summarize(pairs, END_TO_END)
        for row in rows:
            self.assertEqual(row["wins"], 0)
            self.assertTrue(row["within_bound"])
            self.assertFalse(row["gain"])
            self.assertEqual(row["relative"], 0.0)

    def test_direction_decides_wins(self):
        # Higher throughput and lower latency are both wins.
        pairs = [(result(100.0, 10.0), result(110.0, 9.0))] * 10
        rows = {r["name"]: r for r in summarize(pairs, END_TO_END)}
        self.assertEqual(rows["user_slots_per_s"]["wins"], 10)
        self.assertEqual(rows["op_ms_p50"]["wins"], 10)
        self.assertAlmostEqual(rows["user_slots_per_s"]["relative"], 0.10)
        self.assertAlmostEqual(rows["op_ms_p50"]["relative"], 0.10)

    def test_regression_beyond_the_bound_fails(self):
        pairs = [(result(100.0, 10.0), result(75.0, 12.5))] * 10  # -25%, +25%
        for row in summarize(pairs, END_TO_END):
            self.assertFalse(row["within_bound"], row["name"])

    def test_regression_inside_the_bound_passes(self):
        pairs = [(result(100.0, 10.0), result(80.0, 12.0))] * 10  # -20%, +20%
        for row in summarize(pairs, END_TO_END):
            self.assertTrue(row["within_bound"], row["name"])

    def test_gain_needs_nine_wins_and_a_margin_beyond_the_parent_iqr(self):
        parent = [100.0 + i for i in range(10)]  # IQR 4.5
        clear = [(result(p, 10.0), result(p + 10.0, 10.0)) for p in parent]
        row = summarize(clear, END_TO_END[:1])[0]
        self.assertEqual(row["wins"], 10)
        self.assertTrue(row["gain"])
        # Ten wins, but each by less than the parent's spread: no gain.
        narrow = [(result(p, 10.0), result(p + 1.0, 10.0)) for p in parent]
        self.assertFalse(summarize(narrow, END_TO_END[:1])[0]["gain"])
        # A wide margin on only eight pairs: no gain.
        mixed = [
            (result(p, 10.0), result(p + (10.0 if i < 8 else -1.0), 10.0))
            for i, p in enumerate(parent)
        ]
        row = summarize(mixed, END_TO_END[:1])[0]
        self.assertEqual(row["wins"], 8)
        self.assertFalse(row["gain"])


class RunnerTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.benchmark = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.benchmark, "w", encoding="utf-8") as handle:
            json.dump({"end_to_end": END_TO_END}, handle)
        self.log = os.path.join(self.tmp.name, "runs.log")

    def tearDown(self):
        self.tmp.cleanup()

    def fake_bench(self, name, throughput, correct=True):
        """A stand-in fleetbench that logs its name and seed, then prints
        a summary line and a result line."""
        path = os.path.join(self.tmp.name, name)
        line = json.dumps(result(throughput, 10.0, correct=correct))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f"#!{sys.executable}\n"
                "import sys\n"
                "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
                f"with open({self.log!r}, 'a') as log:\n"
                f"    log.write({name!r} + ' ' + seed + '\\n')\n"
                "print('summary')\n"
                f"print({line!r})\n"
            )
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def run_main(self, parent, change, seeds="1,2,3,4"):
        return main(
            [
                "--parent", parent,
                "--change", change,
                "--workload", "batch_chaffed",
                "--seeds", seeds,
                "--seconds", "1",
                "--benchmark", self.benchmark,
            ]
        )

    def test_pairs_alternate_their_order(self):
        parent = self.fake_bench("parent", 100.0)
        change = self.fake_bench("change", 101.0)
        self.assertEqual(self.run_main(parent, change), 0)
        with open(self.log, encoding="utf-8") as handle:
            runs = handle.read().split()
        self.assertEqual(
            runs,
            ["parent", "1", "change", "1", "change", "2", "parent", "2",
             "parent", "3", "change", "3", "change", "4", "parent", "4"],
        )

    def test_a_regressed_change_exits_one(self):
        parent = self.fake_bench("parent", 100.0)
        change = self.fake_bench("change", 50.0)
        self.assertEqual(self.run_main(parent, change), 1)

    def test_an_incorrect_run_exits_one(self):
        parent = self.fake_bench("parent", 100.0)
        change = self.fake_bench("change", 100.0, correct=False)
        self.assertEqual(self.run_main(parent, change), 1)

    def test_usage_errors_exit_two(self):
        parent = self.fake_bench("parent", 100.0)
        self.assertEqual(self.run_main(parent, parent, seeds="x"), 2)
        self.assertEqual(self.run_main(parent, parent, seeds=""), 2)
        self.assertEqual(main(["--parent", parent]), 2)

    def test_a_missing_binary_exits_one(self):
        parent = self.fake_bench("parent", 100.0)
        missing = os.path.join(self.tmp.name, "missing")
        self.assertEqual(self.run_main(parent, missing), 1)


if __name__ == "__main__":
    unittest.main()
