#!/usr/bin/env python3
"""Self-test of compare.py on synthetic run outputs.

    python3 perfbench/test_compare.py
"""
import io
import json
import os
import tempfile
import unittest

import compare

METRICS = [
    {"name": "pkts_per_s", "unit": "pkt/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run_text(workload, values, correct=True):
    rows = "".join(f"{workload}  {k}  {v}  unit  n=3\n" for k, v in values.items())
    record = {"correct": correct, "attempted": 4, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}
    return "build: test\n" + rows + json.dumps(record) + "\n"


def write_runs(directory, workload, series, correct=True):
    os.makedirs(directory, exist_ok=True)
    for i, values in enumerate(series):
        with open(os.path.join(directory, f"{workload}-{i:02d}.txt"), "w") as f:
            f.write(run_text(workload, values, correct))


def rows_by_metric(text):
    out = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 3 and parts[1] in ("pkts_per_s", "setup_s"):
            out[(parts[0], parts[1])] = parts[-1]
    return out


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        parent = [100 + i for i in range(10)]
        change = [130 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "improved")

    def test_lower_is_better_direction(self):
        parent = [1.0 + 0.01 * i for i in range(10)]
        change = [0.5 + 0.01 * i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.25)[0],
                         "improved")
        self.assertEqual(compare.verdict(change, parent, "lower", 0.25)[0],
                         "worse")

    def test_regression_beyond_bound_is_worse(self):
        parent = [100 + i for i in range(10)]
        change = [80 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "worse")

    def test_small_shift_within_bound_is_unchanged(self):
        parent = [100 + i for i in range(10)]
        change = [98 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "unchanged")

    def test_gain_needs_nine_of_ten_pairs(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0] * 2
        self.assertNotEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                            "improved")

    def test_gain_needs_ten_pairs(self):
        parent = [100 + i for i in range(5)]
        change = [130 + i for i in range(5)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "unchanged")

    def test_gap_inside_parent_iqr_is_not_a_gain(self):
        parent = [60, 80, 90, 100, 100, 100, 110, 120, 140, 160]
        change = [p + 5 for p in parent]
        self.assertNotEqual(compare.verdict(parent, change, "higher", 0.5)[0],
                            "improved")

    def test_noisy_parent_is_unresolved(self):
        parent = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]
        change = [p - 5 for p in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "unresolved")

    def test_noisy_parent_but_change_always_better_is_not_unresolved(self):
        parent = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]
        change = [200 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)[0],
                         "improved")


class EndToEndTest(unittest.TestCase):
    def test_rows_and_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            p, c = os.path.join(tmp, "p"), os.path.join(tmp, "c")
            write_runs(p, "paper_40m",
                       [{"pkts_per_s": 100 + i, "setup_s": 1.0} for i in range(10)])
            write_runs(c, "paper_40m",
                       [{"pkts_per_s": 140 + i, "setup_s": 1.5} for i in range(10)])
            write_runs(p, "fabric_10k",
                       [{"pkts_per_s": 200 + i, "setup_s": 2.0} for i in range(10)])
            write_runs(c, "fabric_10k",
                       [{"pkts_per_s": 200 + i, "setup_s": 2.0} for i in range(10)])
            buf = io.StringIO()
            status = compare.compare(compare.load_runs(p), compare.load_runs(c),
                                     METRICS, out=buf)
            rows = rows_by_metric(buf.getvalue())
            self.assertEqual(rows[("paper_40m", "pkts_per_s")], "improved")
            self.assertEqual(rows[("paper_40m", "setup_s")], "worse")
            self.assertEqual(rows[("fabric_10k", "pkts_per_s")], "unchanged")
            self.assertEqual(rows[("fabric_10k", "setup_s")], "unchanged")
            self.assertEqual(status, 1)

    def test_incorrect_run_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            p, c = os.path.join(tmp, "p"), os.path.join(tmp, "c")
            same = [{"pkts_per_s": 100.0, "setup_s": 1.0}] * 3
            write_runs(p, "highrate_10g", same)
            write_runs(c, "highrate_10g", same, correct=False)
            buf = io.StringIO()
            status = compare.compare(compare.load_runs(p), compare.load_runs(c),
                                     METRICS, out=buf)
            self.assertIn("incorrect output", buf.getvalue())
            self.assertEqual(status, 1)

    def test_same_runs_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            p, c = os.path.join(tmp, "p"), os.path.join(tmp, "c")
            runs = [{"pkts_per_s": 100 + i, "setup_s": 1.0 + 0.01 * i}
                    for i in range(10)]
            write_runs(p, "fleet_traced", runs)
            write_runs(c, "fleet_traced", runs)
            status = compare.compare(compare.load_runs(p), compare.load_runs(c),
                                     METRICS, out=io.StringIO())
            self.assertEqual(status, 0)


if __name__ == "__main__":
    unittest.main()
