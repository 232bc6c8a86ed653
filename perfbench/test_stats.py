"""Tests of the A/B rule: python3 -m unittest discover -s perfbench"""

import unittest

import stats


def result(values_by_metric, workload="w"):
    rows = [{"correct": True, "attempted": 10, "failed": 0,
             "metrics": {m: {"value": v[i], "unit": "us"} for m, v in values_by_metric.items()}}
            for i in range(len(next(iter(values_by_metric.values()))))]
    return {"commit": workload, "workloads": {workload: stats.summarize(rows, seeds=list(range(len(rows))))}}


BOUNDS = {"lat": ("lower", 0.1), "qps": ("higher", 0.1), "failed_frac": ("lower", 0.0)}
PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def verdict_of(parent, child, metric="lat"):
    report = stats.compare(result({metric: parent}), result({metric: child}), BOUNDS)
    (row,) = report["rows"]
    return row


class CompareRule(unittest.TestCase):
    def test_a_clear_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        row = verdict_of(PARENT, [v - 10 for v in PARENT])
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["wins"], 10)

    def test_eight_wins_are_not_a_gain(self):
        child = [v - 10 for v in PARENT]
        child[0] += 30
        child[1] += 30
        row = verdict_of(PARENT, child)
        self.assertEqual(row["wins"], 8)
        self.assertNotEqual(row["verdict"], "gain")

    def test_a_gap_inside_the_parent_iqr_is_not_a_gain(self):
        row = verdict_of(PARENT, [v - 0.5 for v in PARENT])
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "within bound")

    def test_worse_beyond_the_bound_is_a_regression(self):
        self.assertEqual(verdict_of(PARENT, [v * 1.2 for v in PARENT])["verdict"], "regression")
        self.assertEqual(verdict_of(PARENT, [v * 1.05 for v in PARENT])["verdict"], "within bound")
        # For a higher-is-better metric the direction flips.
        self.assertEqual(verdict_of(PARENT, [v * 0.8 for v in PARENT], "qps")["verdict"],
                         "regression")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(verdict_of(noisy, [v * 1.05 for v in noisy])["verdict"], "unresolved")

    def test_fewer_than_ten_pairs_never_claim_a_gain(self):
        row = verdict_of(PARENT[:6], [v - 10 for v in PARENT[:6]])
        self.assertEqual(row["verdict"], "too few pairs")

    def test_a_zero_baseline_regresses_on_any_failure(self):
        zeros = [0.0] * 10
        self.assertEqual(verdict_of(zeros, zeros, "failed_frac")["verdict"], "within bound")
        self.assertEqual(verdict_of(zeros, [0.0] * 9 + [0.01], "failed_frac")["verdict"],
                         "within bound")
        self.assertEqual(verdict_of(zeros, [0.01] * 10, "failed_frac")["verdict"], "regression")

    def test_summaries_use_statistics_quartiles(self):
        s = result({"lat": PARENT})["workloads"]["w"]["metrics"]["lat"]
        q1, med, q3 = __import__("statistics").quantiles(PARENT, n=4)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, med, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / med)

    def test_metric_lines_parse(self):
        lines = ["gate: PASS", "metric hh_p90_ms 27.59 ms (n=80 beyond=8)", "metric bad x y"]
        self.assertEqual(stats.parse_metric_lines(lines), {"hh_p90_ms": (27.59, "ms")})


if __name__ == "__main__":
    unittest.main()
