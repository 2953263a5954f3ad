"""Tests of perfbench's metric arithmetic.

    python3 perfbench/test_metrics.py
"""

import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as M  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(M.percentile(list(range(999)), 0.99))
        self.assertEqual(M.percentile(list(range(1000)), 0.99), 989)
        beyond = [v for v in range(1000) if v > 989]
        self.assertEqual(len(beyond), 10)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(M.percentile(list(range(19)), 0.5))
        self.assertEqual(M.percentile(list(range(1, 21)), 0.5), 10)

    def test_order_of_input_does_not_matter(self):
        vals = [5, 1, 4, 2, 3] * 10
        self.assertEqual(M.percentile(vals, 0.5), 3)

    def test_failed_requests_count_as_slowest(self):
        vals = [100] * 980 + [M.FAILED] * 20
        self.assertEqual(M.percentile(vals, 0.99), M.FAILED)


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = M.ratio(3, 12)
        self.assertEqual(r, {"value": 0.25, "num": 3, "den": 12})

    def test_empty_base_is_zero_not_an_error(self):
        self.assertEqual(M.ratio(0, 0), {"value": 0.0, "num": 0, "den": 0})

    def test_quartiles(self):
        self.assertEqual(M.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertIsNone(M.quartiles([None]))
        q1, med, q3 = M.quartiles([1, 2, 3, 4, 5, None])
        self.assertEqual(med, 3)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)


def stats_doc(puts0, puts1, used0, hist_count, hist_sum):
    """A two-shard STATS document like the server's."""
    def shard(puts, used, extra):
        d = {"db.puts": puts, "bench.pmem_used_bytes": used,
             "pmem.write_hit_ratio": 0.75,
             "put.append": {"count": hist_count, "sum": hist_sum,
                            "p50": 1000.0}}
        d.update(extra)
        return d
    return {"shards": 2,
            "shard.0": shard(puts0, used0, {"net.requests": puts0 + puts1}),
            "shard.1": shard(puts1, used0, {})}


class StatsDiffTest(unittest.TestCase):
    def test_counters_sum_over_shards_and_diff_across_a_phase(self):
        before = M.flatten_stats(stats_doc(10, 20, 100, 5, 5000))
        after = M.flatten_stats(stats_doc(15, 40, 300, 9, 9000))
        self.assertEqual(M.counter_diff(before, after, "db.puts"), 25)
        self.assertEqual(M.counter_diff(before, after, "net.requests"), 25)

    def test_counter_absent_before_counts_from_zero(self):
        before = M.flatten_stats({"shard.0": {}})
        after = M.flatten_stats({"shard.0": {"vlog.gc_passes": 3}})
        self.assertEqual(M.counter_diff(before, after, "vlog.gc_passes"), 3)

    def test_gauges_are_not_diffed_as_counters(self):
        flat = M.flatten_stats(stats_doc(1, 1, 100, 0, 0))
        self.assertNotIn("bench.pmem_used_bytes", flat["counters"])
        self.assertEqual(M.gauge_sum(flat, "bench.pmem_used_bytes"), 200)
        self.assertEqual(M.gauge_mean(flat, "pmem.write_hit_ratio"), 0.75)

    def test_histograms_diff_count_and_sum(self):
        before = M.flatten_stats(stats_doc(0, 0, 0, 5, 5000))
        after = M.flatten_stats(stats_doc(0, 0, 0, 9, 9000))
        self.assertEqual(M.hist_diff(before, after, "put.append"),
                         (8, 8000))
        self.assertEqual(M.hist_p50(after, "put.append"), 1000.0)

    def test_phase_mean_from_count_and_sum_diffs(self):
        # The lifetime p50 stays 1000 ns; the phase's own requests took
        # 2000 ns on average, and only the diffs show it.
        before = M.flatten_stats(stats_doc(0, 0, 0, 5, 5000))
        after = M.flatten_stats(stats_doc(0, 0, 0, 9, 13000))
        n, total = M.hist_diff(before, after, "put.append")
        self.assertEqual(M.ratio(total, n)["value"], 2000.0)
        self.assertEqual(M.hist_p50(after, "put.append"), 1000.0)

    def test_hist_p50_weights_shards_by_count(self):
        flat = M.flatten_stats({
            "shard.0": {"get": {"count": 3, "sum": 0, "p50": 10.0}},
            "shard.1": {"get": {"count": 1, "sum": 0, "p50": 50.0}}})
        self.assertEqual(M.hist_p50(flat, "get"), 20.0)
        self.assertEqual(M.hist_p50(flat, "absent"), 0.0)


def write_records(rows):
    fd, path = tempfile.mkstemp(suffix=".bin")
    with os.fdopen(fd, "wb") as fp:
        for row in rows:
            fp.write(struct.pack("<5I", *row))
    return path


class RecordsTest(unittest.TestCase):
    def test_open_loop_lag_accounting(self):
        # type, due_us, latency_ns, lag_ns, queue_ns
        rows = [(M.GET, i, 50_000 + i, 2_000, M.UNTRACED)
                for i in range(990)]
        rows += [(M.PUT, 990 + i, 3_000_000, 2_000_000, 7_000)
                 for i in range(10)]
        path = write_records(rows)
        try:
            rec = M.read_records(path)
        finally:
            os.remove(path)
        lag = M.lag_summary(rec)
        self.assertEqual(lag["n"], 1000)
        self.assertEqual(lag["p50_us"], 2.0)
        self.assertEqual(lag["p99_us"], 2.0)  # only 10 samples beyond
        self.assertEqual(lag["max_us"], 2000.0)
        self.assertEqual(lag["late_1ms_frac"],
                         {"value": 0.01, "num": 10, "den": 1000})
        self.assertEqual(M.queue_samples(rec), [7_000] * 10)
        self.assertEqual(len(M.latencies(rec, M.GET)), 990)
        self.assertEqual(M.latencies(rec, M.PUT), [3_000_000] * 10)

    def test_failed_requests_are_not_completed(self):
        path = write_records([(M.GET, 0, M.FAILED, 0, M.UNTRACED),
                              (M.GET, 1, 10, 0, M.UNTRACED)])
        try:
            rec = M.read_records(path)
        finally:
            os.remove(path)
        self.assertEqual(M.completed(rec), 1)


def columns(rows):
    """Records as read_records() returns them, from row tuples."""
    names = ("type", "due_us", "latency_ns", "lag_ns", "queue_ns")
    return {n: [r[i] for r in rows] for i, n in enumerate(names)}


class WindowTest(unittest.TestCase):
    def test_quantile_picks_among_windows_without_a_tail_rule(self):
        self.assertIsNone(M.quantile([], 0.9))
        self.assertEqual(M.quantile([3, 1, 2], 0.9), 3)
        self.assertEqual(M.quantile(list(range(1, 11)), 0.9), 9)
        self.assertEqual(M.quantile(list(range(1, 11)), 0.1), 1)

    def test_closed_windows_count_responses_where_they_arrived(self):
        # Samples: [ns since start, server CPU ns, steal, total ticks].
        samples = [[0, 0, 0, 0], [100_000_000, 4_000, 1, 10],
                   [200_000_000, 4_000, 1, 20], [300_000_000, 9_000, 1, 30]]
        rows = [(M.GET, 10, 1_000, 0, M.UNTRACED)] * 2  # arrive at 11 us
        # Due in window 0, answered in window 2.
        rows += [(M.PUT, 99_000, 150_000_000, 0, M.UNTRACED)]
        rows += [(M.PUT, 250_000, M.FAILED, 0, M.UNTRACED)]  # not counted
        rows += [(M.GET, 300_000, 0, 0, M.UNTRACED)]  # after the last
        wins = M.closed_windows(columns(rows), samples)
        self.assertEqual([w["ops_per_s"] for w in wins], [20.0, 0.0, 10.0])
        self.assertEqual([w["cpu_ns_per_op"] for w in wins],
                         [2_000.0, None, 5_000.0])
        self.assertEqual([w["steal"] for w in wins], [0.1, 0.0, 0.0])
        self.assertEqual(M.closed_windows(columns(rows), samples[:1]), [])

    def test_open_windows_take_a_p50_per_full_window_of_due_time(self):
        # 30 GETs due in each 1 ms window of a 2.5 ms phase; the last,
        # partial window is dropped. Window 1 has only 19 PUTs: too few
        # for a p50.
        rows = [(M.GET, w * 1000 + i, 1_000 * (w + 1) + i, 0, M.UNTRACED)
                for w in range(3) for i in range(30)]
        rows += [(M.PUT, 1000 + i, 5, 0, M.UNTRACED) for i in range(19)]
        rec = columns(rows)
        self.assertEqual(M.open_windows(rec, M.GET, 1_000_000, 2_500_000),
                         [1_014, 2_014])
        self.assertEqual(M.open_windows(rec, M.PUT, 1_000_000, 2_500_000),
                         [None, None])


if __name__ == "__main__":
    unittest.main()
