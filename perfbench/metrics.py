"""Metric arithmetic for perfbench: percentiles, ratios, STATS diffs and
open-loop lag accounting. Pure functions over plain data, so the rules
are tested on their own (test_metrics.py)."""

import bisect
import math
import statistics
from array import array

# A failed request is recorded with the largest latency a sample file can
# hold (0xFFFFFFFF ns, about 4.3 s), so it counts as missing any latency
# limit. Untraced requests carry the same marker in the queue column.
FAILED = 0xFFFFFFFF
UNTRACED = 0xFFFFFFFF
GET, PUT, SCAN, MULTIPUT = 0, 1, 2, 3
RECORD_FIELDS = 5  # type, due_us, latency_ns, lag_ns, queue_ns


def _rank(q, n):
    """Nearest rank of the q-quantile among n samples (1-based)."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values, q):
    """The q-quantile (nearest rank) of `values`, or None when fewer
    than ten samples lie beyond it: a p99 needs 1000 samples, a p50 20.
    """
    n = len(values)
    if n == 0 or n - _rank(q, n) < 10:
        return None
    return sorted(values)[_rank(q, n) - 1]


def quantile(values, q):
    """The q-quantile (nearest rank) of `values`, or None when empty.
    Unlike percentile() it has no tail rule: it picks among windows."""
    if not values:
        return None
    return sorted(values)[_rank(q, len(values)) - 1]


def ratio(num, den):
    """A ratio with its base counts; 0 when the base is empty."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def quartiles(values):
    """(q1, median, q3) of repeated measurements of one metric."""
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    if len(vals) == 1:
        return (vals[0], vals[0], vals[0])
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q1, med, q3)


def read_records(path):
    """Loads a sample file into per-column arrays."""
    raw = array("I")
    with open(path, "rb") as fp:
        raw.frombytes(fp.read())
    return {
        "type": raw[0::RECORD_FIELDS],
        "due_us": raw[1::RECORD_FIELDS],
        "latency_ns": raw[2::RECORD_FIELDS],
        "lag_ns": raw[3::RECORD_FIELDS],
        "queue_ns": raw[4::RECORD_FIELDS],
    }


def latencies(records, op_type):
    """Latencies (ns) of one request type."""
    return [lat for t, lat in zip(records["type"], records["latency_ns"])
            if t == op_type]


def completed(records):
    """Requests that succeeded."""
    return sum(1 for lat in records["latency_ns"] if lat != FAILED)


def closed_windows(records, samples):
    """Cuts a closed-loop phase at its window samples ([ns since the
    phase start, server CPU ns, steal ticks, total ticks], as
    perfbench_load writes them). Returns one dict per window: requests
    completed per second, server CPU ns per completed request (None
    when none completed) and the host's CPU steal share. A request
    counts in the window its response arrived in."""
    edges = [s[0] for s in samples]
    if len(edges) < 2:
        return []
    counts = [0] * (len(edges) - 1)
    first, last = edges[0], edges[-1]
    for due, lat in zip(records["due_us"], records["latency_ns"]):
        if lat == FAILED:
            continue
        t = due * 1000 + lat
        if first <= t < last:
            counts[bisect.bisect_right(edges, t) - 1] += 1
    out = []
    for k, n in enumerate(counts):
        a, b = samples[k], samples[k + 1]
        out.append({
            "ops_per_s": n * 1e9 / (b[0] - a[0]),
            "cpu_ns_per_op": (b[1] - a[1]) / n if n else None,
            "steal": ratio(b[2] - a[2], b[3] - a[3])["value"],
        })
    return out


def open_windows(records, op_type, window_ns, phase_ns):
    """The p50 latency (ns) of one request type in each full window of
    due time of an open-loop phase; None for a window whose requests of
    that type are too few for a p50."""
    full = int(phase_ns // window_ns)
    buckets = [[] for _ in range(full)]
    for t, due, lat in zip(records["type"], records["due_us"],
                           records["latency_ns"]):
        if t == op_type:
            k = int(due * 1000 // window_ns)
            if k < full:
                buckets[k].append(lat)
    return [percentile(b, 0.5) for b in buckets]


def lag_summary(records):
    """Open-loop sender lag: how late requests left relative to when
    they were due. A latency result is only as good as its sender."""
    lags = list(records["lag_ns"])
    return {
        "n": len(lags),
        "p50_us": _us(percentile(lags, 0.5)),
        "p99_us": _us(percentile(lags, 0.99)),
        "max_us": _us(max(lags) if lags else None),
        "late_1ms_frac": ratio(sum(1 for x in lags if x > 1_000_000),
                               len(lags)),
    }


def queue_samples(records):
    """Client round trip minus server time on traced frames (ns)."""
    return [q for q in records["queue_ns"] if q != UNTRACED]


def _us(ns):
    return None if ns is None else ns / 1000.0


def flatten_stats(stats):
    """Folds a STATS document into one flat view over all shards.

    Counters are summed across shards. Gauges are kept per shard as a
    list. Histograms keep per-shard count/sum (exact across a phase)
    and p50 (over the server's life: STATS exposes no buckets)."""
    flat = {"counters": {}, "gauges": {}, "hists": {}}
    if not stats:
        return flat
    shards = [v for k, v in stats.items()
              if k.startswith("shard.") and isinstance(v, dict)]
    if not shards:
        shards = [stats]
    for shard in shards:
        for name, v in shard.items():
            if isinstance(v, dict):
                flat["hists"].setdefault(name, []).append(
                    {"count": v.get("count", 0), "sum": v.get("sum", 0),
                     "p50": v.get("p50", 0)})
            elif isinstance(v, int) and not _is_gauge(name):
                flat["counters"][name] = flat["counters"].get(name, 0) + v
            else:
                flat["gauges"].setdefault(name, []).append(float(v))
    return flat


# Registry gauges that serialize as whole numbers; everything else that
# is an integer is a counter.
_GAUGES = ("bench.", "cache.bytes", "cache.entries", "cache.clwb_lines",
           "cache.fences", "cache.dirty_evictions", "db.read_only",
           "net.connections", "pmem.", "repl.epoch", "repl.is_primary",
           "repl.lag_batches", "repl.log_head", "repl.log_start",
           "snap.active", "vlog.segments", "vlog.space_amp")


def _is_gauge(name):
    return any(name == g or (g.endswith(".") and name.startswith(g))
               for g in _GAUGES)


def counter_diff(before, after, name):
    """Counter increase across a phase (a counter absent before is 0)."""
    return (after["counters"].get(name, 0) -
            before["counters"].get(name, 0))


def hist_diff(before, after, name):
    """(count, sum) a histogram gained across a phase, over all shards."""
    def total(flat, field):
        return sum(h[field] for h in flat["hists"].get(name, []))
    return (total(after, "count") - total(before, "count"),
            total(after, "sum") - total(before, "sum"))


def hist_p50(flat, name):
    """Count-weighted mean of the shards' lifetime p50s, or 0."""
    hs = [h for h in flat["hists"].get(name, []) if h["count"] > 0]
    n = sum(h["count"] for h in hs)
    return sum(h["p50"] * h["count"] for h in hs) / n if n else 0.0


def gauge_sum(flat, name):
    return sum(flat["gauges"].get(name, []))


def gauge_mean(flat, name):
    vals = flat["gauges"].get(name, [])
    return sum(vals) / len(vals) if vals else 0.0
