#!/usr/bin/env python3
"""perfbench: the CacheKV benchmark (README.md in this directory).

    python3 perfbench/run.py --workload read-hot-zipf --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. It builds the server and the load
generator from src/ into $CARGO_TARGET_DIR (default .bench_build),
runs one workload and prints every metric by name with its unit, a
pass/fail verdict, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
end-to-end metrics; --trace 1 makes the traced run that gives the
per-layer metrics. The full record of the run, with a host descriptor
and each metric's repeats and quartiles, is written as a JSON artifact
(path printed on stderr); compare.py diffs two of them.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KEY_BYTES = 16
LIFETIMES = 7       # server lifetimes in an untraced run
TRACE_EVERY = 8     # traced runs sample every 8th keyed request
SERVER_TIMEOUT_S = 30

END_TO_END = [
    ("setup_s", "s"), ("throughput_kops", "kops"),
    ("get_p50_us", "us"), ("put_p50_us", "us"),
    ("space_amp", "x"), ("cpu_us_per_op", "us"), ("peak_rss_mb", "MB"),
]
# Printed and recorded, but not in BENCHMARK.json: the p99s and
# write_amp are too unsteady in this revision to carry a bound, the rest
# are zero or absent on some listed workload (README.md, "Metrics").
END_TO_END_EXTRA = [("get_p99_us", "us"), ("put_p99_us", "us"),
                    ("write_amp", "x"), ("scan_p99_us", "us"),
                    ("failed_frac", "ratio"), ("space_growth", "x")]
PER_LAYER = [
    ("net.server_get_p50_us", "us"), ("net.server_put_p50_us", "us"),
    ("net.queue_p50_us", "us"), ("net.queue_p99_us", "us"),
    ("net.ops_per_batch", "ops"), ("net.bytes_per_op", "B"),
    ("net.backpressure_sheds", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.rejected_fill_ratio", "ratio"),
    ("cache.invalidations_per_put", "ratio"),
    ("core.get_memtable_p50_us", "us"), ("core.index_syncs_per_get", "ratio"),
    ("core.get_hit_memtable_frac", "ratio"),
    ("core.get_hit_zone_frac", "ratio"), ("core.get_hit_lsm_frac", "ratio"),
    ("core.put_append_p50_us", "us"), ("core.acquire_waits", "count"),
    ("core.write_stalls", "count"), ("core.flush_copy_busy_ms", "ms"),
    ("core.zone_compact_busy_ms", "ms"), ("core.seals", "count"),
    ("core.read_only", "count"),
    ("core.get_p50_us", "us"), ("core.put_p50_us", "us"),
    ("core.multiput_p50_us", "us"), ("core.scan_p50_us", "us"),
    ("lsm.get_p50_us", "us"), ("lsm.bloom_useful_ratio", "ratio"),
    ("lsm.compact_busy_ms", "ms"), ("lsm.compaction_write_amp", "x"),
    ("vlog.append_bytes_per_put", "B"), ("vlog.gc_passes", "count"),
    ("vlog.gc_unlinked", "count"), ("vlog.gc_rewrite_ratio", "ratio"),
    ("vlog.space_amp", "x"), ("vlog.read_races", "count"),
    ("pmem.write_hit_ratio", "ratio"), ("pmem.media_write_amp", "x"),
    ("bench.gen_lag_p99_us", "us"), ("obs.trace_overhead_pct", "%"),
]

# Failure messages of the defects README.md records, so a failing run
# names the defect instead of reading as noise.
KNOWN_DEFECTS = {
    "bad record during sub-skiplist sync":
        "defect (a): index-sync corruption under batched writes",
    "pmem allocator exhausted":
        "defect (b): value-log space is never reclaimed",
}


class RunError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns the build directory."""
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise RunError("build failed: " + " ".join(cmd))
    return bdir


class Server:
    """The server under test as a child process on an ephemeral port."""

    def __init__(self, bdir, workdir):
        self.err_path = os.path.join(workdir, "server.err")
        self.cmd = [os.path.join(bdir, "perfbench_server")]
        self.proc = None
        self.port = None

    def __enter__(self):
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                         stderr=err)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise RunError("server did not start: " + self.stderr())
        self.port = int(line.split()[1])
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def stderr(self):
        with open(self.err_path, errors="replace") as fp:
            return fp.read().strip()


def workload_flags(wl, seed):
    return ["--keys", str(wl["keys"]), "--value-size", str(wl["value_size"]),
            "--get", str(wl["get"]), "--scan", str(wl["scan"]),
            "--dist", wl["dist"], "--seed", str(seed),
            "--warmup-ops", str(wl["warmup_ops"]),
            "--open-rate", str(wl["open_rate"])]


def run_load(bdir, workdir, args, timeout):
    cmd = [os.path.join(bdir, "perfbench_load")] + args + ["--out", workdir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("load generator timed out")
    if res.returncode != 0:
        raise RunError("load generator failed: " +
                       res.stderr.decode(errors="replace"))
    return json.loads(res.stdout)


def net_run(bdir, workdir, wl, seed, tag, phases, timeout):
    """One server lifetime: set up, then run `phases`. Returns (setup
    seconds, load document, server stderr)."""
    args = ["net"] + workload_flags(wl, seed)
    for p in phases:
        args += ["--phase", p]
    out = os.path.join(workdir, tag)
    os.makedirs(out)
    t0 = time.monotonic()
    with Server(bdir, out) as server:
        args += ["--port", str(server.port),
                 "--server-pid", str(server.proc.pid)]
        doc = run_load(bdir, out, args, timeout)
    if not doc["stats_ok"]:
        raise RunError("STATS scrape failed")
    return doc["t_setup_done"] - t0, doc, server.stderr()


def metric(value, unit, repeats=None, **base):
    """A metric with its unit, base counts and repeat quartiles."""
    m = {"value": value, "unit": unit}
    if repeats is not None:
        q = M.quartiles(repeats)
        m["repeats"] = repeats
        if q is not None:
            m["q1"], m["median"], m["q3"] = q
    m.update(base)
    return m


def write_bytes(before, after):
    """PMem bytes written by copy-flush, L0, compaction and the vlog."""
    names = ("flush.copy_bytes", "lsm.l0_bytes_written",
             "lsm.compact_bytes_written", "vlog.append_bytes",
             "vlog.gc_rewrite_bytes")
    return sum(M.counter_diff(before, after, n) for n in names)


LATENCIES = (("get_p99_us", M.GET, 0.99), ("put_p99_us", M.PUT, 0.99),
             ("scan_p99_us", M.SCAN, 0.99))

# Throughput, CPU per request and the p50 latencies are taken over short
# windows pooled from every lifetime: the BEST_Q quantile of window
# throughput and the 1 - BEST_Q quantile of the others. The host only
# ever takes time away, so this reads the program's speed in the windows
# the host left alone (README.md, "Windows and host steal").
BEST_Q = 0.9


def lifetime_values(wl, doc):
    """One server lifetime (an open-loop phase, then a closed-loop
    one): its per-lifetime values and the sample count behind each, its
    windows, and the PMem bytes written and user bytes ingested across
    both phases."""
    open_ph, closed_ph = doc["phases"]
    window_ns = round(doc["config"]["window_s"] * 1e9)
    open_rec = M.read_records(open_ph["records"])
    closed_rec = M.read_records(closed_ph["records"])
    v, n = {}, {}
    for name, op, q in LATENCIES:
        lat = M.latencies(open_rec, op)
        p = M.percentile(lat, q)
        v[name] = None if p is None else p / 1e3
        n[name] = len(lat)
    closed = M.closed_windows(closed_rec, closed_ph["windows"])
    win = {
        "throughput_kops": [w["ops_per_s"] / 1e3 for w in closed],
        "cpu_us_per_op": [None if w["cpu_ns_per_op"] is None
                          else w["cpu_ns_per_op"] / 1e3 for w in closed],
        "steal": [w["steal"] for w in closed],
    }
    n["throughput_kops"] = n["cpu_us_per_op"] = M.completed(closed_rec)
    for name, op in (("get_p50_us", M.GET), ("put_p50_us", M.PUT)):
        p50s = M.open_windows(open_rec, op, window_ns,
                              open_ph["elapsed_s"] * 1e9)
        win[name] = [None if p is None else p / 1e3 for p in p50s]
        n[name] = len(M.latencies(open_rec, op))
    b = M.flatten_stats(open_ph["before"]["stats"])
    at = M.flatten_stats(open_ph["after"]["stats"])
    a = M.flatten_stats(closed_ph["after"]["stats"])
    # Space and memory are read after the open-loop phase, whose work is
    # fixed by the offered rate, so a faster build does not ingest more.
    live = wl["keys"] * (KEY_BYTES + wl["value_size"])
    v["space_amp"] = M.gauge_sum(at, "bench.pmem_used_bytes") / live
    n["space_amp"] = live
    # PMem newly in use per byte ingested during the open-loop phase:
    # near 0 when space is reclaimed as fast as it is overwritten.
    grown = M.ratio(M.gauge_sum(at, "bench.pmem_used_bytes") -
                    M.gauge_sum(b, "bench.pmem_used_bytes"),
                    M.counter_diff(b, at, "db.ingest_bytes"))
    v["space_growth"], n["space_growth"] = grown["value"], grown["den"]
    v["peak_rss_mb"] = open_ph["after"]["hwm_kb"] / 1024.0
    return v, n, win, (write_bytes(b, a),
                       M.counter_diff(b, a, "db.ingest_bytes"))


def end_to_end(wl, lives, attempted, failed):
    """Throughput, CPU per request and the p50s come from the pooled
    windows (BEST_Q); write_amp pools the bytes of every lifetime, since
    flushes are few and discrete; every other metric is the median over
    the lifetimes."""
    values = [lifetime_values(wl, x["doc"]) for x in lives]
    setups = [x["setup_s"] for x in lives]
    out = {"setup_s": metric(statistics.median(setups), "s", setups)}
    units = dict(END_TO_END + END_TO_END_EXTRA)
    for name in values[0][0]:
        reps = [v[0][name] for v in values]
        got = [v for v in reps if v is not None]
        out[name] = metric(statistics.median(got) if got else 0.0,
                           units[name], reps,
                           n=sum(v[1].get(name, 0) for v in values),
                           reportable=len(got) == len(reps))
    steal = [s for v in values for s in v[2]["steal"]]
    for name in ("throughput_kops", "cpu_us_per_op", "get_p50_us",
                 "put_p50_us"):
        wins = [w for v in values for w in v[2][name]]
        got = [w for w in wins if w is not None]
        q = BEST_Q if name == "throughput_kops" else 1 - BEST_Q
        best = M.quantile(got, q)
        out[name] = metric(0.0 if best is None else best, units[name], got,
                           n=sum(v[1][name] for v in values),
                           quantile=q, windows=len(wins),
                           reportable=len(got) == len(wins) and bool(got))
    out["throughput_kops"]["window_steal"] = steal
    written = sum(v[3][0] for v in values)
    ingested = sum(v[3][1] for v in values)
    wa = M.ratio(written, ingested)
    out["write_amp"] = metric(wa["value"], "x",
                              [M.ratio(*v[3])["value"] for v in values],
                              num=wa["num"], den=wa["den"])
    ff = M.ratio(failed, attempted)
    out["failed_frac"] = metric(ff["value"], "ratio", num=failed,
                                den=attempted)
    return out


def per_layer(doc, db_doc):
    """Per-layer metrics from the traced run's STATS diff, its traced
    frames and the DB rung."""
    phases = doc["phases"]
    b = M.flatten_stats(phases[0]["before"]["stats"])
    a = M.flatten_stats(phases[-1]["after"]["stats"])

    def d(name):
        return M.counter_diff(b, a, name)

    r = M.ratio
    out = {}

    def put(name, unit, value, **base):
        out[name] = metric(value, unit, **base)

    def put_ratio(name, unit, rr):
        put(name, unit, rr["value"], num=rr["num"], den=rr["den"])

    def busy_ms(hist):
        n, total_ns = M.hist_diff(b, a, hist)
        return total_ns / 1e6, n

    def server_p50(name, hist):
        # STATS has no buckets: the p50 is over the server's life, so
        # the exact mean over the measured phases goes beside it.
        n, total_ns = M.hist_diff(b, a, hist)
        put(name, "us", M.hist_p50(a, hist) / 1e3, phase_n=n,
            phase_mean_us=M.ratio(total_ns, n)["value"] / 1e3)

    open_rec = M.read_records(phases[0]["records"])
    server_p50("net.server_get_p50_us", "net.op.get")
    server_p50("net.server_put_p50_us", "net.op.put")
    queue = M.queue_samples(open_rec)
    for name, q in (("net.queue_p50_us", 0.5), ("net.queue_p99_us", 0.99)):
        v = M.percentile(queue, q)
        put(name, "us", 0.0 if v is None else v / 1e3, n=len(queue),
            reportable=v is not None)
    put_ratio("net.ops_per_batch", "ops",
              r(d("net.batched_ops"), d("net.batched_writes")))
    put_ratio("net.bytes_per_op", "B",
              r(d("net.bytes_in") + d("net.bytes_out"), d("net.requests")))
    put("net.backpressure_sheds", "count", d("net.backpressure_sheds"))
    put_ratio("cache.hit_ratio", "ratio",
              r(d("cache.hits"), d("cache.hits") + d("cache.misses")))
    put_ratio("cache.rejected_fill_ratio", "ratio",
              r(d("cache.rejected_fills"), d("cache.misses")))
    put_ratio("cache.invalidations_per_put", "ratio",
              r(d("cache.invalidations"), d("db.puts")))
    server_p50("core.get_memtable_p50_us", "get.memtable")
    put_ratio("core.index_syncs_per_get", "ratio",
              r(d("db.index_syncs"), d("db.gets")))
    for name, counter in (("core.get_hit_memtable_frac",
                           "db.get_hit_submemtable"),
                          ("core.get_hit_zone_frac", "db.get_hit_zone"),
                          ("core.get_hit_lsm_frac", "db.get_hit_lsm")):
        put_ratio(name, "ratio", r(d(counter), d("db.gets")))
    server_p50("core.put_append_p50_us", "put.append")
    put("core.acquire_waits", "count", d("db.acquire_waits"))
    put("core.write_stalls", "count", d("db.write_stalls"))
    for name, hist in (("core.flush_copy_busy_ms", "flush.copy"),
                       ("core.zone_compact_busy_ms", "zone.compact"),
                       ("lsm.compact_busy_ms", "lsm.compact")):
        ms, n = busy_ms(hist)
        put(name, "ms", ms, n=n)
    put("core.seals", "count", d("db.seals"))
    put("core.read_only", "count", M.gauge_sum(a, "db.read_only"))

    db_rec = M.read_records(db_doc["records"])
    for name, op in (("core.get_p50_us", M.GET), ("core.put_p50_us", M.PUT),
                     ("core.multiput_p50_us", M.MULTIPUT),
                     ("core.scan_p50_us", M.SCAN)):
        lat = M.latencies(db_rec, op)
        v = M.percentile(lat, 0.5)
        put(name, "us", 0.0 if v is None else v / 1e3, n=len(lat),
            reportable=v is not None)

    server_p50("lsm.get_p50_us", "get.lsm")
    put_ratio("lsm.bloom_useful_ratio", "ratio",
              r(d("lsm.bloom_negatives"), d("lsm.bloom_checks")))
    put_ratio("lsm.compaction_write_amp", "x",
              r(d("lsm.compact_bytes_written"), d("lsm.l0_bytes_written")))
    put_ratio("vlog.append_bytes_per_put", "B",
              r(d("vlog.append_bytes"), d("db.puts")))
    put("vlog.gc_passes", "count", d("vlog.gc_passes"))
    put("vlog.gc_unlinked", "count", d("vlog.gc_unlinked"))
    put_ratio("vlog.gc_rewrite_ratio", "ratio",
              r(d("vlog.gc_rewrite_bytes"), d("vlog.append_bytes")))
    put("vlog.space_amp", "x", M.gauge_mean(a, "vlog.space_amp"))
    put("vlog.read_races", "count", d("vlog.read_races"))
    put("pmem.write_hit_ratio", "ratio", M.gauge_mean(a, "pmem.write_hit_ratio"))
    media = (M.gauge_sum(a, "pmem.media_bytes_written") -
             M.gauge_sum(b, "pmem.media_bytes_written"))
    received = (M.gauge_sum(a, "pmem.bytes_received") -
                M.gauge_sum(b, "pmem.bytes_received"))
    put_ratio("pmem.media_write_amp", "x", r(media, received))

    lag = M.lag_summary(open_rec)
    put("bench.gen_lag_p99_us", "us", lag["p99_us"] or 0.0, n=lag["n"],
        p50_us=lag["p50_us"], max_us=lag["max_us"],
        late_1ms=lag["late_1ms_frac"])
    kops = {0: [], 1: []}
    for ph in phases[1:]:
        rec = M.read_records(ph["records"])
        kops[1 if ph["trace_every"] else 0].append(
            M.completed(rec) / ph["elapsed_s"] / 1e3)
    plain = sum(kops[0]) / len(kops[0])
    traced = sum(kops[1]) / len(kops[1])
    put("obs.trace_overhead_pct", "%", 100.0 * (plain - traced) / plain,
        untraced_kops=kops[0], traced_kops=kops[1])
    return out


def cpu_times():
    """The machine's aggregate CPU times (first line of /proc/stat)."""
    try:
        with open("/proc/stat") as fp:
            return [int(x) for x in fp.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests; a run
    with a high value measured a contended host."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total else 0.0


def host_descriptor(bdir):
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open(os.path.join(bdir, "build_info.json")) as fp:
            info.update(json.load(fp))
    except (OSError, ValueError):
        pass
    return info


def verdict(failures, attempted, failed, server_errs):
    if failed == 0 and not server_errs:
        return True, "PASS: %d operations, none failed" % attempted
    text = " ".join([failures.get("first", "")] + server_errs)
    named = [v for k, v in KNOWN_DEFECTS.items() if k in text.lower()]
    why = "; ".join(named) if named else "unknown cause"
    return False, ("FAIL: %d of %d operations failed (%s); first: %s" %
                   (failed, attempted, why, text.strip()[:300]))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    seconds = args.seconds

    bdir = build()
    workdir = os.path.join(bdir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    timeout = seconds + 60  # per load-generator call

    cpu_start = cpu_times()
    attempted = failed = 0
    failures = {}
    server_errs = []
    setups = []

    def account(doc, err):
        nonlocal attempted, failed
        attempted += doc["attempted"]
        f = doc["failures"]
        failed += f["refused"] + f["error"] + f["transport"] + f["wrong"]
        for k in ("refused", "error", "transport", "wrong"):
            failures[k] = failures.get(k, 0) + f[k]
        if f["first"] and not failures.get("first"):
            failures["first"] = f["first"]
        if err:
            server_errs.append(err)

    if args.trace == 0:
        # LIFETIMES server lifetimes, each set up afresh and measured for
        # an equal share of --seconds: a server process's thread placement
        # on the cores sets much of its speed, so metrics pool or take a
        # median over lifetimes (README.md, "Windows and host steal").
        share = seconds / LIFETIMES / 2
        lives = []
        for i in range(LIFETIMES):
            s, doc, err = net_run(bdir, workdir, wl, args.seed,
                                  "life%d" % i,
                                  ["open:%g:0" % share, "closed:%g:0" % share],
                                  timeout)
            account(doc, err)
            lives.append({"setup_s": s, "doc": doc})
        results = end_to_end(wl, lives, attempted, failed)
        setups = results["setup_s"]["repeats"]
        config = lives[0]["doc"]["config"]
        names = END_TO_END + END_TO_END_EXTRA
        reported = END_TO_END
    else:
        # Half of --seconds: open loop, then closed loop alternating
        # untraced and traced segments; the kvsep-overwrite value log then
        # stays well short of filling PMem (README.md, defect (b)).
        q = seconds / 16
        phases = ["open:%g:%d" % (seconds / 4, TRACE_EVERY),
                  "closed:%g:0" % q, "closed:%g:%d" % (q, TRACE_EVERY),
                  "closed:%g:0" % q, "closed:%g:%d" % (q, TRACE_EVERY)]
        s, doc, err = net_run(bdir, workdir, wl, args.seed, "traced", phases,
                              timeout)
        setups.append(s)
        config = doc["config"]
        account(doc, err)
        db_doc = run_load(bdir, os.path.join(workdir, "traced"), ["db"] +
                          workload_flags(wl, args.seed) +
                          ["--seconds", "%g" % (seconds / 4)], timeout)
        account(db_doc, "")
        results = per_layer(doc, db_doc)
        names = reported = PER_LAYER

    correct, text = verdict(failures, attempted, failed, server_errs)
    host = host_descriptor(bdir)
    host["steal_pct"] = steal_pct(cpu_start, cpu_times())
    artifact = {
        "benchmark": "perfbench", "workload": args.workload,
        "workload_spec": dict(wl, **config), "seed": args.seed,
        "seconds": seconds, "trace": args.trace,
        "host": host, "correct": correct, "verdict": text,
        "attempted": attempted, "failed": failed, "failures": failures,
        "server_stderr": server_errs, "setup_s": setups,
        "metrics": results,
    }
    for top, _, files in os.walk(workdir):
        for name in files:
            if name.endswith(".bin"):
                os.remove(os.path.join(top, name))
    path = os.path.join(workdir, "artifact.json")
    with open(path, "w") as fp:
        json.dump(artifact, fp, indent=1, sort_keys=True)
    log("artifact: %s (host CPU steal %s%%)" % (
        os.path.relpath(path, ROOT), "%.1f" % host["steal_pct"]
        if host["steal_pct"] is not None else "unknown"))

    for name, unit in names:
        m = results[name]
        extra = ""
        if "q1" in m:
            extra = "  [q1 %.4g, median %.4g, q3 %.4g]" % (
                m["q1"], m["median"], m["q3"])
        if "n" in m:
            extra += "  n=%d" % m["n"]
        print("%-30s %14.4f %-6s%s" % (name, m["value"], unit, extra))
    print("verdict: " + text)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": results[n]["value"], "unit": u}
                    for n, u in reported}}))
    return 0


def terminate(signum, _frame):
    # Raised in the main thread, so the server and load generator
    # context managers stop their processes before the exit.
    raise RunError("stopped by signal %d" % signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main(sys.argv[1:]))
    except RunError as e:
        log("perfbench: " + str(e))
        sys.exit(1)
