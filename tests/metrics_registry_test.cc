#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "pmem/pmem_env.h"
#include "report.h"
#include "test_util.h"
#include "util/histogram.h"
#include "util/json.h"

namespace cachekv {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ShardedHistogram;

TEST(CounterTest, IncrementAndAtomicApi) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("test.counter");
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(0u, c->load());
  c->Increment();
  c->Increment(4);
  c->fetch_add(5, std::memory_order_relaxed);
  EXPECT_EQ(10u, c->load());
  EXPECT_EQ(10u, c->value());
  // Same name resolves to the same counter; pointers are stable.
  EXPECT_EQ(c, reg.GetCounter("test.counter"));
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry reg;
  obs::Gauge* g = reg.GetGauge("test.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(2.5, g->Value());
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(4.0, g->Value());
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(-1.0, g->Value());
}

TEST(ShardedHistogramTest, SingleThreadRecord) {
  ShardedHistogram h;
  for (int i = 1; i <= 100; i++) {
    h.Record(i);
  }
  EXPECT_EQ(100u, h.TotalCount());
  EXPECT_DOUBLE_EQ(5050.0, h.TotalSum());
  EXPECT_EQ(1, h.NumShards());
  Histogram merged = h.Merged();
  EXPECT_EQ(100u, merged.count());
  EXPECT_NEAR(50.0, merged.Median(), 15.0);
  EXPECT_GE(merged.Percentile(99.0), merged.Median());
}

TEST(ShardedHistogramTest, OneShardPerWriterThread) {
  ShardedHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; i++) {
        h.Record(1.0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Each writer thread claimed its own shard (the single-writer
  // contract of Histogram::Add), and no sample was lost.
  EXPECT_EQ(kThreads, h.NumShards());
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kPerThread, h.TotalCount());
  EXPECT_DOUBLE_EQ(static_cast<double>(kThreads) * kPerThread,
                   h.Merged().sum());
}

TEST(ShardedHistogramTest, MergeWhileWritersRun) {
  ShardedHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(7.0);
      }
    });
  }
  // Scraping while writers are live must be safe, and the observed
  // count may only grow between scrapes.
  uint64_t last = 0;
  for (int i = 0; i < 50; i++) {
    Histogram merged = h.Merged();
    EXPECT_GE(merged.count(), last);
    last = merged.count();
  }
  stop.store(true);
  for (auto& th : writers) {
    th.join();
  }
  EXPECT_EQ(h.TotalCount(), h.Merged().count());
}

TEST(MetricsRegistryTest, SnapshotWhileWritersRun) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&reg, &stop, t] {
      obs::Counter* c = reg.GetCounter("writer.ops");
      obs::ShardedHistogram* h = reg.GetHistogram("writer.span");
      // Writers also register their own names mid-flight to exercise
      // the insert slow path against concurrent snapshots.
      reg.GetCounter("writer." + std::to_string(t));
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        h->Record(3.0);
      }
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 100; i++) {
    MetricsSnapshot snap = reg.Snapshot();
    uint64_t count = snap.CounterValue("writer.ops");
    EXPECT_GE(count, last_count);
    last_count = count;
    EXPECT_LE(snap.HistogramCount("writer.span"),
              reg.GetHistogram("writer.span")->TotalCount());
  }
  stop.store(true);
  for (auto& th : writers) {
    th.join();
  }
  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("writer.ops"),
            reg.GetCounter("writer.ops")->load());
  EXPECT_EQ(final_snap.HistogramCount("writer.span"),
            reg.GetHistogram("writer.span")->TotalCount());
}

TEST(ShardedHistogramTest, ScrapeStressWhileWritersRun) {
  // The METRICSPROM path under load: writers hammer a registry's
  // counter + histogram while a scraper renders Prometheus text in a
  // tight loop. Rendering must stay crash-free (TSan/ASan jobs run
  // this) and the scraped count may only grow.
  MetricsRegistry reg;
  // Register up front so the very first scrape already sees both
  // families; the races under test are value updates, not insertion.
  reg.GetCounter("stress.ops");
  reg.GetHistogram("stress.lat");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&reg, &stop] {
      obs::Counter* c = reg.GetCounter("stress.ops");
      obs::ShardedHistogram* h = reg.GetHistogram("stress.lat");
      // do-while: each writer lands at least one sample even if the
      // scraper finishes its 100 rounds before this thread is
      // scheduled.
      do {
        c->Increment();
        h->Record(42.0);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 100; i++) {
    MetricsSnapshot snap = reg.Snapshot();
    const std::string text = obs::RenderPrometheus(snap);
    EXPECT_NE(std::string::npos, text.find("cachekv_stress_ops"));
    const uint64_t count = snap.CounterValue("stress.ops");
    EXPECT_GE(count, last);
    last = count;
  }
  stop.store(true);
  for (auto& th : writers) {
    th.join();
  }
  // After writers drain, the final scrape must reflect their work.
  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_GT(final_snap.CounterValue("stress.ops"), 0u);
  EXPECT_GE(final_snap.CounterValue("stress.ops"), last);
  const std::string final_text = obs::RenderPrometheus(final_snap);
  EXPECT_NE(std::string::npos, final_text.find("cachekv_stress_lat_count"));
}

TEST(PrometheusRenderTest, SanitizesNamesAndLabelsShards) {
  MetricsRegistry shard0, shard1;
  shard0.GetCounter("net.requests")->Increment(5);
  shard1.GetCounter("net.requests")->Increment(7);
  shard0.GetGauge("net.connections")->Set(2);
  shard0.GetHistogram("net.op.get")->Record(1000.0);
  const std::string text = obs::RenderPrometheus(
      {shard0.Snapshot(), shard1.Snapshot()});

  // Dots become underscores under the cachekv_ prefix; one TYPE line
  // per family even with two shards; every series shard-labelled.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE cachekv_net_requests counter"));
  EXPECT_EQ(text.find("# TYPE cachekv_net_requests "),
            text.rfind("# TYPE cachekv_net_requests "));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_requests{shard=\"0\"} 5"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_requests{shard=\"1\"} 7"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE cachekv_net_connections gauge"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE cachekv_net_op_get summary"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_op_get{shard=\"0\",quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_op_get_sum{shard=\"0\"} 1000"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_op_get_count{shard=\"0\"} 1"));
}

TEST(PrometheusRenderTest, EmptyHistogramSkipsQuantilesNotSeries) {
  // A registered-but-empty histogram: quantiles would be the 0 sentinel
  // lie, so only _sum and _count (both 0) are emitted.
  MetricsRegistry reg;
  reg.GetHistogram("quiet.span");
  const std::string text = obs::RenderPrometheus(reg.Snapshot());
  EXPECT_EQ(std::string::npos, text.find("quantile"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_quiet_span_count{shard=\"0\"} 0"));
}

TEST(PrometheusRenderTest, NameSanitizer) {
  EXPECT_EQ("cachekv_net_op_get", obs::PrometheusName("net.op.get"));
  EXPECT_EQ("cachekv_a_b_c", obs::PrometheusName("a-b c"));
  EXPECT_EQ("cachekv_x9", obs::PrometheusName("x9"));
}

TEST(MetricsRegistryTest, SnapshotKindsAndMissingNames) {
  MetricsRegistry reg;
  reg.GetCounter("a.counter")->Increment(3);
  reg.GetGauge("a.gauge")->Set(1.25);
  reg.GetHistogram("a.hist")->Record(10.0);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(3u, snap.CounterValue("a.counter"));
  EXPECT_DOUBLE_EQ(1.25, snap.GaugeValue("a.gauge"));
  EXPECT_EQ(1u, snap.HistogramCount("a.hist"));
  EXPECT_DOUBLE_EQ(10.0, snap.HistogramSum("a.hist"));
  EXPECT_EQ(nullptr, snap.Find("no.such.metric"));
  EXPECT_EQ(0u, snap.CounterValue("no.such.metric"));
}

#ifndef NDEBUG
TEST(HistogramDeathTest, AddFromSecondThreadAsserts) {
  // Histogram::Add is single-writer; in debug builds a second writer
  // thread must trip the assertion rather than silently race.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Histogram h;
  h.Add(1.0);
  EXPECT_DEATH(
      {
        std::thread t([&h] { h.Add(2.0); });
        t.join();
      },
      "");
  // Clear() releases the claim: a new thread may then write.
  h.Clear();
  std::thread t([&h] { h.Add(3.0); });
  t.join();
  EXPECT_EQ(1u, h.count());
}
#endif

EnvOptions TestEnv(uint64_t pool_bytes) {
  EnvOptions o;
  o.pmem_capacity = 768ull << 20;
  o.llc_capacity = 36ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

CacheKVOptions SmallDb() {
  CacheKVOptions o;
  o.pool_bytes = 4ull << 20;
  o.sub_memtable_bytes = 512ull << 10;
  o.min_sub_memtable_bytes = 128ull << 10;
  o.num_cores = 8;
  o.sync_write_threshold = 64;
  o.imm_zone_flush_threshold = 512ull << 10;
  o.lsm.l0_compaction_trigger = 3;
  o.lsm.base_level_bytes = 8ull << 20;
  o.lsm.target_file_size = 1ull << 20;
  return o;
}

TEST(DbMetricsTest, InjectedDeviceTimeIsMirroredAsGauge) {
  EnvOptions eo = TestEnv(4ull << 20);
  eo.latency.scale = 1;
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, SmallDb(), false, &db).ok());
  std::string value(8 << 10, 'v');  // separated: appends to the value log
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(Cat("key", i), value).ok());
  }
  ASSERT_TRUE(db->WaitIdle().ok());
  const uint64_t before = env.latency()->total_injected_ns();
  MetricsSnapshot snap = db->GetMetricsSnapshot();
  const uint64_t after = env.latency()->total_injected_ns();
  EXPECT_GT(before, 0u);
  EXPECT_GE(snap.GaugeValue("pmem.injected_ns"), static_cast<double>(before));
  EXPECT_LE(snap.GaugeValue("pmem.injected_ns"), static_cast<double>(after));
}

TEST(DbMetricsTest, WorkloadPopulatesSpans) {
  PmemEnv env(TestEnv(4ull << 20));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, SmallDb(), false, &db).ok());
  const int kOps = 20000;
  std::string value(64, 'v');
  for (int i = 0; i < kOps; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db->WaitIdle().ok());

  MetricsSnapshot snap = db->GetMetricsSnapshot();
  // Every counter lives on the registry, so the snapshot and the
  // CounterValue() accessor must agree.
  EXPECT_EQ(static_cast<uint64_t>(kOps), db->CounterValue("db.puts"));
  EXPECT_EQ(db->CounterValue("db.puts"), snap.CounterValue("db.puts"));
  // Every write crossed the "put" span.
  EXPECT_GE(snap.HistogramCount("put"), static_cast<uint64_t>(kOps));
  EXPECT_GT(snap.HistogramCount("put.append"), 0u);
  // 20k * ~80 B of records overflows the 512 KB sub-MemTables many
  // times over, so copy flushes ran — and every copy flush was counted
  // by exactly one "flush.copy" span.
  EXPECT_GT(db->CounterValue("db.copy_flushes"), 0u);
  EXPECT_EQ(db->CounterValue("db.copy_flushes"),
            snap.HistogramCount("flush.copy"));
  EXPECT_EQ(db->CounterValue("db.zone_flushes"),
            snap.HistogramCount("flush.zone"));
  // PMem gauges were refreshed from the device on scrape.
  EXPECT_GT(snap.GaugeValue("pmem.bytes_received"), 0.0);
  EXPECT_GE(snap.GaugeValue("pmem.write_amplification"), 0.0);

  // DumpMetrics emits well-formed JSON containing every metric.
  std::string text;
  db->DumpMetrics(&text);
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(text, &parsed).ok());
  ASSERT_TRUE(parsed.is_object());
  const JsonValue* puts = parsed.Get("db.puts");
  ASSERT_NE(nullptr, puts);
  EXPECT_DOUBLE_EQ(static_cast<double>(kOps), puts->number());
}

TEST(DbMetricsTest, ReadPathSpansAndHitCounters) {
  PmemEnv env(TestEnv(4ull << 20));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, SmallDb(), false, &db).ok());
  const int kKeys = 30000;
  std::string value(128, 'r');
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db->WaitIdle().ok());

  // Mixed hits (every component holds some of the keyspace after the
  // flush pipeline ran) and guaranteed misses.
  const int kHits = 2000, kMisses = 500;
  std::string got;
  for (int i = 0; i < kHits; i++) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i * 7 % kKeys), &got).ok());
  }
  for (int i = 0; i < kMisses; i++) {
    EXPECT_TRUE(db->Get("absent" + std::to_string(i), &got).IsNotFound());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan("key0", 100, &rows).ok());
  EXPECT_EQ(100u, rows.size());

  MetricsSnapshot snap = db->GetMetricsSnapshot();
  const uint64_t gets = snap.CounterValue("db.gets");
  EXPECT_EQ(static_cast<uint64_t>(kHits + kMisses), gets);
  // Every Get crossed the end-to-end span and stage 1; the scan crossed
  // its own span.
  EXPECT_EQ(gets, snap.HistogramCount("get"));
  EXPECT_EQ(gets, snap.HistogramCount("get.memtable"));
  EXPECT_GE(snap.HistogramCount("scan"), 1u);
  // Hit-location accounting partitions the Gets exactly.
  EXPECT_EQ(gets, snap.CounterValue("db.get_hit_submemtable") +
                      snap.CounterValue("db.get_hit_zone") +
                      snap.CounterValue("db.get_hit_lsm") +
                      snap.CounterValue("db.get_miss"));
  EXPECT_GE(snap.CounterValue("db.get_miss"),
            static_cast<uint64_t>(kMisses));
  // 30k * ~150 B overflows the 512 KB zone threshold repeatedly, so the
  // LSM holds most of the keyspace: LSM hits and bloom probes happened.
  EXPECT_GT(snap.CounterValue("db.get_hit_lsm"), 0u);
  EXPECT_GT(snap.HistogramCount("get.lsm"), 0u);
  EXPECT_GT(snap.CounterValue("lsm.bloom_checks"), 0u);
  EXPECT_GE(snap.CounterValue("lsm.bloom_checks"),
            snap.CounterValue("lsm.bloom_negatives") +
                snap.CounterValue("lsm.bloom_false_positives"));

  // The read_breakdown report section mirrors the snapshot.
  JsonValue breakdown = bench::BenchReport::ReadBreakdownJson(snap);
  EXPECT_DOUBLE_EQ(static_cast<double>(gets),
                   breakdown.Get("gets")->number());
  EXPECT_DOUBLE_EQ(
      static_cast<double>(snap.CounterValue("db.get_miss")),
      breakdown.Get("miss")->number());
  ASSERT_NE(nullptr, breakdown.Get("bloom"));
  EXPECT_DOUBLE_EQ(
      static_cast<double>(snap.CounterValue("lsm.bloom_checks")),
      breakdown.Get("bloom")->Get("checks")->number());
  const JsonValue* stages = breakdown.Get("stages");
  ASSERT_NE(nullptr, stages);
  EXPECT_DOUBLE_EQ(static_cast<double>(gets),
                   stages->Get("get.memtable")->Get("count")->number());
  EXPECT_GT(stages->Get("get.lsm")->Get("avg_ns")->number(), 0.0);
}

TEST(JsonTest, RoundTrip) {
  JsonValue root = JsonValue::Object();
  root.Set("name", JsonValue::Str("x \"quoted\" \n"));
  root.Set("value", JsonValue::Number(3.5));
  root.Set("flag", JsonValue::Bool(true));
  root.Set("nothing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(1));
  arr.Append(JsonValue::Str("two"));
  root.Set("list", std::move(arr));

  for (int indent : {-1, 0, 2}) {
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::Parse(root.ToString(indent), &parsed).ok());
    EXPECT_EQ("x \"quoted\" \n", parsed.Get("name")->str());
    EXPECT_DOUBLE_EQ(3.5, parsed.Get("value")->number());
    EXPECT_TRUE(parsed.Get("flag")->bool_value());
    EXPECT_TRUE(parsed.Get("nothing")->is_null());
    ASSERT_EQ(2u, parsed.Get("list")->items().size());
    EXPECT_EQ("two", parsed.Get("list")->items()[1].str());
  }
}

TEST(BenchReportTest, SchemaRoundTripsThroughFile) {
  char dir_template[] = "/tmp/cachekv_report_XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(dir_template));
  ASSERT_EQ(0, setenv("CACHEKV_BENCH_OUT", dir_template, 1));

  bench::BenchReport report("figtest");
  bench::RunResult result;
  result.seconds = 2.0;
  result.ops = 1000;
  for (int i = 1; i <= 100; i++) {
    result.latency_ns.Add(i * 100.0);
  }
  JsonValue& entry = report.AddRun("CacheKV", result);
  entry.Set("threads", JsonValue::Number(4));
  ASSERT_TRUE(bench::BenchReport::Validate(report.root()).ok());
  ASSERT_TRUE(report.Write().ok());

  std::ifstream in(std::string(dir_template) + "/BENCH_figtest.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::Parse(buf.str(), &parsed).ok());
  ASSERT_TRUE(bench::BenchReport::Validate(parsed).ok());
  EXPECT_EQ("figtest", parsed.Get("figure")->str());
  const JsonValue& run = parsed.Get("runs")->items()[0];
  EXPECT_EQ("CacheKV", run.Get("name")->str());
  EXPECT_DOUBLE_EQ(0.5, run.Get("kops")->number());
  EXPECT_DOUBLE_EQ(4.0, run.Get("threads")->number());
  const JsonValue* lat = run.Get("latency_ns");
  ASSERT_NE(nullptr, lat);
  EXPECT_DOUBLE_EQ(100.0, lat->Get("count")->number());
  EXPECT_GT(lat->Get("p99")->number(), lat->Get("p50")->number());

  unsetenv("CACHEKV_BENCH_OUT");
  std::remove(
      (std::string(dir_template) + "/BENCH_figtest.json").c_str());
}

TEST(BenchReportTest, CreatesMissingOutputDirAndWritesTrace) {
  char dir_template[] = "/tmp/cachekv_report_XXXXXX";
  ASSERT_NE(nullptr, mkdtemp(dir_template));
  // Point at a directory that does not exist yet: Write() must create
  // the whole chain.
  std::string out_dir = std::string(dir_template) + "/nested/out";
  ASSERT_EQ(0, setenv("CACHEKV_BENCH_OUT", out_dir.c_str(), 1));

  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions db_opts = SmallDb();
  db_opts.trace_enabled = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, db_opts, false, &db).ok());
  std::string got;
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(db->WaitIdle().ok());
  ASSERT_TRUE(db->Get("key1", &got).ok());

  bench::BenchReport report("figtrace");
  bench::RunResult result;
  result.seconds = 1.0;
  result.ops = 5001;
  report.AddRun("CacheKV", result);
  EXPECT_FALSE(report.HasTrace());
  report.AttachTrace("fill", db.get());
  EXPECT_TRUE(report.HasTrace());
  ASSERT_TRUE(report.Write().ok());

  std::ifstream trace_in(out_dir + "/TRACE_figtrace.json");
  ASSERT_TRUE(trace_in.good());
  std::stringstream buf;
  buf << trace_in.rdbuf();
  JsonValue trace;
  ASSERT_TRUE(JsonValue::Parse(buf.str(), &trace).ok());
  ASSERT_TRUE(trace.is_array());
  // The run's process metadata and at least one pipeline event made it.
  bool saw_process = false, saw_event = false;
  for (const JsonValue& ev : trace.items()) {
    const std::string& name = ev.Get("name")->str();
    if (name == "process_name" &&
        ev.Get("args")->Get("name")->str() == "CacheKV/fill") {
      saw_process = true;
    }
    if (name == "flush.copy" || name == "seal" || name == "get") {
      saw_event = true;
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_event);

  std::ifstream bench_in(out_dir + "/BENCH_figtrace.json");
  EXPECT_TRUE(bench_in.good());

  unsetenv("CACHEKV_BENCH_OUT");
  std::remove((out_dir + "/BENCH_figtrace.json").c_str());
  std::remove((out_dir + "/TRACE_figtrace.json").c_str());
}

TEST(BenchReportTest, ValidateRejectsMalformedReports) {
  EXPECT_FALSE(bench::BenchReport::Validate(JsonValue::Array()).ok());
  JsonValue no_runs = JsonValue::Object();
  no_runs.Set("figure", JsonValue::Str("f"));
  EXPECT_FALSE(bench::BenchReport::Validate(no_runs).ok());
  JsonValue bad_run = JsonValue::Object();
  bad_run.Set("figure", JsonValue::Str("f"));
  JsonValue runs = JsonValue::Array();
  JsonValue entry = JsonValue::Object();
  entry.Set("name", JsonValue::Str("x"));  // missing kops/seconds/ops
  runs.Append(std::move(entry));
  bad_run.Set("runs", std::move(runs));
  EXPECT_FALSE(bench::BenchReport::Validate(bad_run).ok());
}

}  // namespace
}  // namespace cachekv
