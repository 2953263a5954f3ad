// Value-log subsystem tests: record framing, crash recovery with a torn
// tail, oldest-first GC driven by space pressure and judged by lookup,
// and the DB-level separation threshold boundary (docs/ARCHITECTURE.md
// "Value path").

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "fault/fail_point.h"
#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "vlog/value_log.h"
#include "vlog/value_pointer.h"
#include "vlog/vlog_gc.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions VlogEnv() {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.latency.scale = 0;
  return o;
}

std::unique_ptr<ValueLog> MakeLog(PmemEnv* env, obs::MetricsRegistry* metrics,
                                  uint64_t segment_bytes) {
  return std::make_unique<ValueLog>(
      env, metrics, MetaLayout::VlogRegistryBase(env),
      MetaLayout::kVlogRegistrySlotSize, segment_bytes);
}

TEST(ValuePointerTest, EncodeDecodeRoundTrip) {
  ValuePointer in{7, 0xdeadbeefull, 4096};
  std::string buf;
  EncodeValuePointer(&buf, in);
  EXPECT_EQ(kValuePointerSize, buf.size());
  ValuePointer out;
  ASSERT_TRUE(DecodeValuePointer(Slice(buf), &out));
  EXPECT_EQ(in, out);
  EXPECT_FALSE(DecodeValuePointer(Slice(buf.data(), buf.size() - 1), &out));
}

TEST(ValueLogTest, AppendReadRoundTrip) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 1ull << 20);
  ASSERT_TRUE(vlog->Format().ok());

  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 100; i++) {
    ValuePointer ptr;
    std::string value = "value-" + std::to_string(i) + std::string(300, 'v');
    ASSERT_TRUE(
        vlog->Append(100 + i, Slice("key" + std::to_string(i)), Slice(value),
                     &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  EXPECT_EQ(199u, vlog->MaxSequence());
  for (int i = 0; i < 100; i++) {
    std::string got;
    ASSERT_TRUE(
        vlog->Read(ptrs[i], Slice("key" + std::to_string(i)), &got).ok());
    EXPECT_EQ("value-" + std::to_string(i) + std::string(300, 'v'), got);
  }
  // A pointer with a wrong length must fail loudly, not return bytes.
  ValuePointer bad = ptrs[0];
  bad.len += 1;
  std::string got;
  EXPECT_TRUE(vlog->Read(bad, Slice("key0"), &got).IsCorruption());
  // A valid frame under the wrong key must fail too: on a still-linked
  // segment this is a dangling pointer, and on a recycled region it is
  // another record's frame that happens to decode.
  EXPECT_TRUE(vlog->Read(ptrs[0], Slice("key1"), &got).IsCorruption());
}

TEST(ValueLogTest, RollsOverSegmentsAndReplaysRecords) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 16ull << 10);  // tiny segments
  ASSERT_TRUE(vlog->Format().ok());

  const std::string value(1000, 'x');
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 64; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        vlog->Append(1 + i, Slice(Cat("k", i)), Slice(value), &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  EXPECT_GT(vlog->NumSegments(), 2u);

  // ForEachRecord on a sealed segment yields records in append order
  // with pointers that resolve to the same bytes.
  int replayed = 0;
  ASSERT_TRUE(vlog
                  ->ForEachRecord(
                      ptrs[0].file_id,
                      [&](SequenceNumber seq, const Slice& /*key*/,
                          const Slice& v, const ValuePointer& ptr) {
                        EXPECT_EQ(value, v.ToString());
                        EXPECT_EQ(ptrs[0].file_id, ptr.file_id);
                        EXPECT_EQ(seq, static_cast<SequenceNumber>(replayed + 1));
                        replayed++;
                        return Status::OK();
                      })
                  .ok());
  EXPECT_GT(replayed, 0);
}

TEST(ValueLogTest, RecoveryReplaysTailAndTruncatesTornAppend) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  std::vector<ValuePointer> ptrs;
  const std::string value(500, 'y');
  {
    auto vlog = MakeLog(&env, &metrics, 64ull << 10);
    ASSERT_TRUE(vlog->Format().ok());
    for (int i = 0; i < 40; i++) {
      ValuePointer ptr;
      ASSERT_TRUE(vlog->Append(1 + i, Slice(Cat("k", i)),
                               Slice(value), &ptr)
                      .ok());
      ptrs.push_back(ptr);
    }
    // A torn append: the frame is cut mid-record and the head does not
    // advance, exactly as a crash mid-NtStore would leave the tail.
    auto* reg = fault::FailPointRegistry::Global();
    reg->DisableAll();
    reg->SetSeed(12345);
    ASSERT_TRUE(reg->Enable("vlog.append.torn", "once,torn").ok());
    ValuePointer torn_ptr;
    Status ts = vlog->Append(41, Slice("torn-key"), Slice(value), &torn_ptr);
    EXPECT_FALSE(ts.ok()) << "torn append must not ack";
    reg->DisableAll();
  }

  env.SimulateCrash();

  auto recovered = MakeLog(&env, &metrics, 64ull << 10);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(40u, recovered->MaxSequence());
  for (int i = 0; i < 40; i++) {
    std::string got;
    ASSERT_TRUE(
        recovered->Read(ptrs[i], Slice(Cat("k", i)), &got).ok())
        << "lost record " << i;
    EXPECT_EQ(value, got);
  }
  // The log stays appendable after truncation, reusing the torn tail.
  ValuePointer ptr;
  ASSERT_TRUE(recovered->Append(100, Slice("after"), Slice(value), &ptr).ok());
  std::string got;
  ASSERT_TRUE(recovered->Read(ptr, Slice("after"), &got).ok());
  EXPECT_EQ(value, got);
}

TEST(ValueLogTest, GcVictimsAreTheOldestSealedSegments) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 16ull << 10);
  ASSERT_TRUE(vlog->Format().ok());
  EXPECT_EQ(0u, vlog->OldestSealed()) << "an empty log has no victim";

  const std::string value(1000, 'z');
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 48; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        vlog->Append(1 + i, Slice(Cat("k", i)), Slice(value), &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  ASSERT_GT(vlog->NumSegments(), 2u);

  // Victims come in creation order, and the active segment is never one.
  const uint32_t active = ptrs.back().file_id;
  std::vector<uint32_t> order;
  for (uint32_t id = vlog->OldestSealed(); id != 0;
       id = vlog->OldestSealed(id)) {
    order.push_back(id);
  }
  std::vector<uint32_t> want;
  for (const ValuePointer& ptr : ptrs) {
    if (ptr.file_id != active &&
        (want.empty() || want.back() != ptr.file_id)) {
      want.push_back(ptr.file_id);
    }
  }
  EXPECT_EQ(want, order);

  // Unlinking the oldest makes the next one the victim, and the
  // unlinked segment's pointers turn into the retryable "recycled"
  // NotFound that sends a reader back to the index.
  ASSERT_TRUE(vlog->Unlink(want[0]).ok());
  EXPECT_EQ(want[1], vlog->OldestSealed());
  std::string got;
  Status s = vlog->Read(ptrs[0], Slice("k0"), &got);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("recycled"))
      << s.ToString();
}

// ---- DB-level integration ----

CacheKVOptions SepDb() {
  CacheKVOptions o;
  o.pool_bytes = 4ull << 20;
  o.sub_memtable_bytes = 512ull << 10;
  o.min_sub_memtable_bytes = 128ull << 10;
  o.imm_zone_flush_threshold = 1ull << 20;
  o.value_separation_threshold = 256;
  o.vlog_segment_bytes = 64ull << 10;
  o.vlog_gc_interval_ms = 5;
  o.lsm.background_compaction = false;
  return o;
}

EnvOptions SepEnv() {
  EnvOptions o;
  o.pmem_capacity = 512ull << 20;
  o.cat_locked_bytes = 4ull << 20;
  o.latency.scale = 0;
  return o;
}

TEST(VlogDbTest, ThresholdBoundarySplitsInlineFromSeparated) {
  PmemEnv env(SepEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, SepDb(), false, &db).ok());

  const std::string below(255, 'a');  // threshold - 1: stays inline
  const std::string at(256, 'b');     // == threshold: separated
  ASSERT_TRUE(db->Put("below", below).ok());
  ASSERT_TRUE(db->Put("at", at).ok());

  obs::MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_EQ(1u, snap.CounterValue("db.separated_puts"));
  EXPECT_EQ(1u, snap.CounterValue("vlog.appends"));

  std::string got;
  ASSERT_TRUE(db->Get("below", &got).ok());
  EXPECT_EQ(below, got);
  ASSERT_TRUE(db->Get("at", &got).ok());
  EXPECT_EQ(at, got);

  // Scans resolve pointers transparently and in key order.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(Slice(), 10, &rows).ok());
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ("at", rows[0].first);
  EXPECT_EQ(at, rows[0].second);
  EXPECT_EQ("below", rows[1].first);
  EXPECT_EQ(below, rows[1].second);
}

TEST(VlogDbTest, SeparatedValuesSurviveCrashRecovery) {
  auto env = std::make_unique<PmemEnv>(SepEnv());
  CacheKVOptions opts = SepDb();
  std::map<std::string, std::string> shadow;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());
    for (int i = 0; i < 500; i++) {
      std::string key = Cat("key", i % 200);
      std::string value = Cat("v", i, std::string(400, 'c'));
      ASSERT_TRUE(db->Put(key, value).ok());
      shadow[key] = value;
    }
  }
  env->SimulateCrash();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), opts, true, &db).ok());
  for (const auto& [key, value] : shadow) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << "lost " << key;
    ASSERT_EQ(value, got);
  }
  // New writes after recovery keep separating.
  ASSERT_TRUE(db->Put("fresh", std::string(1000, 'f')).ok());
  std::string got;
  ASSERT_TRUE(db->Get("fresh", &got).ok());
  EXPECT_EQ(std::string(1000, 'f'), got);
}

TEST(VlogDbTest, GcRewritesLiveValuesAndReclaimsSegments) {
  CacheKVOptions opts = SepDb();
  // Small tables and a low zone threshold, so the pointers GC probes
  // also move through flush and compaction.
  opts.pool_bytes = 1ull << 20;
  opts.sub_memtable_bytes = 128ull << 10;
  opts.min_sub_memtable_bytes = 64ull << 10;
  opts.imm_zone_flush_threshold = 96ull << 10;
  opts.lsm.l0_compaction_trigger = 2;
  opts.lsm.base_level_bytes = 256ull << 10;
  opts.lsm.target_file_size = 64ull << 10;
  EnvOptions eo = SepEnv();
  eo.cat_locked_bytes = opts.pool_bytes;
  // A 6 MiB heap: the ~5 MiB the workload appends to the value log push
  // free PMem below the GC thread's low-space mark.
  eo.pmem_capacity = opts.pool_bytes + eo.meta_area_bytes + (6ull << 20);
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  // Overwrite a small key set many times: once space runs low, GC
  // collects the oldest segments, finds the old versions dead by lookup,
  // and rewrites the survivors into fresh segments.
  std::map<std::string, std::string> model;
  for (int round = 0; round < 400; round++) {
    for (int i = 0; i < 40; i++) {
      std::string key = Cat("gckey", i);
      std::string value = Cat("r", round, std::string(300, 'g'));
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_TRUE(db->WaitIdle().ok());
  // Give the GC thread a few ticks to observe the space pressure.
  for (int waited = 0; waited < 2000; waited++) {
    obs::MetricsSnapshot snap = db->metrics()->Snapshot();
    if (snap.CounterValue("vlog.gc_unlinked") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_GT(snap.CounterValue("vlog.gc_unlinked"), 0u)
      << "GC never reclaimed a segment";

  // Every live key still reads its freshest value through GC churn.
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got);
  }
}

TEST(VlogDbTest, GcRelocationNeverRevivesAnOverwrittenValue) {
  // GC relocates live records while writers overwrite the same keys. A
  // relocation that committed its copy after a newer write to the key
  // would revive the old value. Each writer owns its keys, so the last
  // acknowledged value of every key is known.
  CacheKVOptions opts = SepDb();
  opts.pool_bytes = 1ull << 20;
  opts.sub_memtable_bytes = 128ull << 10;
  opts.min_sub_memtable_bytes = 64ull << 10;
  opts.num_cores = 4;
  opts.imm_zone_flush_threshold = 96ull << 10;
  opts.lsm.l0_compaction_trigger = 2;
  opts.lsm.base_level_bytes = 256ull << 10;
  opts.lsm.target_file_size = 64ull << 10;
  // Small segments: GC reaches the records of the newest sealed segment
  // before the writers overwrite them, even in a slow (TSan) build.
  opts.vlog_segment_bytes = 8ull << 10;
  EnvOptions eo = SepEnv();
  eo.cat_locked_bytes = opts.pool_bytes;
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 10;
  std::vector<std::map<std::string, std::string>> acked(kWriters);
  std::atomic<int> errors{0};
  std::atomic<int> revived{0};
  // Every sealed segment is collected soon after it seals, so GC keeps
  // relocating the live records that the writers overwrite.
  auto collector = std::make_unique<GcCollectorThread>(db->vlog_gc());
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      // Paced so that GC keeps up with the sealed segments and finds
      // them still partly live.
      for (int round = 0; round < 300; round++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (int k = 0; k < kKeysPerWriter; k++) {
          const std::string key = Cat("gcrace", w, "-", k);
          const std::string value = Cat("w", w, "r", round,
                                        std::string(300, 'r'));
          // The writer owns the key: until its next write, every read
          // must return its last acknowledged value.
          std::string got;
          if (round > 0 &&
              (!db->Get(key, &got).ok() || got != acked[w][key])) {
            revived.fetch_add(1);
          }
          if (db->Put(key, value).ok()) {
            acked[w][key] = value;
          } else {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  collector.reset();
  EXPECT_EQ(0, errors.load());
  EXPECT_EQ(0, revived.load()) << "a read returned an overwritten value";
  ASSERT_TRUE(db->WaitIdle().ok());
  EXPECT_GT(db->CounterValue("vlog.gc_rewrites"), 0u)
      << "GC relocated nothing; the test proves nothing";
  for (const auto& keys : acked) {
    for (const auto& [key, value] : keys) {
      std::string got;
      ASSERT_TRUE(db->Get(key, &got).ok()) << key;
      ASSERT_EQ(value, got) << key;
    }
  }
}

// An 8 MiB device with a 1 MiB pool and 256 KiB segments, for 16 KiB
// values: a few hundred puts put it under space pressure.
CacheKVOptions SmallDeviceDb() {
  CacheKVOptions opts = SepDb();
  opts.pool_bytes = 1ull << 20;
  opts.sub_memtable_bytes = 128ull << 10;
  opts.min_sub_memtable_bytes = 64ull << 10;
  opts.vlog_segment_bytes = 256ull << 10;
  return opts;
}

EnvOptions SmallDeviceEnv() {
  EnvOptions eo = SepEnv();
  eo.pmem_capacity = 8ull << 20;
  eo.cat_locked_bytes = SmallDeviceDb().pool_bytes;
  return eo;
}

constexpr size_t kBigValueBytes = 16 << 10;

std::string BigValue(uint64_t i) {
  std::string value = Cat("v", i, "-");
  value.resize(kBigValueBytes, static_cast<char>('a' + i % 26));
  return value;
}

TEST(VlogDbTest, OverwritingTenDevicesOfValuesReclaimsInsteadOfFailing) {
  // 16 KiB overwrites of a few keys, ten times the device's capacity.
  // Nothing reports which records died: space pressure alone must make
  // GC find them by lookup and give their segments back.
  const CacheKVOptions opts = SmallDeviceDb();
  const EnvOptions eo = SmallDeviceEnv();
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  constexpr int kKeys = 32;
  const uint64_t writes = 10 * eo.pmem_capacity / kBigValueBytes;
  std::vector<std::string> model(kKeys);
  std::string got;
  for (uint64_t i = 0; i < writes; i++) {
    const int k = static_cast<int>(i % kKeys);
    std::string value = BigValue(i);
    Status s = db->Put(Cat("big", k), value);
    ASSERT_TRUE(s.ok()) << "put " << i << " of " << writes << ": "
                        << s.ToString();
    model[k] = std::move(value);
    // Read back a key written a while ago: its record may sit in a
    // segment GC is collecting right now.
    const int probe = static_cast<int>((i * 7) % kKeys);
    if (!model[probe].empty()) {
      s = db->Get(Cat("big", probe), &got);
      ASSERT_TRUE(s.ok()) << "get after put " << i << ": " << s.ToString();
      ASSERT_EQ(model[probe], got) << "key big" << probe;
    }
  }
  EXPECT_GT(db->CounterValue("vlog.gc_unlinked"), 0u);
  for (int k = 0; k < kKeys; k++) {
    ASSERT_TRUE(db->Get(Cat("big", k), &got).ok()) << k;
    ASSERT_EQ(model[k], got) << k;
  }
}

TEST(VlogDbTest, LiveDataPastTheStallMarkNeitherStallsWritersNorChurnsGc) {
  // Distinct keys only: every record stays live, so GC can free nothing
  // however short of space the device gets. Writers must not wait for
  // it, and once a sweep has found only live records the thread must
  // stop rewriting them.
  const CacheKVOptions opts = SmallDeviceDb();
  PmemEnv env(SmallDeviceEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
  const PmemAllocator* space = env.allocator();

  int keys = 0;
  auto timed_put = [&] {
    const auto start = std::chrono::steady_clock::now();
    Status s = db->Put(Cat("live", keys), BigValue(keys));
    keys++;
    return s.ok() ? std::chrono::steady_clock::now() - start
                  : std::chrono::steady_clock::duration::max();
  };
  const auto timeout = std::chrono::milliseconds(opts.write_stall_timeout_ms);
  while (space->FreeBytes() >= space->size() / VlogGc::kStallDivisor) {
    ASSERT_LT(timed_put(), timeout) << keys;
  }
  // GC's first sweep finds nothing dead; no writer waits out its timeout
  // meanwhile, and the thread then settles...
  const auto settle = std::chrono::milliseconds(20 * opts.vlog_gc_interval_ms);
  uint64_t rewrites = db->CounterValue("vlog.gc_rewrites");
  for (int tries = 0; tries < 100; tries++) {
    std::this_thread::sleep_for(settle);
    const uint64_t now = db->CounterValue("vlog.gc_rewrites");
    if (now == rewrites) {
      break;
    }
    rewrites = now;
  }
  // ...rewrites no live record again while nothing is written...
  std::this_thread::sleep_for(3 * settle);
  EXPECT_EQ(rewrites, db->CounterValue("vlog.gc_rewrites"));
  // ...and lets writers past the mark run without waiting.
  const uint64_t waits = db->CounterValue("vlog.write_waits");
  for (int i = 0; i < 8; i++) {
    ASSERT_LT(timed_put(), timeout) << keys;
  }
  EXPECT_EQ(waits, db->CounterValue("vlog.write_waits"));
  // One sweep, plus a pass per segment written after it: never more
  // than the writers wrote.
  EXPECT_LE(db->CounterValue("vlog.gc_rewrite_bytes"),
            2 * keys * ValueLog::RecordFootprint(Cat("live", keys).size(),
                                                 kBigValueBytes));
  std::string got;
  for (int k = 0; k < keys; k++) {
    ASSERT_TRUE(db->Get(Cat("live", k), &got).ok()) << k;
    ASSERT_EQ(BigValue(k), got) << k;
  }
}

TEST(VlogDbTest, ColdSegmentsDoNotPaceReclaimOfHotOnes) {
  // Long-lived values first, then hot overwrites three times the
  // device's capacity. Every sweep meets the cold segments, whose
  // records are all live: collecting one frees nothing, but the thread
  // must go straight on to the hot segments behind it. The idle sleep
  // is a minute here, so a thread that took it, or napped through the
  // onset of pressure, would leave the writers out of space.
  CacheKVOptions opts = SmallDeviceDb();
  opts.vlog_gc_interval_ms = 60'000;
  opts.write_stall_timeout_ms = 1'000;
  const EnvOptions eo = SmallDeviceEnv();
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  constexpr int kCold = 48;  // three segments
  constexpr int kHot = 16;
  for (int k = 0; k < kCold; k++) {
    ASSERT_TRUE(db->Put(Cat("cold", k), BigValue(k)).ok()) << k;
  }
  const uint64_t writes = 3 * eo.pmem_capacity / kBigValueBytes;
  std::vector<std::string> hot(kHot);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < writes; i++) {
    const int k = static_cast<int>(i % kHot);
    hot[k] = BigValue(i);
    Status s = db->Put(Cat("hot", k), hot[k]);
    ASSERT_TRUE(s.ok()) << "put " << i << " of " << writes << ": "
                        << s.ToString();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(opts.vlog_gc_interval_ms / 2))
      << "hot phase took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
  EXPECT_GT(db->CounterValue("vlog.gc_unlinked"), 0u);
  std::string got;
  for (int k = 0; k < kCold; k++) {
    ASSERT_TRUE(db->Get(Cat("cold", k), &got).ok()) << k;
    ASSERT_EQ(BigValue(k), got) << k;
  }
  for (int k = 0; k < kHot; k++) {
    ASSERT_TRUE(db->Get(Cat("hot", k), &got).ok()) << k;
    ASSERT_EQ(hot[k], got) << k;
  }
}

TEST(VlogDbTest, GcReclaimsAnOrphanedAppendByLookup) {
  // A two-op batch whose second vlog append tears: the first op's record
  // is durable in the log, but the write fails and no pointer to it
  // ever commits. Nothing reports the orphan; collecting its segment
  // must find it dead by lookup and relocate nothing.
  CacheKVOptions opts = SepDb();
  opts.vlog_segment_bytes = 16ull << 10;
  PmemEnv env(SepEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  auto* reg = fault::FailPointRegistry::Global();
  reg->DisableAll();
  ASSERT_TRUE(reg->Enable("vlog.append.torn", "every:2,torn").ok());
  std::vector<DB::BatchOp> batch(2);
  batch[0].key = "orphan";
  batch[0].value = std::string(1000, 'o');
  batch[1].key = "torn";
  batch[1].value = std::string(1000, 't');
  EXPECT_FALSE(db->MultiPut(batch).ok());
  reg->DisableAll();
  std::string got;
  EXPECT_TRUE(db->Get("orphan", &got).IsNotFound());

  // Fill the orphan's segment until it seals, then delete the fillers,
  // so the segment holds no live record at all.
  ValueLog* vlog = db->vlog();
  for (int i = 0; vlog->OldestSealed() == 0; i++) {
    ASSERT_TRUE(db->Put(Cat("fill", i), std::string(1000, 'f')).ok());
  }
  const uint32_t victim = vlog->OldestSealed();
  std::vector<std::string> keys;
  ASSERT_TRUE(vlog
                  ->ForEachRecord(victim,
                                  [&](SequenceNumber, const Slice& key,
                                      const Slice&, const ValuePointer&) {
                                    keys.push_back(key.ToString());
                                    return Status::OK();
                                  })
                  .ok());
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ("orphan", keys[0]);
  for (size_t i = 1; i < keys.size(); i++) {
    ASSERT_TRUE(db->Delete(keys[i]).ok());
  }

  ASSERT_TRUE(db->vlog_gc()->CollectOnce().ok());
  EXPECT_EQ(1u, db->CounterValue("vlog.gc_unlinked"));
  EXPECT_EQ(0u, db->CounterValue("vlog.gc_rewrites"));
  EXPECT_NE(victim, vlog->OldestSealed());
  EXPECT_TRUE(db->Get("orphan", &got).IsNotFound());
}

TEST(VlogDbTest, PinOnTheOldestSegmentDoesNotBlockYoungerReclaim) {
  // A pin taken after the first writes keeps the oldest segment (its
  // records are what the pin reads). Every younger segment holds only
  // versions written after the pin, so GC must reclaim those around it.
  CacheKVOptions opts = SepDb();
  opts.vlog_segment_bytes = 16ull << 10;
  PmemEnv env(SepEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  constexpr int kKeys = 10;
  std::map<std::string, std::string> pinned_view, latest;
  for (int k = 0; k < kKeys; k++) {
    const std::string key = Cat("pin", k);
    pinned_view[key] = Cat("old", k, std::string(1000, 'o'));
    ASSERT_TRUE(db->Put(key, pinned_view[key]).ok());
  }
  const DB::Snapshot* snap = db->GetSnapshot();
  ASSERT_NE(nullptr, snap);
  ValueLog* vlog = db->vlog();
  for (int round = 0; round < 10; round++) {
    for (int k = 0; k < kKeys; k++) {
      const std::string key = Cat("pin", k);
      latest[key] = Cat("r", round, "-", k, std::string(1000, 'n'));
      ASSERT_TRUE(db->Put(key, latest[key]).ok());
    }
  }
  const uint32_t oldest = vlog->OldestSealed();
  std::vector<uint32_t> younger;
  for (uint32_t id = vlog->OldestSealed(oldest); id != 0;
       id = vlog->OldestSealed(id)) {
    younger.push_back(id);
  }
  ASSERT_GE(younger.size(), 3u);

  for (size_t i = 0; i < younger.size(); i++) {
    ASSERT_TRUE(db->vlog_gc()->CollectOnce().ok());
  }
  // Passes resume after the kept segment instead of re-examining it.
  EXPECT_EQ(1u, db->CounterValue("vlog.gc_deferrals"));
  EXPECT_GE(db->CounterValue("vlog.gc_unlinked"), younger.size());
  EXPECT_EQ(oldest, vlog->OldestSealed()) << "the pinned segment went";
  for (uint32_t id = vlog->OldestSealed(oldest); id != 0;
       id = vlog->OldestSealed(id)) {
    EXPECT_EQ(younger.end(), std::find(younger.begin(), younger.end(), id))
        << "segment " << id << " outlived its collection";
  }
  std::string got;
  for (const auto& [key, value] : pinned_view) {
    ASSERT_TRUE(db->GetAt(key, snap->sequence(), &got).ok()) << key;
    ASSERT_EQ(value, got) << key;
  }
  for (const auto& [key, value] : latest) {
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got) << key;
  }

  // Released, the pin no longer holds the oldest segment: it goes once
  // the passes have swept to the newest sealed segment and start over.
  db->ReleaseSnapshot(snap);
  for (size_t i = vlog->NumSegments(); i > 0 && vlog->OldestSealed() == oldest;
       i--) {
    ASSERT_TRUE(db->vlog_gc()->CollectOnce().ok());
  }
  EXPECT_NE(oldest, vlog->OldestSealed());
}

}  // namespace
}  // namespace cachekv
