// Deterministic crash sweep over every registered fail point: for each
// point, run a workload with the point armed, crash, reopen with
// recovery, and check the recovered state against a shadow std::map of
// the acknowledged writes. Plus the read-only degradation and
// foreground-propagation regression tests (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/db.h"
#include "fault/fail_point.h"
#include "pmem/pmem_env.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions SweepEnv(uint64_t pool_bytes) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

// Small tables and low thresholds so a modest workload exercises every
// stage: seals, copy-flushes, zone registry writes, zone-to-L0 flushes,
// inline compactions, and manifest installs.
CacheKVOptions SweepDb() {
  CacheKVOptions o;
  o.pool_bytes = 1ull << 20;
  o.sub_memtable_bytes = 128ull << 10;
  o.min_sub_memtable_bytes = 64ull << 10;
  o.num_cores = 2;
  o.sync_write_threshold = 16;
  o.imm_zone_flush_threshold = 96ull << 10;
  o.bg_backoff_base_ms = 1;
  o.bg_backoff_max_ms = 4;
  o.write_stall_timeout_ms = 2000;
  o.lsm.l0_compaction_trigger = 2;
  o.lsm.base_level_bytes = 256ull << 10;
  o.lsm.target_file_size = 64ull << 10;
  o.lsm.background_compaction = false;
  // Separation threshold between the two ValueOf sizes + small segments,
  // with a collector thread in RunCase, so the sweep workload exercises
  // the full value-log path: appends, rollover, and concurrent GC.
  o.value_separation_threshold = 512;
  o.vlog_segment_bytes = 64ull << 10;
  o.vlog_gc_interval_ms = 5;
  return o;
}

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::string ValueOf(int i, int round) {
  // Every 5th value crosses the separation threshold (512) and lands in
  // the value log; the rest stay inline so the memory component still
  // fills, seals, and compacts at the same pace as before separation.
  const int fill = (i % 5 == 0) ? 800 : 200;
  return "value-" + std::to_string(round) + "-" + std::to_string(i) +
         std::string(fill, 'v');
}

// How the sweep verifies recovery for a given point.
enum class Verify {
  kStrict,    // every acknowledged write must read back exactly
  kLenient,   // media damage: no crash, but values/opens may be corrupt
  kRecovery,  // the point fires during reopen, not during the workload
};

struct SweepCase {
  const char* point;
  const char* spec;
  Verify verify;
};

// One entry per builtin fail point (FailPointRegistry::BuiltinPoints()).
// `once,error` cases are absorbed by the retry machinery, so recovery
// must be exact. `always,torn` cases exhaust the retries (the same A/B
// slot is re-torn on every attempt), degrade the store to read-only, and
// still must recover every acknowledged write — from the sealed pool
// tables and the surviving registry/manifest slot.
const SweepCase kSweep[] = {
    {"pmem.alloc", "once,error:oom", Verify::kStrict},
    {"pmem.reserve", "once,error:io", Verify::kRecovery},
    {"pmem.media.bitrot", "once,bitrot", Verify::kLenient},
    {"pmem.media.read", "every:64,bitrot", Verify::kLenient},
    {"flush.copy", "once,error:io", Verify::kStrict},
    {"flush.copy.publish", "once,error:io", Verify::kStrict},
    {"flush.zone_to_l0", "once,error:io", Verify::kStrict},
    {"zone.persist", "always,torn", Verify::kStrict},
    {"zone.drop", "once,error:busy", Verify::kStrict},
    {"zone.recover", "once,error:io", Verify::kRecovery},
    {"index.sync", "once,error:io", Verify::kStrict},
    {"lsm.write_l0", "once,error:io", Verify::kStrict},
    {"lsm.compact", "once,error:io", Verify::kStrict},
    {"lsm.manifest", "always,torn", Verify::kStrict},
    // A torn vlog append fails the Put (never acked) and leaves a
    // partial frame the next append overwrites; recovery truncates at
    // the damage, so every acknowledged pointer still resolves.
    {"vlog.append.torn", "every:16,torn", Verify::kStrict},
    // An aborted GC pass keeps the victim segment; nothing is lost.
    {"vlog.gc.drop", "once,error:busy", Verify::kStrict},
    // Flipped payload bits must surface as a detected CRC error on
    // read, never as silently wrong bytes.
    {"vlog.read.bitrot", "every:8,bitrot", Verify::kLenient},
};

class FaultCrashSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { reg()->DisableAll(); }
  fault::FailPointRegistry* reg() {
    return fault::FailPointRegistry::Global();
  }

  void RunCase(const SweepCase& c) {
    SCOPED_TRACE(std::string("fail point ") + c.point + "=" + c.spec);
    reg()->DisableAll();
    reg()->SetSeed(0xDEADBEEF);
    CacheKVOptions opts = SweepDb();
    auto env = std::make_unique<PmemEnv>(SweepEnv(opts.pool_bytes));
    std::map<std::string, std::string> shadow;

    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());
      // The device never fills, so a collector thread stands in for
      // space pressure: each segment is collected soon after it seals.
      GcCollectorThread collector(db->vlog_gc(),
                                  std::chrono::milliseconds(5));

      // Phase A: a clean prefix, so the store has sealed tables, zone
      // entries, and L0 files before the fault arms.
      WritePhase(db.get(), &shadow, 0, 600, 0);
      if (c.verify != Verify::kRecovery) {
        ASSERT_TRUE(reg()->Enable(c.point, c.spec).ok());
      }
      // Phase B: workload with the point armed. Only acknowledged
      // writes enter the shadow map; errors (including read-only and
      // write-stall degradation) are tolerated.
      WritePhase(db.get(), &shadow, 400, 1400, 1);
      // Read pass with the fault still armed: exercises value-pointer
      // resolution (and the vlog read fail point). Errors from damaged
      // media are tolerated; silent wrong bytes are not.
      for (int i = 0; i < 256; i++) {
        const std::string key = KeyOf(i);
        std::string got;
        Status rs = db->Get(key, &got);
        auto it = shadow.find(key);
        if (rs.ok() && it != shadow.end() &&
            c.verify == Verify::kStrict) {
          ASSERT_EQ(it->second, got) << "wrong live value for " << key;
        }
      }
      db->WaitIdle();  // drain or degrade; either outcome is fine
      if (c.verify != Verify::kRecovery) {
        EXPECT_GE(reg()->FireCount(c.point), 1u)
            << c.point << " never fired during the workload";
      }
      // The DB is destroyed with the point still armed: background
      // threads may be mid-retry, which is exactly the crash we want.
    }

    env->SimulateCrash();

    if (c.verify == Verify::kRecovery) {
      // Arm the point so it fires during the recovery itself: the first
      // reopen attempt must fail cleanly, and a second crash + clean
      // reopen must succeed.
      ASSERT_TRUE(reg()->Enable(c.point, c.spec).ok());
      std::unique_ptr<DB> failed;
      Status s = DB::Open(env.get(), opts, true, &failed);
      EXPECT_FALSE(s.ok()) << c.point << " did not fire during recovery";
      EXPECT_GE(reg()->FireCount(c.point), 1u);
      reg()->DisableAll();
      // The failed attempt consumed allocator reservations; reset them.
      env->SimulateCrash();
    } else {
      reg()->DisableAll();
    }

    std::unique_ptr<DB> db;
    Status open = DB::Open(env.get(), opts, true, &db);
    if (c.verify == Verify::kLenient) {
      // Media damage may surface as a detected error at open (usually a
      // CRC-mismatch corruption); it must never surface as a crash or an
      // undetected bad registry. A clean failure ends the case.
      if (!open.ok()) {
        return;
      }
    } else {
      ASSERT_TRUE(open.ok()) << open.ToString();
    }

    for (const auto& [key, value] : shadow) {
      std::string got;
      Status s = db->Get(key, &got);
      if (c.verify == Verify::kLenient) {
        // A flipped bit may lose or damage individual records, but reads
        // must stay well-defined.
        continue;
      }
      ASSERT_TRUE(s.ok()) << "lost acknowledged key " << key << ": "
                          << s.ToString();
      ASSERT_EQ(value, got) << "wrong value for " << key;
    }
  }

  // Writes [begin, end); deletes every 10th key. Records acknowledged
  // operations in the shadow map.
  static void WritePhase(DB* db, std::map<std::string, std::string>* shadow,
                         int begin, int end, int round) {
    for (int i = begin; i < end; i++) {
      const std::string key = KeyOf(i);
      if (i % 10 == 9) {
        if (db->Delete(key).ok()) {
          shadow->erase(key);
        }
      } else {
        const std::string value = ValueOf(i, round);
        if (db->Put(key, value).ok()) {
          (*shadow)[key] = value;
        }
      }
    }
  }
};

TEST_F(FaultCrashSweepTest, EveryBuiltinPointIsSwept) {
  // The sweep table must cover the full builtin list — adding a new fail
  // point without a sweep entry is a test failure.
  const auto& builtins = fault::FailPointRegistry::BuiltinPoints();
  EXPECT_GE(builtins.size(), 10u);
  for (const std::string& name : builtins) {
    bool covered = false;
    for (const SweepCase& c : kSweep) {
      if (name == c.point) covered = true;
    }
    EXPECT_TRUE(covered) << "no sweep case for fail point " << name;
  }
}

TEST_F(FaultCrashSweepTest, CrashAtEachFailPointRecoversShadowState) {
  for (const SweepCase& c : kSweep) {
    RunCase(c);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST_F(FaultCrashSweepTest, ExhaustedFlushRetriesFlipReadOnly) {
  reg()->DisableAll();
  CacheKVOptions opts = SweepDb();
  opts.max_bg_retries = 2;
  auto env = std::make_unique<PmemEnv>(SweepEnv(opts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());

  ASSERT_TRUE(db->Put("stable", "value").ok());
  ASSERT_TRUE(reg()->Enable("flush.copy", "always,error:io").ok());

  // Write until a seal pushes work at the (now failing) flusher, then
  // wait for the retry budget to exhaust.
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 4000 && !db->IsReadOnly(); i++) {
    std::string key = KeyOf(i);
    std::string value = ValueOf(i, 7);
    if (db->Put(key, value).ok()) {
      acked[key] = value;
    }
  }
  for (int waited = 0; waited < 5000 && !db->IsReadOnly(); waited++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(db->IsReadOnly()) << "flush failure never degraded the DB";

  // Satellite regression: the background error propagates to every
  // foreground write path instead of silently accepting data.
  Status put = db->Put("after-degrade", "x");
  ASSERT_FALSE(put.ok());
  EXPECT_TRUE(put.IsIOError()) << put.ToString();
  EXPECT_NE(std::string::npos, put.ToString().find("read-only"));
  EXPECT_FALSE(db->Delete("stable").ok());
  std::vector<DB::BatchOp> batch(1);
  batch[0].key = "batch-key";
  batch[0].value = "batch-value";
  EXPECT_FALSE(db->ApplyBatch(batch).ok());

  Status bg = db->BackgroundError();
  EXPECT_TRUE(bg.IsIOError()) << bg.ToString();
  EXPECT_GE(db->CounterValue("bg.retries"), 1u);
  EXPECT_GE(db->CounterValue("bg.retry_exhausted"), 1u);
  EXPECT_EQ(1.0, db->metrics()->GetGauge("db.read_only")->Value());
  EXPECT_TRUE(db->WaitIdle().IsIOError());

  // Reads still serve: sealed tables stay live in the pool.
  std::string got;
  EXPECT_TRUE(db->Get("stable", &got).ok());
  EXPECT_EQ("value", got);
  for (const auto& [key, value] : acked) {
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got);
  }

  // And after a crash, every acknowledged write survives: read-only mode
  // never dropped acknowledged data.
  reg()->DisableAll();
  db.reset();
  env->SimulateCrash();
  ASSERT_TRUE(DB::Open(env.get(), opts, true, &db).ok());
  EXPECT_FALSE(db->IsReadOnly());
  for (const auto& [key, value] : acked) {
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got);
  }
  ASSERT_TRUE(db->Put("writable-again", "yes").ok());
}

TEST_F(FaultCrashSweepTest, WriteStallFailsPutsWhileFlushersAreStuck) {
  reg()->DisableAll();
  CacheKVOptions opts = SweepDb();
  // A large retry budget with long backoff keeps the flusher stuck (not
  // yet read-only) long enough for the stall path to trigger.
  opts.max_bg_retries = 1000000;
  opts.bg_backoff_base_ms = 50;
  opts.bg_backoff_max_ms = 50;
  opts.write_stall_timeout_ms = 100;
  auto env = std::make_unique<PmemEnv>(SweepEnv(opts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());
  ASSERT_TRUE(reg()->Enable("flush.copy", "always,error:io").ok());

  // Fill the pool; once no table can be recycled the Put must fail with
  // Busy after the stall timeout instead of hanging.
  Status s;
  for (int i = 0; i < 20000; i++) {
    s = db->Put(KeyOf(i), ValueOf(i, 3));
    if (!s.ok()) break;
  }
  ASSERT_FALSE(s.ok()) << "writes never stalled";
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_GE(db->CounterValue("db.write_stalls"), 1u);
  // Unstick the flusher so shutdown is prompt.
  reg()->DisableAll();
}

}  // namespace
}  // namespace cachekv
