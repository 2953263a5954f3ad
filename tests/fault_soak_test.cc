// Randomized fault-schedule soak: several writer threads run against a
// store whose background stages fail probabilistically (seeded, so every
// run of this binary sees the same schedule). After the storm, crash and
// recover, then verify that no acknowledged write was lost — the core
// durability contract of docs/ROBUSTNESS.md.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "fault/fail_point.h"
#include "pmem/pmem_env.h"
#include "test_util.h"

namespace cachekv {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 3000;

EnvOptions SoakEnv(uint64_t pool_bytes) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

CacheKVOptions SoakDb() {
  CacheKVOptions o;
  o.pool_bytes = 2ull << 20;
  o.sub_memtable_bytes = 128ull << 10;
  o.min_sub_memtable_bytes = 64ull << 10;
  o.num_cores = kThreads;
  o.num_flush_threads = 2;
  o.sync_write_threshold = 16;
  o.imm_zone_flush_threshold = 128ull << 10;
  // A generous retry budget: the soak wants the store to keep absorbing
  // transient faults, not to degrade.
  o.max_bg_retries = 1000;
  o.bg_backoff_base_ms = 1;
  o.bg_backoff_max_ms = 2;
  o.write_stall_timeout_ms = 10000;
  o.lsm.l0_compaction_trigger = 2;
  o.lsm.base_level_bytes = 512ull << 10;
  o.lsm.target_file_size = 128ull << 10;
  o.lsm.background_compaction = false;
  return o;
}

TEST(FaultSoakTest, AcknowledgedWritesSurviveProbabilisticFaultStorm) {
  auto* reg = fault::FailPointRegistry::Global();
  reg->DisableAll();
  reg->SetSeed(20260806);

  CacheKVOptions opts = SoakDb();
  auto env = std::make_unique<PmemEnv>(SoakEnv(opts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());

  // Probabilistic error and delay points only — no torn/bitrot actions,
  // which damage data by design and are covered by the crash sweep.
  ASSERT_TRUE(reg->EnableFromSpecList(
                     "flush.copy=p:0.05,error:io;"
                     "flush.copy.publish=p:0.05,error:busy;"
                     "flush.zone_to_l0=p:0.1,error:io;"
                     "zone.persist=p:0.05,error:io;"
                     "zone.drop=p:0.05,error:busy;"
                     "index.sync=p:0.05,error:io;"
                     "lsm.write_l0=p:0.1,error:io;"
                     "lsm.compact=p:0.1,error:io;"
                     "pmem.alloc=p:0.02,error:oom")
                  .ok());

  // Per-thread disjoint key spaces; each thread records only the writes
  // the store acknowledged.
  std::vector<std::map<std::string, std::string>> acked(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        char key[32];
        snprintf(key, sizeof(key), "t%d-key%06d", t, i % 1000);
        std::string value = Cat("t", t, "-v", i, std::string(120, 's'));
        if (i % 13 == 12) {
          if (db->Delete(key).ok()) {
            acked[t].erase(key);
          }
        } else if (db->Put(key, value).ok()) {
          acked[t][key] = value;
        }
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }

  // The store must have absorbed the storm without degrading: the retry
  // budget is effectively unlimited and every injected error transient.
  EXPECT_FALSE(db->IsReadOnly()) << db->BackgroundError().ToString();
  EXPECT_GE(db->CounterValue("bg.retries"), 1u)
      << "the schedule never exercised a retry";

  // Crash with the points still armed, then recover cleanly.
  db.reset();
  reg->DisableAll();
  env->SimulateCrash();
  ASSERT_TRUE(DB::Open(env.get(), opts, true, &db).ok());

  size_t verified = 0;
  for (int t = 0; t < kThreads; t++) {
    for (const auto& [key, value] : acked[t]) {
      std::string got;
      Status s = db->Get(key, &got);
      ASSERT_TRUE(s.ok()) << "lost acknowledged key " << key << ": "
                          << s.ToString();
      ASSERT_EQ(value, got) << "wrong value for " << key;
      verified++;
    }
  }
  ASSERT_GE(verified, static_cast<size_t>(kThreads) * 100);
}

}  // namespace
}  // namespace cachekv
