#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>

#include "baselines/novelsm.h"
#include "baselines/slmdb.h"
#include "pmem/pmem_env.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions BaselineEnv(uint64_t cat_bytes = 0) {
  EnvOptions o;
  o.pmem_capacity = 512ull << 20;
  o.llc_capacity = 36ull << 20;
  o.cat_locked_bytes = cat_bytes;
  o.latency.scale = 0;
  return o;
}

NoveLsmOptions SmallNovelsm(BaselineVariant v) {
  NoveLsmOptions o;
  o.variant = v;
  o.pmem_memtable_bytes = 2ull << 20;
  o.segment_bytes = 512ull << 10;
  o.lsm.l0_compaction_trigger = 3;
  o.lsm.base_level_bytes = 4ull << 20;
  o.lsm.target_file_size = 1ull << 20;
  return o;
}

SlmDbOptions SmallSlmdb(BaselineVariant v) {
  SlmDbOptions o;
  o.variant = v;
  o.pmem_memtable_bytes = 2ull << 20;
  o.segment_bytes = 512ull << 10;
  o.bptree_bytes = 64ull << 20;
  o.chunk_bytes = 1ull << 20;
  return o;
}

// The same behavioural suite runs against every (engine, variant)
// combination -- the engines must agree on semantics regardless of how
// they persist.
struct StoreSpec {
  std::string name;
  int engine;  // 0 = NoveLSM, 1 = SLM-DB
  BaselineVariant variant;
};

class BaselineStoreTest : public ::testing::TestWithParam<StoreSpec> {
 protected:
  void SetUp() override {
    const StoreSpec& spec = GetParam();
    uint64_t cat = spec.variant == BaselineVariant::kCachePinned
                       ? (512ull << 10)
                       : 0;
    env_ = std::make_unique<PmemEnv>(BaselineEnv(cat));
    if (spec.engine == 0) {
      std::unique_ptr<NoveLsmStore> s;
      ASSERT_TRUE(
          NoveLsmStore::Open(env_.get(), SmallNovelsm(spec.variant), &s)
              .ok());
      store_ = std::move(s);
    } else {
      std::unique_ptr<SlmDbStore> s;
      ASSERT_TRUE(
          SlmDbStore::Open(env_.get(), SmallSlmdb(spec.variant), &s).ok());
      store_ = std::move(s);
    }
  }

  void TearDown() override {
    store_.reset();
    env_.reset();
  }

  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(BaselineStoreTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put("key", "value").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("key", &value).ok());
  EXPECT_EQ("value", value);
  ASSERT_TRUE(store_->Delete("key").ok());
  EXPECT_TRUE(store_->Get("key", &value).IsNotFound());
  EXPECT_TRUE(store_->Get("missing", &value).IsNotFound());
}

TEST_P(BaselineStoreTest, OverwriteLatestWins) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store_->Put("k", Cat("v", i)).ok());
  }
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ("v9", value);
}

TEST_P(BaselineStoreTest, ModelCheckThroughMemtableSeals) {
  // Enough data to force several memtable seals and background flushes.
  std::map<std::string, std::string> model;
  Random rng(31);
  for (int i = 0; i < 30000; i++) {
    std::string k = "key" + std::to_string(rng.Uniform(4000));
    if (rng.OneIn(8)) {
      ASSERT_TRUE(store_->Delete(k).ok());
      model.erase(k);
    } else {
      std::string v = "value" + std::to_string(i);
      ASSERT_TRUE(store_->Put(k, v).ok());
      model[k] = v;
    }
  }
  ASSERT_TRUE(store_->WaitIdle().ok());
  int checked = 0;
  for (int i = 0; i < 4000; i++) {
    std::string k = "key" + std::to_string(i);
    std::string value;
    Status s = store_->Get(k, &value);
    auto it = model.find(k);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << k << " -> " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << k << " -> " << s.ToString();
      EXPECT_EQ(it->second, value);
      checked++;
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST_P(BaselineStoreTest, ConcurrentWritersDistinctRanges) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string k = Cat("t", t, "-", i);
        if (!store_->Put(k, Cat("v", i)).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(0, errors.load());
  ASSERT_TRUE(store_->WaitIdle().ok());
  Random rng(5);
  for (int probe = 0; probe < 2000; probe++) {
    int t = rng.Uniform(kThreads);
    int i = rng.Uniform(kPerThread);
    std::string k = Cat("t", t, "-", i);
    std::string value;
    ASSERT_TRUE(store_->Get(k, &value).ok()) << k;
    EXPECT_EQ(Cat("v", i), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAndVariants, BaselineStoreTest,
    ::testing::Values(
        StoreSpec{"novelsm_raw", 0, BaselineVariant::kRaw},
        StoreSpec{"novelsm_noflush", 0, BaselineVariant::kNoFlush},
        StoreSpec{"novelsm_cache", 0, BaselineVariant::kCachePinned},
        StoreSpec{"slmdb_raw", 1, BaselineVariant::kRaw},
        StoreSpec{"slmdb_noflush", 1, BaselineVariant::kNoFlush},
        StoreSpec{"slmdb_cache", 1, BaselineVariant::kCachePinned}),
    [](const ::testing::TestParamInfo<StoreSpec>& info) {
      return info.param.name;
    });

TEST(BaselineBehaviourTest, RawVariantIssuesFlushes) {
  PmemEnv env(BaselineEnv());
  std::unique_ptr<NoveLsmStore> store;
  ASSERT_TRUE(
      NoveLsmStore::Open(&env, SmallNovelsm(BaselineVariant::kRaw), &store)
          .ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), "value").ok());
  }
  EXPECT_GT(env.cache()->stats().clwb_lines.load(), 1000u);
  EXPECT_GT(env.cache()->stats().fences.load(), 1000u);
}

TEST(BaselineBehaviourTest, NoFlushVariantIssuesNone) {
  PmemEnv env(BaselineEnv());
  std::unique_ptr<NoveLsmStore> store;
  ASSERT_TRUE(NoveLsmStore::Open(
                  &env, SmallNovelsm(BaselineVariant::kNoFlush), &store)
                  .ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), "value").ok());
  }
  EXPECT_EQ(0u, env.cache()->stats().clwb_lines.load());
}

TEST(BaselineBehaviourTest, WriteHitRatioDropsWithoutFlushes) {
  // Observation Ob1 at unit-test scale: the raw variant's ordered flushes
  // combine better in the XPBuffer than LRU-driven evictions.
  double hit_ratio[2];
  for (int variant = 0; variant < 2; variant++) {
    EnvOptions eo = BaselineEnv();
    eo.llc_capacity = 1ull << 20;  // small cache so evictions happen
    PmemEnv env(eo);
    std::unique_ptr<NoveLsmStore> store;
    NoveLsmOptions opts = SmallNovelsm(variant == 0
                                           ? BaselineVariant::kRaw
                                           : BaselineVariant::kNoFlush);
    ASSERT_TRUE(NoveLsmStore::Open(&env, opts, &store).ok());
    Random rng(7);
    std::string value(64, 'v');
    for (int i = 0; i < 20000; i++) {
      ASSERT_TRUE(store
                      ->Put("key" + std::to_string(rng.Uniform(100000)),
                            value)
                      .ok());
    }
    env.cache()->WritebackAll();
    hit_ratio[variant] = env.device()->counters().WriteHitRatio();
  }
  EXPECT_GT(hit_ratio[0], hit_ratio[1])
      << "raw=" << hit_ratio[0] << " noflush=" << hit_ratio[1];
}

TEST(BaselineBehaviourTest, ProfilerAccountsLockAndIndex) {
  PmemEnv env(BaselineEnv());
  std::unique_ptr<NoveLsmStore> store;
  ASSERT_TRUE(
      NoveLsmStore::Open(&env, SmallNovelsm(BaselineVariant::kRaw), &store)
          .ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; i++) {
        store->Put(Cat("t", t, "k", i), "value");
      }
    });
  }
  for (auto& th : threads) th.join();
  WriteProfiler* prof = store->profiler();
  EXPECT_EQ(8000u, prof->ops.load());
  EXPECT_GT(prof->total_ns.load(), 0u);
  EXPECT_GT(prof->index_update_ns.load(), 0u);
  EXPECT_GT(prof->lock_wait_ns.load(), 0u);
  double sum = prof->LockFraction() + prof->IndexFraction() +
               prof->AppendFraction() + prof->OtherFraction();
  EXPECT_NEAR(1.0, sum, 0.01);
}

TEST(BaselineBehaviourTest, SlmDbGarbageCollectionReclaims) {
  PmemEnv env(BaselineEnv());
  std::unique_ptr<SlmDbStore> store;
  SlmDbOptions opts = SmallSlmdb(BaselineVariant::kNoFlush);
  opts.chunk_bytes = 256ull << 10;
  opts.gc_garbage_ratio = 0.3;
  ASSERT_TRUE(SlmDbStore::Open(&env, opts, &store).ok());
  // Overwrite a small keyspace many times: most chunk bytes become
  // garbage and must be collected.
  std::string value(200, 'g');
  for (int round = 0; round < 40; round++) {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(store->Put("key" + std::to_string(i), value).ok());
    }
    ASSERT_TRUE(store->WaitIdle().ok());
  }
  uint64_t data = store->DataBytes();
  uint64_t garbage = store->GarbageBytes();
  EXPECT_LT(static_cast<double>(garbage) / data, 0.9)
      << "GC never reclaimed: data=" << data << " garbage=" << garbage;
  // All keys still readable after GC.
  for (int i = 0; i < 2000; i += 37) {
    std::string v;
    ASSERT_TRUE(store->Get("key" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(value, v);
  }
}

TEST(BaselineBehaviourTest, CachePinnedKeepsActiveSegmentResident) {
  PmemEnv env(BaselineEnv(512ull << 10));
  std::unique_ptr<NoveLsmStore> store;
  ASSERT_TRUE(NoveLsmStore::Open(
                  &env, SmallNovelsm(BaselineVariant::kCachePinned),
                  &store)
                  .ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i),
                           std::string(64, 'p'))
                    .ok());
  }
  // The active segment holds the recent inserts entirely in cache.
  EXPECT_GT(env.cache()->LockedResidentLines(), 100u);
}

}  // namespace
}  // namespace cachekv
