#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "pmem/pmem_env.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions DbEnv() {
  EnvOptions o;
  o.pmem_capacity = 512ull << 20;
  o.cat_locked_bytes = 4ull << 20;
  o.latency.scale = 0;
  return o;
}

CacheKVOptions SmallDb() {
  CacheKVOptions o;
  o.pool_bytes = 4ull << 20;
  o.sub_memtable_bytes = 512ull << 10;
  o.min_sub_memtable_bytes = 128ull << 10;
  o.imm_zone_flush_threshold = 1ull << 20;
  return o;
}

class TxnScanTest : public ::testing::Test {
 protected:
  TxnScanTest() : env_(std::make_unique<PmemEnv>(DbEnv())) {
    EXPECT_TRUE(DB::Open(env_.get(), SmallDb(), false, &db_).ok());
  }

  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(TxnScanTest, MultiPutBasic) {
  std::vector<DB::BatchOp> batch = {
      {false, "account-a", "90"},
      {false, "account-b", "110"},
      {false, "txn-log", "transfer 10 a->b"},
  };
  ASSERT_TRUE(db_->MultiPut(batch).ok());
  std::string value;
  ASSERT_TRUE(db_->Get("account-a", &value).ok());
  EXPECT_EQ("90", value);
  ASSERT_TRUE(db_->Get("account-b", &value).ok());
  EXPECT_EQ("110", value);
}

TEST_F(TxnScanTest, MultiPutWithDeletes) {
  ASSERT_TRUE(db_->Put("old", "gone soon").ok());
  std::vector<DB::BatchOp> batch = {
      {false, "new", "here"},
      {true, "old", ""},
  };
  ASSERT_TRUE(db_->MultiPut(batch).ok());
  std::string value;
  ASSERT_TRUE(db_->Get("new", &value).ok());
  EXPECT_TRUE(db_->Get("old", &value).IsNotFound());
}

TEST_F(TxnScanTest, MultiPutValidation) {
  EXPECT_TRUE(db_->MultiPut({}).ok());
  EXPECT_TRUE(db_->MultiPut({{false, "", "v"}}).IsInvalidArgument());
  // Large values no longer overflow the batch bound: key-value
  // separation stores them in the value log and only 16-byte pointers
  // enter the sub-memtable.
  std::vector<DB::BatchOp> huge;
  for (int i = 0; i < 10; i++) {
    huge.push_back({false, Cat("k", i),
                    std::string(100 << 10, 'x')});
  }
  ASSERT_TRUE(db_->MultiPut(huge).ok());
  std::string value;
  ASSERT_TRUE(db_->Get("k7", &value).ok());
  EXPECT_EQ(std::string(100 << 10, 'x'), value);

  // With separation disabled the old sub-memtable bound still rejects.
  CacheKVOptions inline_opts = SmallDb();
  inline_opts.value_separation_threshold = 0;
  auto inline_env = std::make_unique<PmemEnv>(DbEnv());
  std::unique_ptr<DB> inline_db;
  ASSERT_TRUE(DB::Open(inline_env.get(), inline_opts, false, &inline_db).ok());
  EXPECT_TRUE(inline_db->MultiPut(huge).IsInvalidArgument());
}

TEST_F(TxnScanTest, MultiPutSurvivesCrashAtomically) {
  // Commit many transactions, crash, recover: every transaction must be
  // fully present (the single-CAS publication makes partial batches
  // impossible).
  const int kTxns = 2000;
  for (int t = 0; t < kTxns; t++) {
    std::vector<DB::BatchOp> batch;
    for (int j = 0; j < 3; j++) {
      batch.push_back({false, Cat("txn", t, "-", j), Cat("v", t)});
    }
    ASSERT_TRUE(db_->MultiPut(batch).ok());
  }
  db_.reset();
  env_->SimulateCrash();
  ASSERT_TRUE(DB::Open(env_.get(), SmallDb(), true, &db_).ok());
  Random rng(1);
  for (int probe = 0; probe < 500; probe++) {
    int t = rng.Uniform(kTxns);
    // All three members of the transaction must agree.
    for (int j = 0; j < 3; j++) {
      std::string value;
      ASSERT_TRUE(db_->Get(Cat("txn", t, "-", j), &value).ok())
          << t << "-" << j;
      EXPECT_EQ(Cat("v", t), value);
    }
  }
}

TEST_F(TxnScanTest, ScanEmptyStore) {
  std::unique_ptr<Iterator> iter(db_->NewScanIterator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TxnScanTest, ScanSeesAllComponents) {
  std::map<std::string, std::string> model;
  Random rng(9);
  // Enough data that some lives in the LSM, some in the zone, and some
  // in active sub-MemTables.
  const std::string filler(100, 'f');
  for (int i = 0; i < 30000; i++) {
    std::string k = "key" + std::to_string(rng.Uniform(3000));
    if (rng.OneIn(10)) {
      ASSERT_TRUE(db_->Delete(k).ok());
      model.erase(k);
    } else {
      std::string v = filler + std::to_string(i);
      ASSERT_TRUE(db_->Put(k, v).ok());
      model[k] = v;
    }
  }
  EXPECT_GT(db_->CounterValue("db.copy_flushes"), 0u);

  std::map<std::string, std::string> scanned;
  std::unique_ptr<Iterator> iter(db_->NewScanIterator());
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string k = iter->key().ToString();
    EXPECT_LT(prev, k) << "scan must be sorted and duplicate-free";
    prev = k;
    scanned[k] = iter->value().ToString();
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(model, scanned);
}

TEST_F(TxnScanTest, ScanSeek) {
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    ASSERT_TRUE(db_->Put(buf, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Delete("key050").ok());
  std::unique_ptr<Iterator> iter(db_->NewScanIterator());
  iter->Seek(Slice("key050"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key051", iter->key().ToString())
      << "seek must skip the tombstoned key";
  iter->Seek(Slice("key0995"));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TxnScanTest, WritesProceedAfterScanReleased) {
  ASSERT_TRUE(db_->Put("before", "1").ok());
  {
    std::unique_ptr<Iterator> iter(db_->NewScanIterator());
    iter->SeekToFirst();
    ASSERT_TRUE(iter->Valid());
  }
  // The locks are gone; heavy writing must work (exercises seal + flush
  // after a scan).
  std::string filler(200, 'w');
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put("after" + std::to_string(i), filler).ok());
  }
  ASSERT_TRUE(db_->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(db_->Get("after19999", &value).ok());
}

}  // namespace
}  // namespace cachekv
