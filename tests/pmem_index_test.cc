#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "index/pmem_bptree.h"
#include "index/pmem_skiplist.h"
#include "pmem/pmem_env.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.pmem_capacity = 128ull << 20;
  o.llc_capacity = 8ull << 20;
  o.latency.scale = 0;
  return o;
}

class PmemSkipListTest : public ::testing::Test {
 protected:
  PmemSkipListTest() : env_(TestEnv()) {
    EXPECT_TRUE(env_.allocator()->Allocate(16 << 20, &region_).ok());
    list_ = std::make_unique<PmemSkipList>(&env_, region_, 16 << 20,
                                           FlushMode::kFlushEveryWrite);
  }

  PmemEnv env_;
  uint64_t region_ = 0;
  std::unique_ptr<PmemSkipList> list_;
};

TEST_F(PmemSkipListTest, InsertAndGet) {
  ASSERT_TRUE(list_->Insert(1, kTypeValue, Slice("apple"), Slice("red"))
                  .ok());
  ASSERT_TRUE(
      list_->Insert(2, kTypeValue, Slice("banana"), Slice("yellow")).ok());
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kFound,
            list_->Get(Slice("apple"), 10, &value));
  EXPECT_EQ("red", value);
  EXPECT_EQ(PmemSkipList::GetResult::kNotFound,
            list_->Get(Slice("cherry"), 10, &value));
}

TEST_F(PmemSkipListTest, FreshestVersionAndSnapshots) {
  ASSERT_TRUE(list_->Insert(1, kTypeValue, Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(list_->Insert(7, kTypeValue, Slice("k"), Slice("v7")).ok());
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kFound,
            list_->Get(Slice("k"), 100, &value));
  EXPECT_EQ("v7", value);
  EXPECT_EQ(PmemSkipList::GetResult::kFound,
            list_->Get(Slice("k"), 3, &value));
  EXPECT_EQ("v1", value);
}

TEST_F(PmemSkipListTest, Tombstones) {
  ASSERT_TRUE(list_->Insert(1, kTypeValue, Slice("k"), Slice("v")).ok());
  ASSERT_TRUE(list_->Insert(2, kTypeDeletion, Slice("k"), Slice()).ok());
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kDeleted,
            list_->Get(Slice("k"), 10, &value));
}

TEST_F(PmemSkipListTest, ModelCheckAndIteration) {
  Random rng(42);
  std::map<std::string, std::string> model;
  SequenceNumber seq = 0;
  for (int i = 0; i < 3000; i++) {
    std::string k = "key" + std::to_string(rng.Uniform(800));
    std::string v = "val" + std::to_string(i);
    ASSERT_TRUE(list_->Insert(++seq, kTypeValue, Slice(k), Slice(v)).ok());
    model[k] = v;
  }
  EXPECT_EQ(3000u, list_->NumEntries());
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_EQ(PmemSkipList::GetResult::kFound,
              list_->Get(Slice(k), seq, &value))
        << k;
    EXPECT_EQ(v, value);
  }
  // Iteration yields internal keys in order, freshest version first per
  // user key.
  std::unique_ptr<Iterator> iter(list_->NewIterator());
  std::map<std::string, std::string> first_seen;
  int count = 0;
  std::string prev;
  InternalKeyComparator icmp;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (count > 0) {
      EXPECT_LT(icmp.Compare(Slice(prev), iter->key()), 0);
    }
    prev = iter->key().ToString();
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    std::string uk = parsed.user_key.ToString();
    if (!first_seen.count(uk)) {
      first_seen[uk] = iter->value().ToString();
    }
    count++;
  }
  EXPECT_EQ(3000, count);
  EXPECT_EQ(model, first_seen);
}

TEST_F(PmemSkipListTest, OutOfSpace) {
  uint64_t small_region;
  ASSERT_TRUE(env_.allocator()->Allocate(4096, &small_region).ok());
  PmemSkipList small(&env_, small_region, 4096, FlushMode::kNone);
  std::string big(1024, 'x');
  Status s = Status::OK();
  int inserted = 0;
  for (int i = 0; i < 10 && s.ok(); i++) {
    s = small.Insert(i + 1, kTypeValue, Slice(Cat("k", i)), Slice(big));
    if (s.ok()) inserted++;
  }
  EXPECT_TRUE(s.IsOutOfSpace());
  EXPECT_GE(inserted, 1);
  // Previously inserted data still readable.
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kFound,
            small.Get(Slice("k0"), 100, &value));
}

TEST_F(PmemSkipListTest, ResetEmptiesList) {
  ASSERT_TRUE(list_->Insert(1, kTypeValue, Slice("k"), Slice("v")).ok());
  list_->Reset();
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kNotFound,
            list_->Get(Slice("k"), 100, &value));
  EXPECT_EQ(0u, list_->NumEntries());
}

TEST_F(PmemSkipListTest, DataSurvivesEadrCrash) {
  ASSERT_TRUE(
      list_->Insert(1, kTypeValue, Slice("durable"), Slice("yes")).ok());
  // Under eADR, even without flush instructions the data reaches media on
  // power failure. The DRAM-side structure (this object) holds only
  // offsets, so re-reading through a fresh wrapper works.
  env_.SimulateCrash();
  ASSERT_TRUE(env_.allocator()->Reserve(region_, 16 << 20).ok());
  // The wrapper keeps its cursor/head in DRAM; for the baselines the
  // memtable is rebuilt from scratch after recovery, so here we simply
  // verify the raw bytes survived.
  std::string value;
  EXPECT_EQ(PmemSkipList::GetResult::kFound,
            list_->Get(Slice("durable"), 100, &value));
  EXPECT_EQ("yes", value);
}

class PmemBPlusTreeTest : public ::testing::Test {
 protected:
  PmemBPlusTreeTest() : env_(TestEnv()) {
    EXPECT_TRUE(env_.allocator()->Allocate(32 << 20, &region_).ok());
    tree_ = std::make_unique<PmemBPlusTree>(&env_, region_, 32 << 20,
                                            FlushMode::kFlushEveryWrite);
  }

  PmemEnv env_;
  uint64_t region_ = 0;
  std::unique_ptr<PmemBPlusTree> tree_;
};

TEST_F(PmemBPlusTreeTest, InsertGet) {
  ASSERT_TRUE(tree_->Insert(Slice("alpha"), 100).ok());
  ASSERT_TRUE(tree_->Insert(Slice("beta"), 200).ok());
  uint64_t locator;
  ASSERT_TRUE(tree_->Get(Slice("alpha"), &locator).ok());
  EXPECT_EQ(100u, locator);
  ASSERT_TRUE(tree_->Get(Slice("beta"), &locator).ok());
  EXPECT_EQ(200u, locator);
  EXPECT_TRUE(tree_->Get(Slice("gamma"), &locator).IsNotFound());
}

TEST_F(PmemBPlusTreeTest, UpdateInPlace) {
  ASSERT_TRUE(tree_->Insert(Slice("k"), 1).ok());
  ASSERT_TRUE(tree_->Insert(Slice("k"), 2).ok());
  uint64_t locator;
  ASSERT_TRUE(tree_->Get(Slice("k"), &locator).ok());
  EXPECT_EQ(2u, locator);
  EXPECT_EQ(1u, tree_->NumEntries());
}

TEST_F(PmemBPlusTreeTest, KeyTooLongRejected) {
  std::string long_key(40, 'x');
  EXPECT_TRUE(tree_->Insert(Slice(long_key), 1).IsNotSupported());
  uint64_t locator;
  EXPECT_TRUE(tree_->Get(Slice(long_key), &locator).IsNotSupported());
}

TEST_F(PmemBPlusTreeTest, SplitsAndModelCheck) {
  Random rng(9);
  std::map<std::string, uint64_t> model;
  for (int i = 0; i < 20000; i++) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%08llu",
             static_cast<unsigned long long>(rng.Uniform(8000)));
    uint64_t loc = rng.Next64();
    ASSERT_TRUE(tree_->Insert(Slice(buf), loc).ok());
    model[buf] = loc;
  }
  EXPECT_EQ(model.size(), tree_->NumEntries());
  EXPECT_GT(tree_->Height(), 1);
  for (const auto& [k, v] : model) {
    uint64_t locator;
    ASSERT_TRUE(tree_->Get(Slice(k), &locator).ok()) << k;
    EXPECT_EQ(v, locator);
  }
  // Scan yields sorted order and exactly the model.
  std::map<std::string, uint64_t> scanned;
  std::string prev;
  tree_->Scan([&](const Slice& k, uint64_t v) {
    std::string ks = k.ToString();
    EXPECT_LT(prev, ks);
    prev = ks;
    scanned[ks] = v;
  });
  EXPECT_EQ(model, scanned);
}

TEST_F(PmemBPlusTreeTest, DeleteRemovesKeys) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        tree_->Insert(Slice("key" + std::to_string(i)), i).ok());
  }
  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(tree_->Delete(Slice("key" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 2000; i++) {
    uint64_t locator;
    Status s = tree_->Get(Slice("key" + std::to_string(i)), &locator);
    if (i % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(static_cast<uint64_t>(i), locator);
    }
  }
  EXPECT_TRUE(tree_->Delete(Slice("never")).IsNotFound());
}

// Property sweep: different scales keep tree invariants.
class BPlusTreeScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(BPlusTreeScaleTest, SequentialAndReverseInserts) {
  PmemEnv env(TestEnv());
  uint64_t region;
  ASSERT_TRUE(env.allocator()->Allocate(32 << 20, &region).ok());
  const int n = GetParam();
  for (bool reverse : {false, true}) {
    PmemBPlusTree tree(&env, region, 32 << 20, FlushMode::kNone);
    for (int i = 0; i < n; i++) {
      int x = reverse ? n - 1 - i : i;
      char buf[24];
      snprintf(buf, sizeof(buf), "k%08d", x);
      ASSERT_TRUE(tree.Insert(Slice(buf), x).ok());
    }
    EXPECT_EQ(static_cast<uint64_t>(n), tree.NumEntries());
    int count = 0;
    std::string prev;
    tree.Scan([&](const Slice& k, uint64_t v) {
      std::string ks = k.ToString();
      EXPECT_LT(prev, ks);
      prev = ks;
      char want[16];
      snprintf(want, sizeof(want), "k%08d", static_cast<int>(v));
      EXPECT_EQ(std::string(want), ks);
      count++;
    });
    EXPECT_EQ(n, count);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BPlusTreeScaleTest,
                         ::testing::Values(1, 10, 100, 1000, 10000));

}  // namespace
}  // namespace cachekv
