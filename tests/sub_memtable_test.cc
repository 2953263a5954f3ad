#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "core/sub_memtable.h"
#include "core/sub_memtable_pool.h"
#include "core/sub_skiplist.h"
#include "pmem/pmem_env.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions PoolEnv(uint64_t pool_bytes = 4ull << 20) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 36ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

CacheKVOptions PoolOptions(uint64_t pool_bytes = 4ull << 20,
                           uint64_t sub_bytes = 1ull << 20) {
  CacheKVOptions o;
  o.pool_bytes = pool_bytes;
  o.sub_memtable_bytes = sub_bytes;
  o.min_sub_memtable_bytes = 128ull << 10;
  return o;
}

TEST(SubMemTableHeaderTest, PackUnpackRoundTrip) {
  for (uint64_t counter : {0ull, 1ull, 12345ull, (1ull << 38) - 1}) {
    for (SubState state :
         {SubState::kFree, SubState::kAllocated, SubState::kImmutable}) {
      for (uint32_t tail : {0u, 64u, (1u << 24) - 1}) {
        SubMemTable::Header h;
        h.counter = counter;
        h.state = state;
        h.tail = tail;
        SubMemTable::Header u =
            SubMemTable::Unpack(SubMemTable::Pack(h));
        EXPECT_EQ(counter, u.counter);
        EXPECT_EQ(state, u.state);
        EXPECT_EQ(tail, u.tail);
      }
    }
  }
}

TEST(SubMemTableHeaderTest, FieldWidthsMatchPaper) {
  // 38-bit counter, 2-bit state, 24-bit tail == one 64-bit word.
  EXPECT_EQ(64u, SubMemTable::kCounterBits + SubMemTable::kStateBits +
                     SubMemTable::kTailBits);
}

class SubMemTableTest : public ::testing::Test {
 protected:
  SubMemTableTest() : env_(PoolEnv()), table_(&env_, 0, 1 << 20) {
    table_.Format();
  }

  PmemEnv env_;
  SubMemTable table_;
};

TEST_F(SubMemTableTest, FormatInitializesFree) {
  SubMemTable::Header h = table_.ReadHeader();
  EXPECT_EQ(0u, h.counter);
  EXPECT_EQ(SubState::kFree, h.state);
  EXPECT_EQ(0u, h.tail);
  EXPECT_EQ(table_.data_capacity(), table_.ReadRemainingSpace());
  EXPECT_EQ(1u << 20, SubMemTable::ReadSlotSize(&env_, 0));
}

TEST_F(SubMemTableTest, AppendRequiresAllocatedState) {
  Status s = table_.Append(1, kTypeValue, Slice("k"), Slice("v"));
  EXPECT_TRUE(s.IsBusy());
  ASSERT_TRUE(table_.TryAcquire());
  EXPECT_TRUE(table_.Append(1, kTypeValue, Slice("k"), Slice("v")).ok());
}

TEST_F(SubMemTableTest, AppendAdvancesHeaderAtomically) {
  ASSERT_TRUE(table_.TryAcquire());
  ASSERT_TRUE(table_.Append(1, kTypeValue, Slice("key1"),
                            Slice("value1"))
                  .ok());
  SubMemTable::Header h1 = table_.ReadHeader();
  EXPECT_EQ(1u, h1.counter);
  EXPECT_GT(h1.tail, 0u);
  ASSERT_TRUE(table_.Append(2, kTypeValue, Slice("key2"),
                            Slice("value2"))
                  .ok());
  SubMemTable::Header h2 = table_.ReadHeader();
  EXPECT_EQ(2u, h2.counter);
  EXPECT_GT(h2.tail, h1.tail);
  EXPECT_EQ(table_.data_capacity() - h2.tail,
            table_.ReadRemainingSpace());
}

TEST_F(SubMemTableTest, AppendedRecordsReadableViaRecordFormat) {
  ASSERT_TRUE(table_.TryAcquire());
  ASSERT_TRUE(
      table_.Append(7, kTypeValue, Slice("apple"), Slice("red")).ok());
  RecordHeader rec;
  ASSERT_TRUE(DecodeRecordHeaderAt(&env_, table_.data_offset(), &rec));
  EXPECT_EQ(5u, rec.key_len);
  EXPECT_EQ(3u, rec.value_len);
  EXPECT_EQ(7u, rec.sequence);
  EXPECT_EQ(kTypeValue, rec.type);
  std::string key, value;
  LoadRecordKey(&env_, table_.data_offset(), rec, &key);
  LoadRecordValue(&env_, table_.data_offset(), rec, &value);
  EXPECT_EQ("apple", key);
  EXPECT_EQ("red", value);
}

TEST_F(SubMemTableTest, FillUntilOutOfSpace) {
  ASSERT_TRUE(table_.TryAcquire());
  std::string value(1000, 'f');
  int appended = 0;
  Status s;
  for (int i = 0; i < 100000; i++) {
    s = table_.Append(i + 1, kTypeValue, Slice("key"), Slice(value));
    if (!s.ok()) break;
    appended++;
  }
  EXPECT_TRUE(s.IsOutOfSpace());
  SubMemTable::Header h = table_.ReadHeader();
  EXPECT_EQ(static_cast<uint64_t>(appended), h.counter);
  EXPECT_GT(appended, 900);  // ~1MB / ~1KB records
}

TEST_F(SubMemTableTest, StateTransitions) {
  EXPECT_FALSE(table_.Seal());  // free -> immutable is illegal
  ASSERT_TRUE(table_.TryAcquire());
  EXPECT_FALSE(table_.TryAcquire());  // already allocated
  ASSERT_TRUE(table_.Seal());
  EXPECT_FALSE(table_.Seal());  // already immutable
  EXPECT_TRUE(table_.Append(1, kTypeValue, Slice("k"), Slice("v"))
                  .IsBusy());
  table_.Release();
  EXPECT_EQ(SubState::kFree, table_.ReadHeader().state);
  EXPECT_TRUE(table_.TryAcquire());
}

TEST_F(SubMemTableTest, DataSurvivesEadrCrash) {
  ASSERT_TRUE(table_.TryAcquire());
  ASSERT_TRUE(
      table_.Append(3, kTypeValue, Slice("durable"), Slice("data")).ok());
  env_.SimulateCrash();
  // After the crash the header and record must be readable from media.
  SubMemTable::Header h = table_.ReadHeader();
  EXPECT_EQ(1u, h.counter);
  EXPECT_EQ(SubState::kAllocated, h.state);
  RecordHeader rec;
  ASSERT_TRUE(DecodeRecordHeaderAt(&env_, table_.data_offset(), &rec));
  std::string key;
  LoadRecordKey(&env_, table_.data_offset(), rec, &key);
  EXPECT_EQ("durable", key);
}

class SubSkiplistTest : public ::testing::Test {
 protected:
  SubSkiplistTest()
      : env_(PoolEnv()),
        table_(&env_, 0, 2ull << 20),
        index_(&env_, table_.data_offset()) {
    table_.Format();
    EXPECT_TRUE(table_.TryAcquire());
  }

  PmemEnv env_;
  SubMemTable table_;
  SubSkiplist index_;
};

TEST_F(SubSkiplistTest, LazySyncCatchesUp) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table_
                    .Append(i + 1, kTypeValue,
                            Slice("key" + std::to_string(i)),
                            Slice("value" + std::to_string(i)))
                    .ok());
  }
  // Before sync, the index is empty (lazy).
  EXPECT_EQ(0u, index_.list_counter());
  SubSkiplist::Candidate c;
  EXPECT_FALSE(index_.Get(Slice("key50"), &c));

  ASSERT_TRUE(index_.SyncWithTable(table_).ok());
  EXPECT_EQ(100u, index_.list_counter());
  EXPECT_EQ(100u, index_.max_sequence());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(index_.Get(Slice("key" + std::to_string(i)), &c)) << i;
    EXPECT_EQ(static_cast<uint64_t>(i + 1), c.sequence);
    std::string value;
    ASSERT_TRUE(index_.ReadValue(c, &value).ok());
    EXPECT_EQ("value" + std::to_string(i), value);
  }
}

TEST_F(SubSkiplistTest, IncrementalSyncs) {
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(table_
                      .Append(round * 50 + i + 1, kTypeValue,
                              Slice(Cat("k", round * 50 + i)),
                              Slice("v"))
                      .ok());
    }
    ASSERT_TRUE(index_.SyncWithTable(table_).ok());
    EXPECT_EQ(static_cast<uint64_t>((round + 1) * 50),
              index_.list_counter());
  }
}

TEST_F(SubSkiplistTest, FreshestVersionWins) {
  ASSERT_TRUE(table_.Append(1, kTypeValue, Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(table_.Append(2, kTypeValue, Slice("k"), Slice("v2")).ok());
  ASSERT_TRUE(table_.Append(3, kTypeDeletion, Slice("k"), Slice()).ok());
  ASSERT_TRUE(index_.SyncWithTable(table_).ok());
  SubSkiplist::Candidate c;
  ASSERT_TRUE(index_.Get(Slice("k"), &c));
  EXPECT_EQ(3u, c.sequence);
  EXPECT_EQ(kTypeDeletion, c.type);
}

TEST_F(SubSkiplistTest, ConcurrentReadersDuringSync) {
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < 20000; i++) {
      if (!table_
               .Append(i + 1, kTypeValue,
                       Slice("key" + std::to_string(i % 1000)), Slice("v"))
               .ok()) {
        break;
      }
      if (i % 100 == 0) {
        index_.SyncWithTable(table_);
      }
    }
    index_.SyncWithTable(table_);
    done.store(true);
  });
  std::thread reader([&] {
    Random rng(1);
    while (!done.load()) {
      SubSkiplist::Candidate c;
      std::string value;
      std::string k = "key" + std::to_string(rng.Uniform(1000));
      if (index_.Get(Slice(k), &c)) {
        if (!index_.ReadValue(c, &value).ok() || value != "v") {
          errors.fetch_add(1);
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(0, errors.load());
  SubSkiplist::Candidate c;
  ASSERT_TRUE(index_.Get(Slice("key0"), &c));
}

TEST_F(SubSkiplistTest, RawCursorSortedOrder) {
  Random rng(3);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(table_
                    .Append(i + 1, kTypeValue,
                            Slice("key" + std::to_string(rng.Uniform(
                                              100000))),
                            Slice("v"))
                    .ok());
  }
  ASSERT_TRUE(index_.SyncWithTable(table_).ok());
  auto cursor = index_.NewRawCursor();
  cursor->SeekToFirst();
  InternalKeyComparator icmp;
  std::string prev;
  int count = 0;
  while (cursor->Valid()) {
    std::string cur = cursor->internal_key().ToString();
    if (count > 0) {
      EXPECT_LT(icmp.Compare(Slice(prev), Slice(cur)), 0);
    }
    prev = cur;
    count++;
    cursor->Next();
  }
  EXPECT_EQ(500, count);
}

TEST_F(SubSkiplistTest, SetDataBaseRelocatesValues) {
  ASSERT_TRUE(
      table_.Append(1, kTypeValue, Slice("k"), Slice("original")).ok());
  ASSERT_TRUE(index_.SyncWithTable(table_).ok());
  // Copy the data region elsewhere, then re-point the index.
  uint64_t region;
  ASSERT_TRUE(env_.allocator()->Allocate(1 << 20, &region).ok());
  char buf[4096];
  env_.Load(table_.data_offset(), buf, sizeof(buf));
  env_.NtStore(region, buf, sizeof(buf));
  env_.Sfence();
  index_.SetDataBase(region);
  SubSkiplist::Candidate c;
  ASSERT_TRUE(index_.Get(Slice("k"), &c));
  std::string value;
  ASSERT_TRUE(index_.ReadValue(c, &value).ok());
  EXPECT_EQ("original", value);
}

class SubMemTablePoolTest : public ::testing::Test {
 protected:
  SubMemTablePoolTest()
      : env_(PoolEnv()), pool_(&env_, PoolOptions()) {
    pool_.Format();
  }

  PmemEnv env_;
  SubMemTablePool pool_;
};

TEST_F(SubMemTablePoolTest, FormatCreatesExpectedSlots) {
  EXPECT_EQ(4, pool_.NumSlots());  // 4MB pool / 1MB tables
  EXPECT_EQ(4, pool_.NumFreeSlots());
}

TEST_F(SubMemTablePoolTest, AcquireUntilExhaustionThenRelease) {
  std::vector<SubMemTable> held;
  SubMemTable t(&env_, 0, 1 << 20);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(pool_.Acquire(&t).ok());
    held.push_back(t);
  }
  EXPECT_EQ(0, pool_.NumFreeSlots());
  EXPECT_TRUE(pool_.Acquire(&t).IsBusy());
  EXPECT_GE(pool_.miss_count(), 1u);
  // Distinct slots.
  for (size_t i = 0; i < held.size(); i++) {
    for (size_t j = i + 1; j < held.size(); j++) {
      EXPECT_NE(held[i].slot_offset(), held[j].slot_offset());
    }
  }
  pool_.Release(held[0]);
  EXPECT_TRUE(pool_.Acquire(&t).ok());
}

TEST_F(SubMemTablePoolTest, ElasticShrinkOnMisses) {
  // Exhaust the pool, then miss repeatedly past the threshold.
  std::vector<SubMemTable> held;
  SubMemTable t(&env_, 0, 1 << 20);
  while (pool_.Acquire(&t).ok()) {
    held.push_back(t);
  }
  CacheKVOptions opts = PoolOptions();
  for (uint32_t i = 0; i < opts.elasticity_miss_threshold + 1; i++) {
    EXPECT_TRUE(pool_.Acquire(&t).IsBusy());
  }
  EXPECT_LT(pool_.target_slot_bytes(), opts.sub_memtable_bytes);
  // Releasing a table now splits it into the smaller class.
  int before = pool_.NumSlots();
  pool_.Release(held.back());
  held.pop_back();
  EXPECT_GT(pool_.NumSlots(), before);
  // And two acquires succeed where one table was freed.
  SubMemTable a(&env_, 0, 1 << 20), b(&env_, 0, 1 << 20);
  EXPECT_TRUE(pool_.Acquire(&a).ok());
  EXPECT_TRUE(pool_.Acquire(&b).ok());
  EXPECT_LT(a.slot_size(), opts.sub_memtable_bytes);
}

TEST_F(SubMemTablePoolTest, RecoverScanWalksVariableSlots) {
  // Acquire a table, write into it, then recover.
  SubMemTable t(&env_, 0, 1 << 20);
  ASSERT_TRUE(pool_.Acquire(&t).ok());
  ASSERT_TRUE(t.Append(5, kTypeValue, Slice("persist"), Slice("me")).ok());
  env_.SimulateCrash();

  SubMemTablePool recovered(&env_, PoolOptions());
  int non_empty = 0;
  std::string seen_key;
  ASSERT_TRUE(recovered
                  .RecoverScan([&](const SubMemTable& table) -> Status {
                    non_empty++;
                    RecordHeader rec;
                    if (!DecodeRecordHeaderAt(&env_, table.data_offset(),
                                              &rec)) {
                      return Status::Corruption("bad record");
                    }
                    LoadRecordKey(&env_, table.data_offset(), rec,
                                  &seen_key);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(1, non_empty);
  EXPECT_EQ("persist", seen_key);
  // All slots were reset to Free.
  EXPECT_EQ(recovered.NumSlots(), recovered.NumFreeSlots());
}

TEST_F(SubMemTablePoolTest, ConcurrentAcquireReleaseStress) {
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; w++) {
    threads.emplace_back([&, w] {
      Random rng(w);
      for (int i = 0; i < 500; i++) {
        SubMemTable t(&env_, 0, 1 << 20);
        Status s = pool_.Acquire(&t);
        if (s.IsBusy()) {
          continue;
        }
        if (!s.ok()) {
          errors.fetch_add(1);
          continue;
        }
        if (!t.Append(i + 1, kTypeValue, Slice("k"), Slice("v")).ok()) {
          errors.fetch_add(1);
        }
        if (!t.Seal()) {
          errors.fetch_add(1);
        }
        pool_.Release(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, errors.load());
  EXPECT_EQ(pool_.NumSlots(), pool_.NumFreeSlots());
}

}  // namespace
}  // namespace cachekv
