#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lsm/merger.h"
#include "lsm/version.h"
#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.pmem_capacity = 64ull << 20;
  o.latency.scale = 0;
  return o;
}

ManifestState SampleState(uint64_t epoch_hint) {
  ManifestState s;
  s.next_file_number = 42 + epoch_hint;
  s.last_sequence = 1000 + epoch_hint;
  s.levels.resize(3);
  FileMeta f;
  f.number = 7;
  f.region_offset = 4096;
  f.file_size = 1234;
  f.region_size = 1280;
  AppendInternalKey(&f.smallest, Slice("aaa"), 5, kTypeValue);
  AppendInternalKey(&f.largest, Slice("zzz"), 9, kTypeValue);
  s.levels[1].push_back(f);
  return s;
}

TEST(ManifestTest, WriteRecoverRoundTrip) {
  PmemEnv env(TestEnv());
  ManifestWriter writer(&env, MetaLayout::ManifestBase(&env),
                        MetaLayout::kManifestSlotSize);
  writer.Clear();
  ManifestState state = SampleState(0);
  ASSERT_TRUE(writer.Write(&state).ok());
  EXPECT_EQ(1u, state.epoch);

  ManifestState recovered;
  ASSERT_TRUE(writer.Recover(&recovered).ok());
  EXPECT_EQ(state.epoch, recovered.epoch);
  EXPECT_EQ(state.next_file_number, recovered.next_file_number);
  EXPECT_EQ(state.last_sequence, recovered.last_sequence);
  ASSERT_EQ(3u, recovered.levels.size());
  ASSERT_EQ(1u, recovered.levels[1].size());
  EXPECT_EQ(7u, recovered.levels[1][0].number);
  EXPECT_EQ(state.levels[1][0].smallest,
            recovered.levels[1][0].smallest);
}

TEST(ManifestTest, AbAlternationSurvivesTornLatestWrite) {
  PmemEnv env(TestEnv());
  ManifestWriter writer(&env, MetaLayout::ManifestBase(&env),
                        MetaLayout::kManifestSlotSize);
  writer.Clear();
  ManifestState s1 = SampleState(1);
  ASSERT_TRUE(writer.Write(&s1).ok());  // epoch 1 -> slot 1
  ManifestState s2 = SampleState(2);
  s2.epoch = s1.epoch;
  ASSERT_TRUE(writer.Write(&s2).ok());  // epoch 2 -> slot 0

  // Tear the most recent slot (slot 0): recovery must return epoch 1.
  std::string junk(16, '\x00');
  env.NtStore(MetaLayout::ManifestBase(&env) + 4, junk.data(), 4);
  env.Sfence();
  ManifestState recovered;
  ASSERT_TRUE(writer.Recover(&recovered).ok());
  EXPECT_EQ(1u, recovered.epoch);
  EXPECT_EQ(s1.next_file_number, recovered.next_file_number);
}

TEST(ManifestTest, ClearMakesRecoveryNotFound) {
  PmemEnv env(TestEnv());
  ManifestWriter writer(&env, MetaLayout::ManifestBase(&env),
                        MetaLayout::kManifestSlotSize);
  ManifestState s = SampleState(0);
  ASSERT_TRUE(writer.Write(&s).ok());
  writer.Clear();
  ManifestState recovered;
  EXPECT_TRUE(writer.Recover(&recovered).IsNotFound());
}

TEST(ManifestTest, EmptyLevelsRoundTrip) {
  PmemEnv env(TestEnv());
  ManifestWriter writer(&env, MetaLayout::ManifestBase(&env),
                        MetaLayout::kManifestSlotSize);
  writer.Clear();
  ManifestState state;
  state.levels.resize(5);
  ASSERT_TRUE(writer.Write(&state).ok());
  ManifestState recovered;
  ASSERT_TRUE(writer.Recover(&recovered).ok());
  EXPECT_EQ(5u, recovered.levels.size());
  for (const auto& level : recovered.levels) {
    EXPECT_TRUE(level.empty());
  }
}

// --------------------------------------------------------------------
// Iterator combinators.

SortedRun* FillMem(std::initializer_list<
                      std::tuple<const char*, SequenceNumber, ValueType,
                                 const char*>>
                      entries) {
  auto* mem = new SortedRun();
  for (const auto& [k, seq, type, v] : entries) {
    mem->Add(seq, type, Slice(k), Slice(v));
  }
  return mem;
}

TEST(MergerTest, MergesSortedStreams) {
  std::unique_ptr<SortedRun> a(FillMem({{"a", 1, kTypeValue, "1"},
                                       {"c", 3, kTypeValue, "3"},
                                       {"e", 5, kTypeValue, "5"}}));
  std::unique_ptr<SortedRun> b(FillMem({{"b", 2, kTypeValue, "2"},
                                       {"d", 4, kTypeValue, "4"}}));
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &icmp, {a->NewIterator(), b->NewIterator()}));
  std::string got;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    got += ExtractUserKey(merged->key()).ToString();
  }
  EXPECT_EQ("abcde", got);
}

TEST(MergerTest, EmptyChildrenHandled) {
  InternalKeyComparator icmp;
  std::unique_ptr<Iterator> merged(NewMergingIterator(&icmp, {}));
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());

  std::unique_ptr<SortedRun> empty(new SortedRun());
  std::unique_ptr<Iterator> merged2(NewMergingIterator(
      &icmp, {empty->NewIterator(), NewEmptyIterator()}));
  merged2->SeekToFirst();
  EXPECT_FALSE(merged2->Valid());
}

TEST(MergerTest, DedupKeepsFreshest) {
  std::unique_ptr<SortedRun> a(FillMem({{"k", 10, kTypeValue, "newest"},
                                       {"k", 5, kTypeValue, "older"},
                                       {"k", 1, kTypeValue, "oldest"},
                                       {"z", 2, kTypeValue, "zv"}}));
  std::unique_ptr<Iterator> deduped(
      NewDedupingIterator(a->NewIterator()));
  deduped->SeekToFirst();
  ASSERT_TRUE(deduped->Valid());
  EXPECT_EQ("newest", deduped->value().ToString());
  deduped->Next();
  ASSERT_TRUE(deduped->Valid());
  EXPECT_EQ("zv", deduped->value().ToString());
  deduped->Next();
  EXPECT_FALSE(deduped->Valid());
}

TEST(MergerTest, UserKeyIteratorElidesTombstones) {
  std::unique_ptr<SortedRun> a(FillMem({{"a", 1, kTypeValue, "av"},
                                       {"b", 2, kTypeDeletion, ""},
                                       {"c", 3, kTypeValue, "cv"}}));
  std::unique_ptr<Iterator> user(NewUserKeyIterator(
      NewDedupingIterator(a->NewIterator())));
  user->SeekToFirst();
  ASSERT_TRUE(user->Valid());
  EXPECT_EQ("a", user->key().ToString());
  user->Next();
  ASSERT_TRUE(user->Valid());
  EXPECT_EQ("c", user->key().ToString()) << "tombstoned b must be elided";
  user->Next();
  EXPECT_FALSE(user->Valid());
}

TEST(MergerTest, UserKeySeek) {
  std::unique_ptr<SortedRun> a(FillMem({{"apple", 1, kTypeValue, "1"},
                                       {"banana", 2, kTypeValue, "2"},
                                       {"cherry", 3, kTypeValue, "3"}}));
  std::unique_ptr<Iterator> user(NewUserKeyIterator(
      NewDedupingIterator(a->NewIterator())));
  user->Seek(Slice("b"));
  ASSERT_TRUE(user->Valid());
  EXPECT_EQ("banana", user->key().ToString());
  user->Seek(Slice("banana"));
  ASSERT_TRUE(user->Valid());
  EXPECT_EQ("banana", user->key().ToString());
  user->Seek(Slice("zzz"));
  EXPECT_FALSE(user->Valid());
}

TEST(MergerTest, FresherChildWinsAcrossStreams) {
  // The same user key in two streams: the merged+deduped stream must
  // yield the higher-sequence version regardless of child order.
  std::unique_ptr<SortedRun> older(
      FillMem({{"k", 3, kTypeValue, "old"}}));
  std::unique_ptr<SortedRun> newer(
      FillMem({{"k", 8, kTypeValue, "new"}}));
  InternalKeyComparator icmp;
  for (bool newer_first : {true, false}) {
    std::vector<Iterator*> children;
    if (newer_first) {
      children = {newer->NewIterator(), older->NewIterator()};
    } else {
      children = {older->NewIterator(), newer->NewIterator()};
    }
    std::unique_ptr<Iterator> it(NewDedupingIterator(
        NewMergingIterator(&icmp, std::move(children))));
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("new", it->value().ToString());
  }
}

}  // namespace
}  // namespace cachekv
