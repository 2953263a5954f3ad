#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "lsm/lsm_engine.h"
#include "pmem/meta_layout.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions TestEnv() {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 8ull << 20;
  o.latency.scale = 0;
  return o;
}

LsmOptions SmallLsm() {
  LsmOptions o;
  o.l0_compaction_trigger = 3;
  o.base_level_bytes = 256 << 10;
  o.level_size_multiplier = 4;
  o.target_file_size = 64 << 10;
  o.background_compaction = false;  // deterministic for tests
  return o;
}

class LsmEngineTest : public ::testing::Test {
 protected:
  LsmEngineTest()
      : env_(TestEnv()),
        engine_(std::make_unique<LsmEngine>(&env_, SmallLsm(),
                                            MetaLayout::ManifestBase(
                                                &env_))) {
    EXPECT_TRUE(engine_->Open(false).ok());
  }

  // Flushes a batch of entries through a sorted run, as a memtable flush would.
  void FlushBatch(const std::map<std::string, std::string>& entries,
                  SequenceNumber* seq, ValueType type = kTypeValue) {
    SortedRun mem;
    for (const auto& [k, v] : entries) {
      mem.Add(++*seq, type, Slice(k), Slice(v));
    }
    std::unique_ptr<Iterator> iter(mem.NewIterator());
    ASSERT_TRUE(engine_->WriteL0Tables(iter.get()).ok());
  }

  std::string GetOrDie(const std::string& key, SequenceNumber snapshot) {
    std::string value;
    bool deleted = false;
    Status s = engine_->Get(Slice(key), snapshot, &value, &deleted);
    EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
    return value;
  }

  PmemEnv env_;
  std::unique_ptr<LsmEngine> engine_;
};

TEST_F(LsmEngineTest, EmptyEngine) {
  std::string value;
  bool deleted;
  EXPECT_TRUE(engine_->Get(Slice("k"), 100, &value, &deleted).IsNotFound());
  EXPECT_EQ(0, engine_->NumFiles(0));
}

TEST_F(LsmEngineTest, SingleFlushAndGet) {
  SequenceNumber seq = 0;
  FlushBatch({{"a", "1"}, {"b", "2"}, {"c", "3"}}, &seq);
  EXPECT_EQ(1, engine_->NumFiles(0));
  EXPECT_EQ("1", GetOrDie("a", seq));
  EXPECT_EQ("2", GetOrDie("b", seq));
  EXPECT_EQ("3", GetOrDie("c", seq));
}

TEST_F(LsmEngineTest, NewerFlushShadowsOlder) {
  SequenceNumber seq = 0;
  FlushBatch({{"k", "old"}}, &seq);
  FlushBatch({{"k", "new"}}, &seq);
  EXPECT_EQ("new", GetOrDie("k", seq));
  // The old version remains visible at the old snapshot.
  EXPECT_EQ("old", GetOrDie("k", 1));
}

TEST_F(LsmEngineTest, LateFlushOfAnOlderVersionDoesNotShadowANewerOne) {
  // Per-core sub-MemTables reach L0 out of sequence order: a table with
  // an old version of a key can be flushed after a newer version of the
  // key, even after the newer one was compacted down. The highest
  // sequence answers wherever each version sits.
  auto flush_at = [&](SequenceNumber seq, const std::string& key,
                      const std::string& value) {
    SortedRun run;
    run.Add(seq, kTypeValue, Slice(key), Slice(value));
    std::unique_ptr<Iterator> iter(run.NewIterator());
    ASSERT_TRUE(engine_->WriteL0Tables(iter.get()).ok());
  };
  flush_at(10, "k", "new");
  flush_at(5, "k", "old");
  EXPECT_EQ("new", GetOrDie("k", 100));
  EXPECT_EQ("old", GetOrDie("k", 7));

  flush_at(11, "z", "filler");  // third L0 file: compacts "new" down
  ASSERT_EQ(0, engine_->NumFiles(0));
  flush_at(3, "k", "oldest");
  EXPECT_EQ("new", GetOrDie("k", 100));
  EXPECT_EQ("oldest", GetOrDie("k", 4));
}

TEST_F(LsmEngineTest, LateFlushOfAnOlderVersionDoesNotResurrectADeletedKey) {
  // A delete reaches L0 and is compacted down to the base level, and
  // only then does another core's table flush an older put of the key.
  // The tombstone must still be there to mask it.
  auto flush_at = [&](SequenceNumber seq, ValueType type,
                      const std::string& key, const std::string& value) {
    SortedRun run;
    run.Add(seq, type, Slice(key), Slice(value));
    std::unique_ptr<Iterator> iter(run.NewIterator());
    ASSERT_TRUE(engine_->WriteL0Tables(iter.get()).ok());
  };
  flush_at(20, kTypeDeletion, "k", "");
  flush_at(21, kTypeValue, "a", "filler");
  flush_at(22, kTypeValue, "z", "filler");  // third L0 file: compacts
  ASSERT_EQ(0, engine_->NumFiles(0));
  flush_at(10, kTypeValue, "k", "deleted");
  std::string value;
  bool deleted = false;
  Status s = engine_->Get(Slice("k"), 100, &value, &deleted);
  EXPECT_TRUE(s.IsNotFound()) << "deleted key read back as " << value;
  EXPECT_TRUE(deleted);
  EXPECT_EQ("deleted", GetOrDie("k", 15));
}

TEST_F(LsmEngineTest, TombstoneMasksDeeperLevels) {
  SequenceNumber seq = 0;
  FlushBatch({{"k", "v"}}, &seq);
  FlushBatch({{"k", ""}}, &seq, kTypeDeletion);
  std::string value;
  bool deleted = false;
  Status s = engine_->Get(Slice("k"), seq, &value, &deleted);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_TRUE(deleted);
}

TEST_F(LsmEngineTest, CompactionTriggeredByL0Count) {
  SequenceNumber seq = 0;
  std::map<std::string, std::string> expected;
  for (int batch = 0; batch < 8; batch++) {
    std::map<std::string, std::string> entries;
    for (int i = 0; i < 200; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%05d", (batch * 131 + i * 7) % 1000);
      entries[buf] = Cat("b", batch);
      expected[buf] = entries[buf];
    }
    FlushBatch(entries, &seq);
  }
  // With trigger 3 and inline compactions, L0 must have been drained.
  EXPECT_LT(engine_->NumFiles(0), 3);
  EXPECT_GT(engine_->NumFiles(1) + engine_->NumFiles(2), 0);
  for (const auto& [k, v] : expected) {
    EXPECT_EQ(v, GetOrDie(k, seq)) << k;
  }
}

TEST_F(LsmEngineTest, CompactionDropsShadowedVersionsAndTombstones) {
  SequenceNumber seq = 0;
  // Write then delete everything, repeatedly, to generate garbage.
  for (int round = 0; round < 4; round++) {
    std::map<std::string, std::string> entries;
    for (int i = 0; i < 300; i++) {
      entries[Cat("key", i)] = Cat("r", round);
    }
    FlushBatch(entries, &seq);
  }
  std::map<std::string, std::string> dels;
  for (int i = 0; i < 300; i++) {
    dels[Cat("key", i)] = "";
  }
  FlushBatch(dels, &seq, kTypeDeletion);
  // Force compactions until quiet.
  for (int i = 0; i < 6; i++) {
    std::map<std::string, std::string> filler;
    filler[Cat("zfill", i)] = std::string(1000, 'f');
    FlushBatch(filler, &seq);
  }
  for (int i = 0; i < 300; i++) {
    std::string value;
    bool deleted;
    EXPECT_TRUE(
        engine_->Get(Slice(Cat("key", i)), seq, &value, &deleted)
            .IsNotFound());
  }
}

TEST_F(LsmEngineTest, IteratorSeesFreshestFirst) {
  SequenceNumber seq = 0;
  FlushBatch({{"a", "old-a"}, {"b", "old-b"}}, &seq);
  FlushBatch({{"a", "new-a"}}, &seq);
  std::unique_ptr<Iterator> iter(engine_->NewIterator());
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  // First entry for user key "a" must be the freshest.
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
  EXPECT_EQ("a", parsed.user_key.ToString());
  EXPECT_EQ("new-a", iter->value().ToString());
}

TEST_F(LsmEngineTest, RecoveryFromManifest) {
  SequenceNumber seq = 0;
  std::map<std::string, std::string> expected;
  for (int batch = 0; batch < 6; batch++) {
    std::map<std::string, std::string> entries;
    for (int i = 0; i < 150; i++) {
      std::string k = Cat("key", (batch * 37 + i) % 500);
      entries[k] = Cat("v", batch * 1000 + i);
      expected[k] = entries[k];
    }
    FlushBatch(entries, &seq);
  }
  const SequenceNumber final_seq = seq;

  // Simulate power failure + process restart, then recover: the engine
  // reads the manifest, reserves its regions on the fresh allocator, and
  // reopens every table.
  engine_.reset();
  env_.SimulateCrash();
  engine_ = std::make_unique<LsmEngine>(&env_, SmallLsm(),
                                        MetaLayout::ManifestBase(&env_));
  ASSERT_TRUE(engine_->Open(true).ok());
  for (const auto& [k, v] : expected) {
    std::string value;
    bool deleted;
    ASSERT_TRUE(engine_->Get(Slice(k), final_seq, &value, &deleted).ok())
        << k;
    EXPECT_EQ(v, value);
  }
  EXPECT_EQ(final_seq, engine_->LastSequence());
}

TEST_F(LsmEngineTest, FreshOpenAfterClearIgnoresOldManifest) {
  SequenceNumber seq = 0;
  FlushBatch({{"a", "1"}}, &seq);
  engine_.reset();
  env_.SimulateCrash();
  engine_ = std::make_unique<LsmEngine>(&env_, SmallLsm(),
                                        MetaLayout::ManifestBase(&env_));
  // Open without recovery clears the manifest: old data is gone.
  ASSERT_TRUE(engine_->Open(false).ok());
  std::string value;
  bool deleted;
  EXPECT_TRUE(engine_->Get(Slice("a"), 100, &value, &deleted).IsNotFound());
}

TEST_F(LsmEngineTest, BackgroundCompactionConverges) {
  // Same workload as the inline test but with the background thread.
  LsmOptions opts = SmallLsm();
  opts.background_compaction = true;
  EnvOptions eo = TestEnv();
  PmemEnv env2(eo);
  auto engine = std::make_unique<LsmEngine>(
      &env2, opts, MetaLayout::ManifestBase(&env2));
  ASSERT_TRUE(engine->Open(false).ok());
  SequenceNumber seq = 0;
  std::map<std::string, std::string> expected;
  for (int batch = 0; batch < 10; batch++) {
    SortedRun mem;
    for (int i = 0; i < 300; i++) {
      std::string k = Cat("key", (batch * 61 + i) % 1500);
      std::string v = Cat("v", batch * 1000 + i);
      mem.Add(++seq, kTypeValue, Slice(k), Slice(v));
      expected[k] = v;
    }
    std::unique_ptr<Iterator> iter(mem.NewIterator());
    ASSERT_TRUE(engine->WriteL0Tables(iter.get()).ok());
  }
  ASSERT_TRUE(engine->WaitForCompactions().ok());
  EXPECT_LT(engine->NumFiles(0), 3);
  for (const auto& [k, v] : expected) {
    std::string value;
    bool deleted;
    ASSERT_TRUE(engine->Get(Slice(k), seq, &value, &deleted).ok()) << k;
    EXPECT_EQ(v, value);
  }
}

}  // namespace
}  // namespace cachekv
