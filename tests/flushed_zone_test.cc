#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/flushed_zone.h"
#include "core/record_format.h"
#include "core/sub_memtable.h"
#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "util/random.h"
#include "test_util.h"

namespace cachekv {
namespace {

EnvOptions ZoneEnv() {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.latency.scale = 0;
  return o;
}

TEST(RecordFormatTest, EncodeDecodeRoundTrip) {
  PmemEnv env(ZoneEnv());
  uint64_t region;
  ASSERT_TRUE(env.allocator()->Allocate(1 << 20, &region).ok());

  std::string buf;
  size_t len1 = EncodeRecord(&buf, 42, kTypeValue, Slice("key-one"),
                             Slice("value-one"));
  size_t len2 =
      EncodeRecord(&buf, 43, kTypeDeletion, Slice("key-two"), Slice());
  env.Store(region, buf.data(), buf.size());

  RecordHeader h1;
  ASSERT_TRUE(DecodeRecordHeaderAt(&env, region, &h1));
  EXPECT_EQ(7u, h1.key_len);
  EXPECT_EQ(9u, h1.value_len);
  EXPECT_EQ(42u, h1.sequence);
  EXPECT_EQ(kTypeValue, h1.type);
  EXPECT_EQ(len1, h1.TotalSize());
  std::string key, value;
  LoadRecordKey(&env, region, h1, &key);
  LoadRecordValue(&env, region, h1, &value);
  EXPECT_EQ("key-one", key);
  EXPECT_EQ("value-one", value);

  RecordHeader h2;
  ASSERT_TRUE(DecodeRecordHeaderAt(&env, region + len1, &h2));
  EXPECT_EQ(43u, h2.sequence);
  EXPECT_EQ(kTypeDeletion, h2.type);
  EXPECT_EQ(0u, h2.value_len);
  EXPECT_EQ(len2, h2.TotalSize());
}

TEST(RecordFormatTest, ZeroedRegionRejected) {
  PmemEnv env(ZoneEnv());
  uint64_t region;
  ASSERT_TRUE(env.allocator()->Allocate(4096, &region).ok());
  RecordHeader h;
  EXPECT_FALSE(DecodeRecordHeaderAt(&env, region, &h))
      << "zeroed bytes must not parse as a record";
}

TEST(RecordFormatTest, MaxRecordSizeIsUpperBound) {
  for (size_t k : {1u, 16u, 1000u}) {
    for (size_t v : {0u, 64u, 100000u}) {
      std::string buf;
      size_t actual = EncodeRecord(&buf, kMaxSequenceNumber, kTypeValue,
                                   Slice(std::string(k, 'k')),
                                   Slice(std::string(v, 'v')));
      EXPECT_LE(actual, MaxRecordSize(k, v));
    }
  }
}

class FlushedZoneTest : public ::testing::Test {
 protected:
  FlushedZoneTest()
      : env_(ZoneEnv()),
        zone_(&env_, MetaLayout::ZoneRegistryBase(&env_),
              MetaLayout::kZoneRegistrySlotSize,
              /*compaction_enabled=*/true) {}

  // Builds a flushed table holding the given entries (seq assigned
  // sequentially from *seq) and adds it to the zone.
  void AddTable(const std::map<std::string, std::string>& entries,
                SequenceNumber* seq) {
    std::string data;
    uint64_t count = 0;
    for (const auto& [k, v] : entries) {
      EncodeRecord(&data, ++*seq, kTypeValue, Slice(k), Slice(v));
      count++;
    }
    AddRaw(data, count, *seq);
  }

  void AddRaw(const std::string& data, uint64_t count,
              SequenceNumber max_seq) {
    const uint64_t region_size =
        AlignUp(SubMemTable::kDataOffset + data.size(), kXPLineSize);
    uint64_t region;
    ASSERT_TRUE(env_.allocator()->Allocate(region_size, &region).ok());
    env_.NtStore(region + SubMemTable::kDataOffset, data.data(),
                 data.size());
    env_.Sfence();
    FlushedTable t;
    t.region_offset = region;
    t.region_size = region_size;
    t.data_tail = static_cast<uint32_t>(data.size());
    t.entry_count = count;
    t.max_sequence = max_seq;
    t.data_crc = FlushedZone::ComputeDataCrc(&env_, region, t.data_tail);
    t.index = std::make_shared<SubSkiplist>(
        &env_, region + SubMemTable::kDataOffset);
    ASSERT_TRUE(t.index->SyncTo(count, t.data_tail).ok());
    ASSERT_TRUE(zone_.AddTable(std::move(t)).ok());
  }

  PmemEnv env_;
  FlushedZone zone_;
};

TEST_F(FlushedZoneTest, GetAcrossTables) {
  SequenceNumber seq = 0;
  AddTable({{"a", "1"}, {"b", "2"}}, &seq);
  AddTable({{"c", "3"}}, &seq);
  auto lock = zone_.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone_.Get(Slice("a"), &r).ok());
  EXPECT_TRUE(r.found);
  EXPECT_EQ("1", r.value);
  ASSERT_TRUE(zone_.Get(Slice("c"), &r).ok());
  EXPECT_TRUE(r.found);
  EXPECT_EQ("3", r.value);
  ASSERT_TRUE(zone_.Get(Slice("zz"), &r).ok());
  EXPECT_FALSE(r.found);
}

TEST_F(FlushedZoneTest, FreshestAcrossTablesWins) {
  SequenceNumber seq = 0;
  AddTable({{"k", "old"}}, &seq);
  AddTable({{"k", "new"}}, &seq);
  auto lock = zone_.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone_.Get(Slice("k"), &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ("new", r.value);
  EXPECT_EQ(2u, r.sequence);
}

TEST_F(FlushedZoneTest, CompactionRemovesInvalidNodes) {
  SequenceNumber seq = 0;
  // Three tables, heavy overwrite: compaction keeps only the freshest
  // node per key (the Figure 9 scenario).
  AddTable({{"a", "a1"}, {"b", "b1"}, {"c", "c1"}}, &seq);
  AddTable({{"a", "a2"}, {"b", "b2"}}, &seq);
  AddTable({{"a", "a3"}}, &seq);
  zone_.Compact();
  EXPECT_EQ(3u, zone_.GlobalIndexEntries());  // a, b, c once each
  auto lock = zone_.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone_.Get(Slice("a"), &r).ok());
  EXPECT_EQ("a3", r.value);
  ASSERT_TRUE(zone_.Get(Slice("b"), &r).ok());
  EXPECT_EQ("b2", r.value);
  ASSERT_TRUE(zone_.Get(Slice("c"), &r).ok());
  EXPECT_EQ("c1", r.value);
}

TEST_F(FlushedZoneTest, TombstonesSurviveCompaction) {
  SequenceNumber seq = 0;
  AddTable({{"k", "v"}}, &seq);
  std::string data;
  EncodeRecord(&data, ++seq, kTypeDeletion, Slice("k"), Slice());
  AddRaw(data, 1, seq);
  zone_.Compact();
  auto lock = zone_.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone_.Get(Slice("k"), &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ(kTypeDeletion, r.type)
      << "the tombstone must keep masking older data";
}

TEST_F(FlushedZoneTest, L0StreamIsDedupedAndSorted) {
  SequenceNumber seq = 0;
  Random rng(3);
  std::map<std::string, std::string> latest;
  for (int t = 0; t < 4; t++) {
    std::map<std::string, std::string> entries;
    for (int i = 0; i < 200; i++) {
      std::string k = Cat("key", rng.Uniform(150));
      entries[k] = Cat("t", t, "-", i);
    }
    AddTable(entries, &seq);
    for (const auto& [k, v] : entries) {
      latest[k] = v;
    }
  }
  auto snapshot = zone_.SnapshotTables();
  EXPECT_EQ(4u, snapshot.size());
  std::unique_ptr<Iterator> stream(zone_.NewL0Stream(snapshot));
  std::map<std::string, std::string> seen;
  InternalKeyComparator icmp;
  std::string prev;
  int count = 0;
  for (stream->SeekToFirst(); stream->Valid(); stream->Next()) {
    if (count > 0) {
      EXPECT_LT(icmp.Compare(Slice(prev), stream->key()), 0);
    }
    prev = stream->key().ToString();
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(stream->key(), &parsed));
    std::string uk = parsed.user_key.ToString();
    EXPECT_EQ(0u, seen.count(uk)) << "duplicate user key in L0 stream";
    seen[uk] = stream->value().ToString();
    count++;
  }
  EXPECT_EQ(latest, seen);
}

TEST_F(FlushedZoneTest, DropTablesFreesAndPersists) {
  SequenceNumber seq = 0;
  AddTable({{"a", "1"}}, &seq);
  AddTable({{"b", "2"}}, &seq);
  uint64_t bytes_before = zone_.TotalBytes();
  EXPECT_GT(bytes_before, 0u);
  auto snapshot = zone_.SnapshotTables();
  // A table added after the snapshot must survive the drop.
  AddTable({{"c", "3"}}, &seq);
  ASSERT_TRUE(zone_.DropTables(snapshot).ok());
  EXPECT_EQ(1, zone_.NumTables());
  auto lock = zone_.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone_.Get(Slice("c"), &r).ok());
  EXPECT_TRUE(r.found);
  ASSERT_TRUE(zone_.Get(Slice("a"), &r).ok());
  EXPECT_FALSE(r.found);
}

TEST_F(FlushedZoneTest, RegistryRecoveryAfterCrash) {
  SequenceNumber seq = 0;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; i++) {
    entries["key" + std::to_string(i)] = "value" + std::to_string(i);
  }
  AddTable(entries, &seq);
  AddTable({{"extra", "x"}}, &seq);

  env_.SimulateCrash();
  FlushedZone recovered(&env_, MetaLayout::ZoneRegistryBase(&env_),
                        MetaLayout::kZoneRegistrySlotSize, true);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(2, recovered.NumTables());
  EXPECT_EQ(seq, recovered.MaxSequence());
  auto lock = recovered.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(recovered.Get(Slice("key123"), &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ("value123", r.value);
  ASSERT_TRUE(recovered.Get(Slice("extra"), &r).ok());
  ASSERT_TRUE(r.found);
}

TEST_F(FlushedZoneTest, RecoveryOfEmptyZone) {
  env_.SimulateCrash();
  FlushedZone recovered(&env_, MetaLayout::ZoneRegistryBase(&env_),
                        MetaLayout::kZoneRegistrySlotSize, true);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(0, recovered.NumTables());
}

TEST(FlushedZoneNoCompactionTest, PerTableProbesStillCorrect) {
  PmemEnv env(ZoneEnv());
  FlushedZone zone(&env, MetaLayout::ZoneRegistryBase(&env),
                   MetaLayout::kZoneRegistrySlotSize,
                   /*compaction_enabled=*/false);
  SequenceNumber seq = 0;
  for (int t = 0; t < 3; t++) {
    std::string data;
    uint64_t count = 0;
    for (int i = 0; i < 50; i++) {
      EncodeRecord(&data, ++seq, kTypeValue, Slice(Cat("key", i)),
                   Slice(Cat("t", t)));
      count++;
    }
    const uint64_t region_size =
        AlignUp(SubMemTable::kDataOffset + data.size(), kXPLineSize);
    uint64_t region;
    ASSERT_TRUE(env.allocator()->Allocate(region_size, &region).ok());
    env.NtStore(region + SubMemTable::kDataOffset, data.data(),
                data.size());
    FlushedTable ft;
    ft.region_offset = region;
    ft.region_size = region_size;
    ft.data_tail = static_cast<uint32_t>(data.size());
    ft.entry_count = count;
    ft.max_sequence = seq;
    ft.data_crc = FlushedZone::ComputeDataCrc(&env, region, ft.data_tail);
    ft.index = std::make_shared<SubSkiplist>(
        &env, region + SubMemTable::kDataOffset);
    ASSERT_TRUE(ft.index->SyncTo(count, ft.data_tail).ok());
    ASSERT_TRUE(zone.AddTable(std::move(ft)).ok());
  }
  zone.Compact();  // no-op with compaction disabled
  EXPECT_EQ(0u, zone.GlobalIndexEntries());
  auto lock = zone.LockShared();
  FlushedZone::LookupResult r;
  ASSERT_TRUE(zone.Get(Slice("key7"), &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ("t2", r.value);  // freshest table wins
}

}  // namespace
}  // namespace cachekv
