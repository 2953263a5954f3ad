#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "lsm/block.h"
#include "lsm/bloom.h"
#include "lsm/sstable.h"
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

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType vt = kTypeValue) {
  std::string encoded;
  AppendInternalKey(&encoded, Slice(user_key), seq, vt);
  return encoded;
}

TEST(BloomTest, EmptyFilter) {
  BloomFilterPolicy bloom(10);
  std::string filter;
  bloom.CreateFilter({}, &filter);
  EXPECT_FALSE(bloom.KeyMayMatch(Slice("hello"), Slice(filter)));
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterPolicy bloom(10);
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 5000; i++) {
    keys.push_back("key" + std::to_string(i));
  }
  for (const auto& k : keys) slices.emplace_back(k);
  std::string filter;
  bloom.CreateFilter(slices, &filter);
  for (const auto& k : keys) {
    EXPECT_TRUE(bloom.KeyMayMatch(Slice(k), Slice(filter))) << k;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterPolicy bloom(10);
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 10000; i++) {
    keys.push_back("present" + std::to_string(i));
  }
  for (const auto& k : keys) slices.emplace_back(k);
  std::string filter;
  bloom.CreateFilter(slices, &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    if (bloom.KeyMayMatch(Slice("absent" + std::to_string(i)),
                          Slice(filter))) {
      false_positives++;
    }
  }
  EXPECT_LT(false_positives, 300);  // ~1% expected at 10 bits/key
}

TEST(BlockTest, EmptyBlock) {
  BlockBuilder builder(16);
  Slice raw = builder.Finish();
  Block block(raw.ToString());
  InternalKeyComparator cmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, RoundTripAndSeek) {
  InternalKeyComparator cmp;
  std::map<std::string, std::string> model;
  BlockBuilder builder(4);  // small restart interval to exercise restarts
  for (int i = 0; i < 300; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    std::string k = IKey(buf, 100);
    std::string v = "value" + std::to_string(i);
    builder.Add(Slice(k), Slice(v));
    model[k] = v;
  }
  Block block(builder.Finish().ToString());
  std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));

  // Full scan matches the model.
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(k, iter->key().ToString());
    EXPECT_EQ(v, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Point seeks.
  for (int i = 0; i < 300; i += 17) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    std::string k = IKey(buf, 100);
    iter->Seek(Slice(k));
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(k, iter->key().ToString());
  }

  // Seek past the end.
  std::string beyond = IKey("zzz", 100);
  iter->Seek(Slice(beyond));
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, PrefixCompressionPreservesKeys) {
  InternalKeyComparator cmp;
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  // Keys sharing long prefixes stress the shared/non_shared split.
  for (int i = 0; i < 64; i++) {
    keys.push_back(
        IKey("commonprefix/commonsubdir/file" + std::to_string(1000 + i),
             5));
  }
  for (const auto& k : keys) {
    builder.Add(Slice(k), Slice("v"));
  }
  Block block(builder.Finish().ToString());
  std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));
  iter->SeekToFirst();
  for (const auto& k : keys) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(k, iter->key().ToString());
    iter->Next();
  }
}

TEST(BlockTest, MalformedBlockReportsCorruption) {
  Block block(std::string("ab"));  // shorter than the restart count
  InternalKeyComparator cmp;
  std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption());
}

class SSTableTest : public ::testing::Test {
 protected:
  SSTableTest() : env_(TestEnv()) {}

  // Builds a table from the model and opens a reader on it.
  void BuildAndOpen(const std::map<std::string, std::string>& entries,
                    SequenceNumber seq = 100) {
    SSTableOptions opts;
    opts.block_size = 512;  // many small blocks
    SSTableBuilder builder(opts);
    for (const auto& [k, v] : entries) {
      builder.Add(Slice(IKey(k, seq)), Slice(v));
    }
    ASSERT_TRUE(builder.Finish().ok());
    uint64_t size = builder.contents().size();
    uint64_t region_size = AlignUp(size, kXPLineSize);
    ASSERT_TRUE(env_.allocator()->Allocate(region_size, &region_).ok());
    env_.NtStore(region_, builder.contents().data(), size);
    env_.Sfence();
    ASSERT_TRUE(SSTableReader::Open(&env_, region_, size, &reader_).ok());
  }

  PmemEnv env_;
  uint64_t region_ = 0;
  std::unique_ptr<SSTableReader> reader_;
};

TEST_F(SSTableTest, PointLookups) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    model[buf] = "value-" + std::to_string(i * 7);
  }
  BuildAndOpen(model);

  for (const auto& [k, v] : model) {
    ParsedInternalKey parsed;
    std::string key_storage, value;
    Status s = reader_->InternalGet(Slice(IKey(k, 200)), &parsed,
                                    &key_storage, &value);
    ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
    EXPECT_EQ(v, value);
    EXPECT_EQ(k, parsed.user_key.ToString());
    EXPECT_EQ(100u, parsed.sequence);
  }
}

TEST_F(SSTableTest, MissingKeysNotFound) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1000; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    model[buf] = "even";
  }
  BuildAndOpen(model);
  for (int i = 1; i < 1000; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    ParsedInternalKey parsed;
    std::string key_storage, value;
    EXPECT_TRUE(reader_
                    ->InternalGet(Slice(IKey(buf, 200)), &parsed,
                                  &key_storage, &value)
                    .IsNotFound())
        << buf;
  }
}

TEST_F(SSTableTest, SnapshotInvisibility) {
  // Entry written at seq 100 must be invisible to a snapshot at seq 50.
  std::map<std::string, std::string> model = {{"k", "v"}};
  BuildAndOpen(model, 100);
  ParsedInternalKey parsed;
  std::string key_storage, value;
  EXPECT_TRUE(reader_
                  ->InternalGet(Slice(IKey("k", 50)), &parsed,
                                &key_storage, &value)
                  .IsNotFound());
  EXPECT_TRUE(reader_
                  ->InternalGet(Slice(IKey("k", 100)), &parsed,
                                &key_storage, &value)
                  .ok());
}

TEST_F(SSTableTest, FullScan) {
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int i = 0; i < 3000; i++) {
    model[Cat("k", rng.Next64())] = Cat("v", i);
  }
  BuildAndOpen(model);
  std::unique_ptr<Iterator> iter(reader_->NewIterator());
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(k, ExtractUserKey(iter->key()).ToString());
    EXPECT_EQ(v, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(SSTableTest, IteratorSeek) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i * 3);
    model[buf] = std::to_string(i);
  }
  BuildAndOpen(model);
  std::unique_ptr<Iterator> iter(reader_->NewIterator());
  // Seek to a key between entries: lands on the next present key.
  iter->Seek(Slice(IKey("key000004", 200)));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000006", ExtractUserKey(iter->key()).ToString());
  // Seek beyond the last key.
  iter->Seek(Slice(IKey("zzzz", 200)));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(SSTableTest, CorruptFooterRejected) {
  std::map<std::string, std::string> model = {{"a", "1"}};
  BuildAndOpen(model);
  // Clobber the magic at the end of the region.
  char junk[8] = {0};
  // Find table size: reader_ knows it.
  uint64_t size = reader_->size();
  env_.NtStore(region_ + size - 8, junk, 8);
  env_.Sfence();
  std::unique_ptr<SSTableReader> broken;
  EXPECT_TRUE(
      SSTableReader::Open(&env_, region_, size, &broken).IsCorruption());
}

TEST_F(SSTableTest, BlockChecksumCatchesBitFlips) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    model[buf] = "value" + std::to_string(i);
  }
  BuildAndOpen(model);
  // Flip one byte early in the table (inside some data block).
  char byte;
  env_.Load(region_ + 100, &byte, 1);
  byte ^= 0x40;
  env_.NtStore(region_ + 100, &byte, 1);
  env_.Sfence();
  int checksum_errors = 0;
  for (const auto& [k, v] : model) {
    ParsedInternalKey parsed;
    std::string key_storage, value;
    Status s = reader_->InternalGet(Slice(IKey(k, 200)), &parsed,
                                    &key_storage, &value);
    if (s.IsCorruption()) {
      checksum_errors++;
    } else if (s.ok()) {
      EXPECT_EQ(v, value) << "undetected corruption for " << k;
    }
  }
  EXPECT_GT(checksum_errors, 0)
      << "the flipped block must fail its checksum";
}

TEST_F(SSTableTest, TooSmallTableRejected) {
  std::unique_ptr<SSTableReader> broken;
  EXPECT_TRUE(SSTableReader::Open(&env_, 0, 10, &broken).IsCorruption());
}

TEST_F(SSTableTest, SmallestLargestTracked) {
  SSTableBuilder builder;
  builder.Add(Slice(IKey("aaa", 9)), Slice("1"));
  builder.Add(Slice(IKey("mmm", 8)), Slice("2"));
  builder.Add(Slice(IKey("zzz", 7)), Slice("3"));
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ("aaa", ExtractUserKey(Slice(builder.smallest_key())).ToString());
  EXPECT_EQ("zzz", ExtractUserKey(Slice(builder.largest_key())).ToString());
  EXPECT_EQ(3u, builder.NumEntries());
}

}  // namespace
}  // namespace cachekv
