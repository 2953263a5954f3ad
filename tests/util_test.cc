#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/coding.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/zipfian.h"

namespace cachekv {
namespace {

TEST(SliceTest, Empty) {
  Slice s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(0u, s.size());
  EXPECT_EQ("", s.ToString());
}

TEST(SliceTest, FromString) {
  std::string str = "hello";
  Slice s(str);
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abcd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("abcd")));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ("cdef", s.ToString());
}

TEST(SliceTest, EqualityOperators) {
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  EXPECT_TRUE(Slice("") == Slice());
}

TEST(StatusTest, Ok) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ("OK", s.ToString());
}

TEST(StatusTest, NotFound) {
  Status s = Status::NotFound("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ("NotFound: key missing", s.ToString());
}

TEST(StatusTest, TwoPartMessage) {
  Status s = Status::IOError("read", "device gone");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ("IO error: read: device gone", s.ToString());
}

TEST(StatusTest, AllCodes) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::OutOfSpace("x").IsOutOfSpace());
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Corruption("bad block");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(s.ToString(), t.ToString());
}

TEST(CodingTest, Fixed32) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v += 7777) {
    PutFixed32(&s, v);
  }
  const char* p = s.data();
  for (uint32_t v = 0; v < 100000; v += 7777) {
    EXPECT_EQ(v, DecodeFixed32(p));
    p += sizeof(uint32_t);
  }
}

TEST(CodingTest, Fixed64) {
  std::string s;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    PutFixed64(&s, v - 1);
    PutFixed64(&s, v);
    PutFixed64(&s, v + 1);
  }
  const char* p = s.data();
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    EXPECT_EQ(v - 1, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v + 1, DecodeFixed64(p));
    p += 8;
  }
}

TEST(CodingTest, Varint32) {
  std::string s;
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t v = (i / 32) << (i % 32);
    PutVarint32(&s, v);
  }
  const char* p = s.data();
  const char* limit = p + s.size();
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t expected = (i / 32) << (i % 32);
    uint32_t actual;
    const char* start = p;
    p = GetVarint32Ptr(p, limit, &actual);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(expected, actual);
    EXPECT_EQ(VarintLength(actual), p - start);
  }
  EXPECT_EQ(p, s.data() + s.size());
}

TEST(CodingTest, Varint64) {
  std::vector<uint64_t> values = {0, 100, ~static_cast<uint64_t>(0)};
  for (uint32_t k = 0; k < 64; k++) {
    const uint64_t power = 1ull << k;
    values.push_back(power);
    values.push_back(power - 1);
    values.push_back(power + 1);
  }
  std::string s;
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Overflow) {
  uint32_t result;
  std::string input("\x81\x82\x83\x84\x85\x11");
  EXPECT_EQ(nullptr, GetVarint32Ptr(input.data(),
                                    input.data() + input.size(), &result));
}

TEST(CodingTest, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len < s.size() - 1; len++) {
    EXPECT_EQ(nullptr, GetVarint32Ptr(s.data(), s.data() + len, &result));
  }
  EXPECT_NE(nullptr,
            GetVarint32Ptr(s.data(), s.data() + s.size(), &result));
  EXPECT_EQ(large_value, result);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice("bar"));
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice(std::string(1000, 'x')));

  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("bar", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(1000, 'x'), v.ToString());
  EXPECT_TRUE(input.empty());
}

TEST(HashTest, SignedUnsignedIssue) {
  const uint8_t data1[1] = {0x62};
  const uint8_t data2[2] = {0xc3, 0x97};
  const uint8_t data3[3] = {0xe2, 0x99, 0xa5};
  EXPECT_EQ(Hash(nullptr, 0, 0xbc9f1d34), 0xbc9f1d34u);
  // Stability: same input, same output.
  EXPECT_EQ(Hash(reinterpret_cast<const char*>(data1), 1, 0xbc9f1d34),
            Hash(reinterpret_cast<const char*>(data1), 1, 0xbc9f1d34));
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data2), 2, 1),
            Hash(reinterpret_cast<const char*>(data3), 3, 1));
}

// Persisted vlog records, manifests, SSTable blocks and zone runs carry
// this checksum, so its value for a given input must never change.
TEST(HashTest, ChecksumIsStableAndCatchesAFlippedBit) {
  const std::string data = "123456789";
  EXPECT_EQ(0x17635a74u, Checksum(data.data(), data.size()));
  EXPECT_EQ(0x0db97531u, Checksum(nullptr, 0));
  for (size_t bit = 0; bit < data.size() * 8; bit++) {
    std::string flipped = data;
    flipped[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    EXPECT_NE(Checksum(data.data(), data.size()),
              Checksum(flipped.data(), flipped.size()))
        << "bit " << bit;
  }
}

TEST(HashTest, Hash64Avalanche) {
  // Flipping one bit should change roughly half the output bits.
  std::string a = "the quick brown fox";
  std::string b = a;
  b[0] ^= 1;
  uint64_t ha = Hash64(a.data(), a.size(), 0);
  uint64_t hb = Hash64(b.data(), b.size(), 0);
  int diff = __builtin_popcountll(ha ^ hb);
  EXPECT_GT(diff, 10);
  EXPECT_LT(diff, 54);
}

TEST(RandomTest, Uniformity) {
  Random rng(301);
  const int kBuckets = 16;
  const int kSamples = 160000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kSamples; i++) {
    counts[rng.Uniform(kBuckets)]++;
  }
  for (int b = 0; b < kBuckets; b++) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets / 5);
  }
}

TEST(RandomTest, NextDoubleRange) {
  Random rng(1);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(99), b(99);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(ZipfianTest, RankZeroMostPopular) {
  ZipfianGenerator gen(1000, 0.99, 17);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; i++) {
    counts[gen.Next()]++;
  }
  // Rank 0 should dominate any mid-range rank.
  EXPECT_GT(counts[0], counts[500] * 5);
  // And the distribution must cover a broad range.
  int nonzero = 0;
  for (int c : counts) {
    if (c > 0) nonzero++;
  }
  EXPECT_GT(nonzero, 200);
}

TEST(ZipfianTest, InRange) {
  ZipfianGenerator gen(64, 0.99, 3);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(gen.Next(), 64u);
  }
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  ScrambledZipfianGenerator gen(1000, 0.99, 5);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; i++) {
    counts[gen.Next()]++;
  }
  // The hottest keys should not all be adjacent: find the top key and
  // check its neighborhood is not uniformly hot.
  int hottest = 0;
  for (int i = 0; i < 1000; i++) {
    if (counts[i] > counts[hottest]) hottest = i;
  }
  EXPECT_GT(counts[hottest], 1000);
}

TEST(LatestTest, FavorsRecent) {
  LatestGenerator gen(1000, 0.99, 7);
  int high = 0, low = 0;
  for (int i = 0; i < 10000; i++) {
    uint64_t v = gen.Next();
    ASSERT_LT(v, 1000u);
    if (v >= 900) high++;
    if (v < 100) low++;
  }
  EXPECT_GT(high, low * 3);
  gen.UpdateCount(2000);
  bool saw_new = false;
  for (int i = 0; i < 1000; i++) {
    if (gen.Next() >= 1000) {
      saw_new = true;
      break;
    }
  }
  EXPECT_TRUE(saw_new);
}

TEST(ArenaTest, Empty) { Arena arena; }

TEST(ArenaTest, Simple) {
  std::vector<std::pair<size_t, char*>> allocated;
  Arena arena;
  const int N = 100000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < N; i++) {
    size_t s;
    if (i % (N / 10) == 0) {
      s = i;
    } else {
      s = rnd.OneIn(4000)
              ? rnd.Uniform(6000)
              : (rnd.OneIn(10) ? rnd.Uniform(100) : rnd.Uniform(20));
    }
    if (s == 0) {
      s = 1;
    }
    char* r;
    if (rnd.OneIn(10)) {
      r = arena.AllocateAligned(s);
    } else {
      r = arena.Allocate(s);
    }
    for (size_t b = 0; b < s; b++) {
      r[b] = i % 256;
    }
    bytes += s;
    allocated.push_back(std::make_pair(s, r));
    EXPECT_GE(arena.MemoryUsage(), bytes);
  }
  for (size_t i = 0; i < allocated.size(); i++) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; b++) {
      EXPECT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

TEST(HistogramTest, Empty) {
  Histogram h;
  EXPECT_EQ(0u, h.count());
  EXPECT_EQ(0, h.Average());
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(100);
  EXPECT_EQ(1u, h.count());
  EXPECT_EQ(100, h.Average());
  EXPECT_EQ(100, h.min());
  EXPECT_EQ(100, h.max());
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; i++) {
    h.Add(i);
  }
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_NEAR(h.Percentile(50), 5000, 600);
  EXPECT_NEAR(h.Average(), 5000.5, 1);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  for (int i = 0; i < 100; i++) a.Add(10);
  for (int i = 0; i < 100; i++) b.Add(30);
  a.Merge(b);
  EXPECT_EQ(200u, a.count());
  EXPECT_NEAR(a.Average(), 20, 0.01);
  EXPECT_EQ(10, a.min());
  EXPECT_EQ(30, a.max());
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(0u, h.count());
  EXPECT_EQ(0, h.Average());
}

TEST(HistogramTest, PercentileOfEmptyIsZeroSentinel) {
  // An empty histogram has no samples to rank: every percentile answers
  // the 0 sentinel instead of garbage from uninitialized min/max.
  Histogram h;
  EXPECT_EQ(0, h.Percentile(0));
  EXPECT_EQ(0, h.Percentile(50));
  EXPECT_EQ(0, h.Percentile(99));
  EXPECT_EQ(0, h.Percentile(100));
}

TEST(HistogramTest, PercentileSingleSampleIsExact) {
  // One sample: every percentile is that sample, not a bucket-midpoint
  // interpolation above or below it.
  Histogram h;
  h.Add(12345);
  EXPECT_EQ(12345, h.Percentile(0));
  EXPECT_EQ(12345, h.Percentile(50));
  EXPECT_EQ(12345, h.Percentile(99));
  EXPECT_EQ(12345, h.Percentile(100));
}

TEST(HistogramTest, PercentileSingleBucketIsExact) {
  // Many identical samples land in one bucket; min == max pins the
  // answer exactly (no interpolation drift).
  Histogram h;
  for (int i = 0; i < 1000; i++) h.Add(777);
  EXPECT_EQ(777, h.Percentile(50));
  EXPECT_EQ(777, h.Percentile(99));
}

TEST(HistogramTest, PercentileBoundsClampToMinMax) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Add(i * 10);
  EXPECT_EQ(10, h.Percentile(0));
  EXPECT_EQ(10, h.Percentile(-5));
  EXPECT_EQ(1000, h.Percentile(100));
  EXPECT_EQ(1000, h.Percentile(250));
}

}  // namespace
}  // namespace cachekv
