#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_sim.h"
#include "pmem/pmem_device.h"
#include "pmem/pmem_env.h"
#include "util/hash.h"
#include "util/random.h"

namespace cachekv {
namespace {

LatencyCosts NoLatency() {
  LatencyCosts c;
  c.scale = 0;
  return c;
}

PmemConfig DeviceConfig() {
  PmemConfig c;
  c.capacity = 32ull << 20;
  c.num_dimms = 2;
  c.xpbuffer_slots = 8;
  return c;
}

class CacheSimTest : public ::testing::Test {
 protected:
  CacheSimTest() : latency_(NoLatency()), device_(DeviceConfig(), &latency_) {}

  void MakeCache(uint64_t capacity, int ways, uint64_t locked_size,
                 PersistDomain domain = PersistDomain::kEadr) {
    CacheConfig config;
    config.capacity = capacity;
    config.ways = ways;
    config.locked_base = 0;
    config.locked_size = locked_size;
    config.domain = domain;
    cache_ = std::make_unique<CacheSim>(config, &device_, &latency_);
  }

  LatencyModel latency_;
  PmemDevice device_;
  std::unique_ptr<CacheSim> cache_;
};

TEST_F(CacheSimTest, StoreLoadRoundTrip) {
  MakeCache(1 << 20, 8, 0);
  const std::string data = "persistent cpu caches";
  cache_->Store(1000, data.data(), data.size());
  char out[64] = {0};
  cache_->Load(1000, out, data.size());
  EXPECT_EQ(data, std::string(out, data.size()));
}

TEST_F(CacheSimTest, StoreSpanningManyLines) {
  MakeCache(1 << 20, 8, 0);
  std::string data(1000, '\0');
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>('a' + (i % 26));
  }
  cache_->Store(777, data.data(), data.size());  // unaligned start
  std::string out(1000, '\0');
  cache_->Load(777, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST_F(CacheSimTest, DirtyLineNotVisibleOnMediaUntilWriteback) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'd';
  cache_->Store(0, &byte, 1);
  // Media must still hold zeros (the line is dirty in cache).
  device_.DrainAll();
  EXPECT_EQ(0, device_.raw_media()[0]);
  cache_->Clwb(0, 1);
  device_.DrainAll();
  EXPECT_EQ('d', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, ClwbKeepsLineValid) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'k';
  cache_->Store(64, &byte, 1);
  uint64_t misses_before = cache_->stats().load_misses.load();
  cache_->Clwb(64, 1);
  char out;
  cache_->Load(64, &out, 1);
  EXPECT_EQ('k', out);
  EXPECT_EQ(misses_before, cache_->stats().load_misses.load())
      << "clwb must not invalidate the line";
}

TEST_F(CacheSimTest, ClflushInvalidates) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'f';
  cache_->Store(128, &byte, 1);
  cache_->Clflush(128, 1);
  uint64_t misses_before = cache_->stats().load_misses.load();
  char out;
  cache_->Load(128, &out, 1);
  EXPECT_EQ('f', out);
  EXPECT_EQ(misses_before + 1, cache_->stats().load_misses.load());
}

TEST_F(CacheSimTest, EvictionWritesBackDirtyLines) {
  // Tiny cache: 2 sets x 2 ways. Fill one set beyond associativity.
  MakeCache(4 * kCacheLineSize, 2, 0);
  char buf[kCacheLineSize];
  memset(buf, 'e', sizeof(buf));
  // These addresses all map to set 0 (line_number even).
  for (int i = 0; i < 4; i++) {
    cache_->Store(static_cast<uint64_t>(i) * 2 * kCacheLineSize, buf,
                  kCacheLineSize);
  }
  EXPECT_GE(cache_->stats().dirty_evictions.load(), 2u);
  // The evicted data must be readable through the device.
  char out[kCacheLineSize];
  cache_->Load(0, out, kCacheLineSize);
  EXPECT_EQ('e', out[0]);
}

TEST_F(CacheSimTest, LruEvictsColdestLine) {
  MakeCache(2 * kCacheLineSize, 2, 0);  // 1 set, 2 ways
  char a[kCacheLineSize], b[kCacheLineSize], c[kCacheLineSize];
  memset(a, 'a', sizeof(a));
  memset(b, 'b', sizeof(b));
  memset(c, 'c', sizeof(c));
  cache_->Store(0, a, kCacheLineSize);
  cache_->Store(64, b, kCacheLineSize);
  // Touch line 0 so line 64 becomes LRU.
  char tmp;
  cache_->Load(0, &tmp, 1);
  cache_->Store(128, c, kCacheLineSize);  // evicts line 64
  // Loading line 0 must be a hit; line 64 a miss.
  uint64_t misses = cache_->stats().load_misses.load();
  cache_->Load(0, &tmp, 1);
  EXPECT_EQ(misses, cache_->stats().load_misses.load());
  cache_->Load(64, &tmp, 1);
  EXPECT_EQ(misses + 1, cache_->stats().load_misses.load());
  EXPECT_EQ('b', tmp);
}

TEST_F(CacheSimTest, NtStoreBypassesCache) {
  MakeCache(1 << 20, 8, 0);
  char buf[kXPLineSize];
  memset(buf, 'n', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  EXPECT_EQ(4u, cache_->stats().nt_lines.load());
  // Data reached the device (buffered or on media) without dirtying cache.
  char out[kXPLineSize];
  device_.Read(0, out, sizeof(out));
  EXPECT_EQ('n', out[0]);
  EXPECT_EQ('n', out[kXPLineSize - 1]);
}

TEST_F(CacheSimTest, NtStoreInvalidatesCachedCopy) {
  MakeCache(1 << 20, 8, 0);
  char cached = 'o';
  cache_->Store(0, &cached, 1);
  char buf[kCacheLineSize];
  memset(buf, 'w', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  char out;
  cache_->Load(0, &out, 1);
  EXPECT_EQ('w', out);
}

TEST_F(CacheSimTest, NtStorePartialLineMergesDirtyCachedBytes) {
  MakeCache(1 << 20, 8, 0);
  // Dirty byte 63 in cache, then nt-store bytes [0, 32) of the same line.
  char cached = 'z';
  cache_->Store(63, &cached, 1);
  char buf[32];
  memset(buf, 'm', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  char out[kCacheLineSize];
  cache_->Load(0, out, sizeof(out));
  EXPECT_EQ('m', out[0]);
  EXPECT_EQ('m', out[31]);
  EXPECT_EQ('z', out[63]) << "dirty cached byte must survive the merge";
}

TEST_F(CacheSimTest, PartialNtStoreIsNotUndoneByARacingFill) {
  // An appender nt-stores records that share lines, as the value log
  // does, while a reader loads the newest published record. The
  // reader's cache fill of a line the next append is writing must not
  // leave that line's old bytes cached: each read-back must see its
  // record.
  MakeCache(1 << 20, 8, 0);
  constexpr int kRecords = 20000;
  constexpr size_t kRecord = 40;  // not a line multiple
  std::atomic<uint64_t> published{0};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    char buf[kRecord];
    while (!done.load()) {
      const uint64_t end = published.load();
      if (end >= kRecord) cache_->Load(end - kRecord, buf, kRecord);
    }
  });
  int stale = 0;
  char record[kRecord], got[kRecord];
  for (int i = 0; i < kRecords; i++) {
    memset(record, 'a' + i % 26, kRecord);
    const uint64_t addr = static_cast<uint64_t>(i) * kRecord;
    cache_->NtStore(addr, record, kRecord);
    cache_->Load(addr, got, kRecord);
    if (memcmp(record, got, kRecord) != 0) stale++;
    published.store(addr + kRecord);
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(0, stale);
}

TEST_F(CacheSimTest, SequentialNtStoreGetsHighXPBufferHitRatio) {
  MakeCache(1 << 20, 8, 0);
  std::string big(64 * 1024, 'q');
  cache_->NtStore(0, big.data(), big.size());
  // Sequential 64 B lines: 3 of every 4 combine into an open XPLine.
  EXPECT_GT(device_.counters().WriteHitRatio(), 0.7);
  device_.DrainAll();
  EXPECT_LT(device_.counters().WriteAmplification(), 1.1);
}

TEST_F(CacheSimTest, RandomEvictionAmplifiesWrites) {
  // This is observation Ob1/R1: scattered 64 B dirty evictions miss the
  // XPBuffer and cause RMW on the media.
  MakeCache(64 * kCacheLineSize, 2, 0);  // tiny cache to force evictions
  Random rng(9);
  char buf[kCacheLineSize];
  memset(buf, 'r', sizeof(buf));
  for (int i = 0; i < 4000; i++) {
    uint64_t line = rng.Uniform((16ull << 20) / kCacheLineSize);
    cache_->Store(line * kCacheLineSize, buf, kCacheLineSize);
  }
  cache_->WritebackAll();
  EXPECT_LT(device_.counters().WriteHitRatio(), 0.2);
  EXPECT_GT(device_.counters().WriteAmplification(), 2.0);
}

TEST_F(CacheSimTest, LockedRegionNeverEvictedByOtherTraffic) {
  // 64 KB locked region + tiny normal partition.
  MakeCache((64ull << 10) + 8 * kCacheLineSize, 2, 64ull << 10);
  char buf[kCacheLineSize];
  memset(buf, 'L', sizeof(buf));
  // Populate the locked region.
  for (uint64_t addr = 0; addr < (64ull << 10); addr += kCacheLineSize) {
    cache_->Store(addr, buf, kCacheLineSize);
  }
  EXPECT_EQ((64ull << 10) / kCacheLineSize, cache_->LockedResidentLines());
  // Blast unrelated traffic through the normal partition.
  memset(buf, 'x', sizeof(buf));
  for (uint64_t i = 0; i < 10000; i++) {
    cache_->Store((1ull << 20) + i * kCacheLineSize, buf, kCacheLineSize);
  }
  // Locked lines are all still resident and no locked byte reached media.
  EXPECT_EQ((64ull << 10) / kCacheLineSize, cache_->LockedResidentLines());
  device_.DrainAll();
  EXPECT_NE('L', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, ClflushEvictsEvenLockedLines) {
  MakeCache(1 << 20, 8, 64ull << 10);
  char buf = 'c';
  cache_->Store(0, &buf, 1);
  EXPECT_GE(cache_->LockedResidentLines(), 1u);
  cache_->Clflush(0, 1);
  EXPECT_EQ(0u, cache_->LockedResidentLines());
  device_.DrainAll();
  EXPECT_EQ('c', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, EadrCrashPersistsDirtyLines) {
  MakeCache(1 << 20, 8, 64ull << 10, PersistDomain::kEadr);
  const std::string data = "must survive power failure";
  cache_->Store(100, data.data(), data.size());          // locked region
  cache_->Store(1ull << 19, data.data(), data.size());   // normal region
  cache_->Crash();
  EXPECT_EQ(0, memcmp(device_.raw_media() + 100, data.data(), data.size()));
  EXPECT_EQ(0, memcmp(device_.raw_media() + (1ull << 19), data.data(),
                      data.size()));
  // And the cache is cold afterwards.
  EXPECT_EQ(0u, cache_->LockedResidentLines());
}

TEST_F(CacheSimTest, AdrCrashDropsDirtyLines) {
  MakeCache(1 << 20, 8, 0, PersistDomain::kAdr);
  const std::string data = "will be lost";
  cache_->Store(0, data.data(), data.size());
  cache_->Crash();
  EXPECT_NE(0, memcmp(device_.raw_media(), data.data(), data.size()));
}

TEST_F(CacheSimTest, AdrCrashKeepsFlushedLines) {
  MakeCache(1 << 20, 8, 0, PersistDomain::kAdr);
  const std::string data = "explicitly flushed";
  cache_->Store(0, data.data(), data.size());
  cache_->Clwb(0, data.size());
  cache_->Sfence();
  cache_->Crash();
  EXPECT_EQ(0, memcmp(device_.raw_media(), data.data(), data.size()));
}

TEST_F(CacheSimTest, Atomic64RoundTrip) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(8, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(0xdeadbeefcafef00dULL, cache_->Load64(8));
}

TEST_F(CacheSimTest, CompareExchangeSuccessAndFailure) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(16, 42);
  uint64_t expected = 42;
  EXPECT_TRUE(cache_->CompareExchange64(16, &expected, 43));
  EXPECT_EQ(43u, cache_->Load64(16));
  expected = 42;  // stale
  EXPECT_FALSE(cache_->CompareExchange64(16, &expected, 99));
  EXPECT_EQ(43u, expected) << "failed CAS must report the observed value";
  EXPECT_EQ(43u, cache_->Load64(16));
}

TEST_F(CacheSimTest, ConcurrentCasIsLinearizable) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(0, 0);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) {
        uint64_t cur = cache_->Load64(0);
        while (!cache_->CompareExchange64(0, &cur, cur + 1)) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kIncrements,
            cache_->Load64(0));
}

TEST_F(CacheSimTest, ConcurrentDisjointStores) {
  MakeCache(1 << 20, 8, 0);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      char buf[kCacheLineSize];
      memset(buf, 'A' + t, sizeof(buf));
      uint64_t base = static_cast<uint64_t>(t) << 18;
      for (int i = 0; i < 1000; i++) {
        cache_->Store(base + static_cast<uint64_t>(i) * kCacheLineSize,
                      buf, kCacheLineSize);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) {
    char out;
    cache_->Load(static_cast<uint64_t>(t) << 18, &out, 1);
    EXPECT_EQ('A' + t, out);
  }
}

// Golden substrate trace. A seeded, single-threaded mix of every cache
// operation runs through one PmemEnv at latency scale 1: lengths from 1 B
// to over 16 KiB, addresses inside and outside the CAT-locked window, and
// a 1 MB LLC so that lines are evicted. Every counter, the total injected
// device time, a digest of every loaded byte and a hash of the media are
// compared with constants recorded from the line-at-a-time simulator
// (one std::list XPBuffer per DIMM, one latency charge per line). A change
// to how the simulator represents its state must reproduce all of them;
// never edit the constants to make this test pass.
TEST(CacheSimGoldenTest, SeededMixMatchesRecordedTrace) {
  EnvOptions o;
  o.pmem_capacity = 8ull << 20;
  o.llc_capacity = 1ull << 20;
  o.cat_locked_bytes = 64ull << 10;
  o.latency.scale = 1;
  PmemEnv env(o);
  CacheSim* cache = env.cache();

  constexpr uint64_t kSpace = 6ull << 20;
  constexpr size_t kMaxLen = (16 << 10) + 1024;
  std::vector<char> buf(kMaxLen);
  Random rng(20230417);
  uint64_t digest = 0;

  auto pick_len = [&]() -> size_t {
    switch (rng.Uniform(8)) {
      case 0: return 1 + rng.Uniform(8);
      case 1:
      case 2: return 1 + rng.Uniform(kCacheLineSize);
      case 3: return 65 + rng.Uniform(960);
      case 4: return kXPLineSize * (1 + rng.Uniform(8));
      case 5: return 1025 + rng.Uniform(3072);
      case 6: return (16 << 10) + 1 + rng.Uniform(1023);
      default: return 1 + rng.Uniform(16 << 10);
    }
  };
  auto pick_addr = [&](size_t len) -> uint64_t {
    // One access in four lands in or across the CAT-locked window.
    uint64_t a = rng.OneIn(4) ? rng.Uniform(o.cat_locked_bytes + 8192)
                              : rng.Uniform(kSpace);
    switch (rng.Uniform(3)) {
      case 0: a = AlignDown(a, kXPLineSize); break;
      case 1: a = AlignDown(a, kCacheLineSize); break;
      default: break;
    }
    return std::min<uint64_t>(a, kSpace - len);
  };
  auto fill = [&](size_t len, uint64_t seed) {
    for (size_t i = 0; i < len; i++) {
      buf[i] = static_cast<char>(seed + i * 31);
    }
  };

  for (int op = 0; op < 3000; op++) {
    const size_t len = pick_len();
    const uint64_t addr = pick_addr(len);
    const uint64_t word = AlignDown(addr, 8);
    switch (rng.Uniform(16)) {
      case 0: case 1: case 2: case 3:
        fill(len, rng.Next64());
        cache->Store(addr, buf.data(), len);
        break;
      case 4: case 5: case 6:
        cache->Load(addr, buf.data(), len);
        digest = Hash64(buf.data(), len, digest);
        break;
      case 7: case 8:
        fill(len, rng.Next64());
        cache->NtStore(addr, buf.data(), len);
        break;
      case 9:
        cache->Clwb(addr, len);
        break;
      case 10:
        cache->Clflush(addr, len);
        break;
      case 11:
        cache->Sfence();
        break;
      case 12:
        cache->Store64(word, rng.Next64());
        break;
      case 13: {
        const uint64_t v = cache->Load64(word);
        digest = Hash64(reinterpret_cast<const char*>(&v), 8, digest);
        break;
      }
      case 14: {
        uint64_t expected = rng.OneIn(2) ? cache->Load64(word) : op;
        const bool swapped =
            cache->CompareExchange64(word, &expected, rng.Next64());
        expected ^= swapped ? 1 : 0;
        digest = Hash64(reinterpret_cast<const char*>(&expected), 8, digest);
        break;
      }
      default:
        fill(len, rng.Next64());
        cache->Store(addr, buf.data(), len);
        cache->Clwb(addr, len);
        cache->Sfence();
        break;
    }
  }
  cache->WritebackAll();

  const CacheStats& cs = cache->stats();
  const PmemCounters& pc = env.device()->counters();
  EXPECT_EQ(9676u, cs.load_hits.load());
  EXPECT_EQ(21988u, cs.load_misses.load());
  EXPECT_EQ(14723u, cs.store_hits.load());
  EXPECT_EQ(39674u, cs.store_misses.load());
  EXPECT_EQ(37233u, cs.evictions.load());
  EXPECT_EQ(20587u, cs.dirty_evictions.load());
  EXPECT_EQ(32812u, cs.clwb_lines.load());
  EXPECT_EQ(23487u, cs.nt_lines.load());
  EXPECT_EQ(385u, cs.fences.load());
  EXPECT_EQ(67750u, pc.lines_received.load());
  EXPECT_EQ(4336000u, pc.bytes_received.load());
  EXPECT_EQ(45969u, pc.xpbuffer_hits.load());
  EXPECT_EQ(21781u, pc.xpbuffer_misses.load());
  EXPECT_EQ(5575936u, pc.media_bytes_written.load());
  EXPECT_EQ(8197376u, pc.media_bytes_read.load());
  EXPECT_EQ(8864u, pc.rmw_count.load());
  EXPECT_EQ(12917u, pc.full_line_writebacks.load());
  EXPECT_EQ(23487u, pc.nt_lines_received.load());
  EXPECT_EQ(1503168u, pc.nt_bytes_received.load());
  EXPECT_EQ(0u, pc.oob_accesses.load());
  EXPECT_EQ(17674475u, env.latency()->total_injected_ns());
  EXPECT_EQ(14670179019053904670ull, digest);
  EXPECT_EQ(13135184571351517050ull, Hash64(env.device()->raw_media(), o.pmem_capacity, 0));
}

// Four threads write interleaved 128 B chunks, so every XPLine holds
// lines of two threads and every DIMM sees all four. Even rounds use
// NtStore, odd rounds Store+Clwb; each thread then reads its own chunks
// back. Every written line reaches the device exactly once: an NtStore
// sends it, and a Store+Clwb sends it by the clwb or by an eviction in
// between.
TEST_F(CacheSimTest, ConcurrentNtStoreAndClwbOnSharedXPLines) {
  MakeCache(256 << 10, 8, 0);
  constexpr int kThreads = 4;
  constexpr int kChunks = 512;  // per thread
  constexpr int kRounds = 4;
  constexpr size_t kChunk = 2 * kCacheLineSize;
  auto chunk_addr = [](int t, int c) {
    return static_cast<uint64_t>(c * kThreads + t) * kChunk;
  };
  auto pattern = [](int t, int c, int round, char* out) {
    for (size_t i = 0; i < kChunk; i++) {
      out[i] = static_cast<char>(t * 61 + c * 7 + round * 13 + i);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      char buf[kChunk];
      for (int round = 0; round < kRounds; round++) {
        for (int c = 0; c < kChunks; c++) {
          pattern(t, c, round, buf);
          if (round % 2 == 0) {
            cache_->NtStore(chunk_addr(t, c), buf, kChunk);
          } else {
            cache_->Store(chunk_addr(t, c), buf, kChunk);
            cache_->Clwb(chunk_addr(t, c), kChunk);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  threads.clear();
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      char want[kChunk], got[kChunk];
      for (int c = 0; c < kChunks; c++) {
        pattern(t, c, kRounds - 1, want);
        cache_->Load(chunk_addr(t, c), got, kChunk);
        if (memcmp(want, got, kChunk) != 0) mismatches++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, mismatches.load());
  const uint64_t lines_sent = static_cast<uint64_t>(kThreads) * kChunks *
                              kRounds * (kChunk / kCacheLineSize);
  EXPECT_EQ(lines_sent, device_.counters().lines_received.load());
  EXPECT_EQ(lines_sent / 2, device_.counters().nt_lines_received.load());
  EXPECT_EQ(0u, device_.counters().oob_accesses.load());
}

}  // namespace
}  // namespace cachekv
