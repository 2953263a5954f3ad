#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "pmem/pmem_allocator.h"
#include "pmem/pmem_device.h"
#include "util/random.h"

namespace cachekv {
namespace {

PmemConfig SmallConfig() {
  PmemConfig c;
  c.capacity = 16ull << 20;
  c.num_dimms = 2;
  c.xpbuffer_slots = 4;
  return c;
}

class PmemDeviceTest : public ::testing::Test {
 protected:
  PmemDeviceTest() : latency_(NoLatency()), device_(SmallConfig(), &latency_) {}

  static LatencyCosts NoLatency() {
    LatencyCosts c;
    c.scale = 0;
    return c;
  }

  void WriteLine(uint64_t addr, char fill) {
    char buf[kCacheLineSize];
    memset(buf, fill, sizeof(buf));
    device_.ReceiveLine(addr, buf);
  }

  LatencyModel latency_;
  PmemDevice device_;
};

TEST_F(PmemDeviceTest, ReadBackSingleLine) {
  WriteLine(0, 'a');
  char out[kCacheLineSize];
  device_.Read(0, out, sizeof(out));
  for (size_t i = 0; i < kCacheLineSize; i++) {
    EXPECT_EQ('a', out[i]);
  }
}

TEST_F(PmemDeviceTest, ReadObservesXPBufferFreshness) {
  // Write a line, let it stay buffered, and read it back: the read must
  // see the buffered (fresh) bytes, not stale media.
  WriteLine(64, 'x');
  char out[kCacheLineSize];
  device_.Read(64, out, sizeof(out));
  EXPECT_EQ('x', out[0]);
  // Now overwrite while the slot is still open.
  WriteLine(64, 'y');
  device_.Read(64, out, sizeof(out));
  EXPECT_EQ('y', out[0]);
}

TEST_F(PmemDeviceTest, SequentialLinesCombineInXPBuffer) {
  // Writing the 4 cachelines of one XPLine in order: first is a miss,
  // the next three are combining hits.
  for (int i = 0; i < 4; i++) {
    WriteLine(i * kCacheLineSize, static_cast<char>('a' + i));
  }
  EXPECT_EQ(1u, device_.counters().xpbuffer_misses.load());
  EXPECT_EQ(3u, device_.counters().xpbuffer_hits.load());
  EXPECT_DOUBLE_EQ(0.75, device_.counters().WriteHitRatio());
}

TEST_F(PmemDeviceTest, FullXPLineWritebackAvoidsRmw) {
  for (int i = 0; i < 4; i++) {
    WriteLine(i * kCacheLineSize, 'z');
  }
  device_.DrainAll();
  EXPECT_EQ(0u, device_.counters().rmw_count.load());
  EXPECT_EQ(1u, device_.counters().full_line_writebacks.load());
  EXPECT_EQ(kXPLineSize, device_.counters().media_bytes_written.load());
}

TEST_F(PmemDeviceTest, PartialXPLineWritebackTriggersRmw) {
  WriteLine(0, 'p');  // only 64 of 256 bytes dirty
  device_.DrainAll();
  EXPECT_EQ(1u, device_.counters().rmw_count.load());
  EXPECT_EQ(kXPLineSize, device_.counters().media_bytes_written.load());
  EXPECT_EQ(kXPLineSize, device_.counters().media_bytes_read.load());
  // 64 bytes written by the user became 256 media bytes: 4x write amp.
  EXPECT_DOUBLE_EQ(4.0, device_.counters().WriteAmplification());
}

TEST_F(PmemDeviceTest, RmwPreservesSurroundingBytes) {
  // Fill an XPLine fully, drain, then dirty only one cacheline of it.
  for (int i = 0; i < 4; i++) {
    WriteLine(i * kCacheLineSize, 'a');
  }
  device_.DrainAll();
  WriteLine(2 * kCacheLineSize, 'b');
  device_.DrainAll();
  char out[kXPLineSize];
  device_.Read(0, out, sizeof(out));
  for (size_t i = 0; i < kXPLineSize; i++) {
    char expect = (i >= 2 * kCacheLineSize && i < 3 * kCacheLineSize)
                      ? 'b'
                      : 'a';
    EXPECT_EQ(expect, out[i]) << "byte " << i;
  }
}

TEST_F(PmemDeviceTest, ScatteredWritesMissXPBuffer) {
  // Random far-apart lines exceed the 4-slot buffer: every write is a
  // miss and every writeback is an RMW.
  Random rng(5);
  const int kWrites = 64;
  for (int i = 0; i < kWrites; i++) {
    uint64_t addr =
        AlignDown(rng.Uniform(SmallConfig().capacity - kXPLineSize),
                  kXPLineSize);
    WriteLine(addr, 'r');
  }
  EXPECT_LT(device_.counters().WriteHitRatio(), 0.1);
  device_.DrainAll();
  EXPECT_GT(device_.counters().WriteAmplification(), 3.0);
}

TEST_F(PmemDeviceTest, EvictionOnBufferOverflow) {
  // 2 DIMMs x 4 slots; writing 20 distinct XPLines on one DIMM must evict.
  uint64_t media_before = device_.counters().media_bytes_written.load();
  for (int i = 0; i < 20; i++) {
    WriteLine(static_cast<uint64_t>(i) * kXPLineSize, 'e');
  }
  // The first 4 distinct XPLines (per touched DIMM) fit; later ones evict.
  EXPECT_GT(device_.counters().media_bytes_written.load(), media_before);
}

TEST_F(PmemDeviceTest, DrainAllEmptiesBuffer) {
  WriteLine(0, 'q');
  device_.DrainAll();
  uint64_t media = device_.counters().media_bytes_written.load();
  device_.DrainAll();  // second drain is a no-op
  EXPECT_EQ(media, device_.counters().media_bytes_written.load());
}

TEST_F(PmemDeviceTest, ReadSpanningXPLines) {
  for (int i = 0; i < 8; i++) {
    WriteLine(i * kCacheLineSize, static_cast<char>('0' + i));
  }
  device_.DrainAll();
  char out[kXPLineSize * 2];
  device_.Read(0, out, sizeof(out));
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(static_cast<char>('0' + i), out[i * kCacheLineSize]);
  }
  // Unaligned read crossing an XPLine boundary.
  char small[100];
  device_.Read(200, small, sizeof(small));
  EXPECT_EQ('3', small[0]);    // byte 200 lies in cacheline 3
  EXPECT_EQ('4', small[60]);   // byte 260 lies in cacheline 4
}

TEST_F(PmemDeviceTest, CountersReset) {
  WriteLine(0, 'c');
  device_.counters().Reset();
  EXPECT_EQ(0u, device_.counters().lines_received.load());
  EXPECT_EQ(0u, device_.counters().media_bytes_written.load());
  EXPECT_DOUBLE_EQ(0.0, device_.counters().WriteHitRatio());
}

TEST_F(PmemDeviceTest, EvictsLeastRecentlyWrittenXPLine) {
  // Four slots, all on DIMM 0: open A, B, C, D, then write A again, so B
  // is the least recently written when E arrives.
  const uint64_t a = 0, b = 256, c = 512, d = 768, e = 1024;
  for (uint64_t x : {a, b, c, d, a}) WriteLine(x, 'o');
  EXPECT_EQ(0u, device_.counters().media_bytes_written.load());
  WriteLine(e, 'o');
  EXPECT_EQ(kXPLineSize, device_.counters().media_bytes_written.load());
  EXPECT_EQ('o', device_.raw_media()[b]);
  EXPECT_EQ(0, device_.raw_media()[a]);
  EXPECT_EQ(0, device_.raw_media()[c]);
}

// ReceiveLines(addr, data, n) must leave data, counters and the XPBuffer
// exactly as n ReceiveLine calls do; a seeded mix of groups with
// overflowing buffers checks this against a second device.
TEST_F(PmemDeviceTest, ReceiveLinesMatchesLineByLine) {
  PmemDevice lines(SmallConfig(), &latency_);
  Random rng(41);
  char buf[kXPLineSize];
  char out_batched[kXPLineSize], out_single[kXPLineSize];
  for (int op = 0; op < 20000; op++) {
    const uint64_t xpline = rng.Uniform(64) * kXPLineSize;
    const int first = static_cast<int>(rng.Uniform(4));
    const int n = 1 + static_cast<int>(rng.Uniform(4 - first));
    const bool nt = rng.OneIn(2);
    for (size_t i = 0; i < sizeof(buf); i++) {
      buf[i] = static_cast<char>(op + i);
    }
    const uint64_t addr = xpline + first * kCacheLineSize;
    device_.ReceiveLines(addr, buf, n, nt);
    for (int i = 0; i < n; i++) {
      lines.ReceiveLine(addr + i * kCacheLineSize, buf + i * kCacheLineSize,
                        nt);
    }
    if (rng.OneIn(8)) {
      const uint64_t at = rng.Uniform(64 * kXPLineSize - 300);
      device_.Read(at, out_batched, 300 - 44);
      lines.Read(at, out_single, 300 - 44);
      ASSERT_EQ(0, memcmp(out_batched, out_single, 300 - 44)) << op;
    }
  }
  // Out-of-range groups are dropped and counted per line; a group that
  // does not fit in one XPLine is dropped and counted once.
  device_.ReceiveLines(device_.capacity(), buf, 3, false);
  for (int i = 0; i < 3; i++) {
    lines.ReceiveLine(lines.capacity() + i * kCacheLineSize, buf, false);
  }
  const uint64_t received = device_.counters().lines_received.load();
  device_.ReceiveLines(2 * kCacheLineSize, buf, 3, false);
  device_.ReceiveLines(0, buf, 0, false);
  EXPECT_EQ(received, device_.counters().lines_received.load());
  device_.DrainAll();
  lines.DrainAll();
  const PmemCounters& x = device_.counters();
  const PmemCounters& y = lines.counters();
  EXPECT_EQ(y.lines_received.load(), x.lines_received.load());
  EXPECT_EQ(y.bytes_received.load(), x.bytes_received.load());
  EXPECT_EQ(y.xpbuffer_hits.load(), x.xpbuffer_hits.load());
  EXPECT_EQ(y.xpbuffer_misses.load(), x.xpbuffer_misses.load());
  EXPECT_EQ(y.media_bytes_written.load(), x.media_bytes_written.load());
  EXPECT_EQ(y.media_bytes_read.load(), x.media_bytes_read.load());
  EXPECT_EQ(y.rmw_count.load(), x.rmw_count.load());
  EXPECT_EQ(y.full_line_writebacks.load(), x.full_line_writebacks.load());
  EXPECT_EQ(y.nt_lines_received.load(), x.nt_lines_received.load());
  EXPECT_EQ(y.nt_bytes_received.load(), x.nt_bytes_received.load());
  EXPECT_EQ(3u, y.oob_accesses.load());
  EXPECT_EQ(5u, x.oob_accesses.load());
  EXPECT_GT(x.rmw_count.load(), 0u);
  EXPECT_EQ(0, memcmp(device_.raw_media(), lines.raw_media(),
                      64 * kXPLineSize));
}

TEST(PmemDeviceConfigTest, ZeroXPBufferSlotsClampToOne) {
  PmemConfig c = SmallConfig();
  c.xpbuffer_slots = 0;
  LatencyModel latency(LatencyCosts{.scale = 0});
  PmemDevice device(c, &latency);
  EXPECT_EQ(1, device.config().xpbuffer_slots);
  char buf[kCacheLineSize];
  memset(buf, 'q', sizeof(buf));
  device.ReceiveLine(0, buf);
  device.ReceiveLine(kXPLineSize, buf);  // same DIMM, evicts the first
  EXPECT_EQ('q', device.raw_media()[0]);
  EXPECT_EQ(1u, device.counters().rmw_count.load());
}

TEST(PmemAllocatorTest, AllocateAndFree) {
  PmemAllocator alloc(0, 1 << 20);
  uint64_t a, b;
  ASSERT_TRUE(alloc.Allocate(1000, &a).ok());
  ASSERT_TRUE(alloc.Allocate(1000, &b).ok());
  EXPECT_NE(a, b);
  EXPECT_TRUE(IsAligned(a, kXPLineSize));
  EXPECT_TRUE(IsAligned(b, kXPLineSize));
  EXPECT_TRUE(alloc.Free(a, 1000).ok());
  EXPECT_TRUE(alloc.Free(b, 1000).ok());
  EXPECT_EQ(1u << 20, alloc.FreeBytes());
}

TEST(PmemAllocatorTest, ExhaustionAndRecovery) {
  PmemAllocator alloc(0, 4096);
  uint64_t offs[16];
  int got = 0;
  for (int i = 0; i < 17; i++) {
    uint64_t off;
    Status s = alloc.Allocate(256, &off);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsOutOfSpace());
      break;
    }
    offs[got++] = off;
  }
  EXPECT_EQ(16, got);  // 4096 / 256
  ASSERT_TRUE(alloc.Free(offs[3], 256).ok());
  uint64_t off;
  EXPECT_TRUE(alloc.Allocate(256, &off).ok());
  EXPECT_EQ(offs[3], off);
}

TEST(PmemAllocatorTest, CoalescingAllowsLargeRealloc) {
  PmemAllocator alloc(0, 1 << 16);
  uint64_t a, b, c;
  ASSERT_TRUE(alloc.Allocate(1 << 14, &a).ok());
  ASSERT_TRUE(alloc.Allocate(1 << 14, &b).ok());
  ASSERT_TRUE(alloc.Allocate(1 << 14, &c).ok());
  ASSERT_TRUE(alloc.Free(a, 1 << 14).ok());
  ASSERT_TRUE(alloc.Free(c, 1 << 14).ok());
  ASSERT_TRUE(alloc.Free(b, 1 << 14).ok());
  // All three extents must have coalesced with the tail.
  EXPECT_EQ(1u << 16, alloc.LargestFreeExtent());
}

TEST(PmemAllocatorTest, DoubleFreeRejected) {
  PmemAllocator alloc(0, 1 << 16);
  uint64_t a;
  ASSERT_TRUE(alloc.Allocate(512, &a).ok());
  ASSERT_TRUE(alloc.Free(a, 512).ok());
  EXPECT_FALSE(alloc.Free(a, 512).ok());
}

TEST(PmemAllocatorTest, ReserveForRecovery) {
  PmemAllocator alloc(0, 1 << 16);
  ASSERT_TRUE(alloc.Reserve(4096, 8192).ok());
  // Reserving an overlapping range must fail.
  EXPECT_FALSE(alloc.Reserve(4096, 256).ok());
  EXPECT_FALSE(alloc.Reserve(8192, 8192).ok());
  // A fresh allocation must not land inside the reserved range.
  uint64_t off;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(alloc.Allocate(4096, &off).ok());
    EXPECT_TRUE(off + 4096 <= 4096 || off >= 12288)
        << "allocation " << off << " overlaps reserved range";
  }
  // Freeing the reserved range returns it to the pool.
  EXPECT_TRUE(alloc.Free(4096, 8192).ok());
}

TEST(PmemAllocatorTest, ZeroSizedOpsRejected) {
  PmemAllocator alloc(0, 1 << 16);
  uint64_t off;
  EXPECT_TRUE(alloc.Allocate(0, &off).IsInvalidArgument());
  EXPECT_TRUE(alloc.Free(0, 0).IsInvalidArgument());
  EXPECT_TRUE(alloc.Reserve(0, 0).IsInvalidArgument());
}

TEST(PmemAllocatorTest, AccountingConsistent) {
  PmemAllocator alloc(0, 1 << 20);
  uint64_t a, b;
  ASSERT_TRUE(alloc.Allocate(300, &a).ok());  // rounds to 512
  ASSERT_TRUE(alloc.Allocate(256, &b).ok());
  EXPECT_EQ((1u << 20) - 512 - 256, alloc.FreeBytes());
  EXPECT_EQ(512u + 256u, alloc.AllocatedBytes());
}

}  // namespace
}  // namespace cachekv
