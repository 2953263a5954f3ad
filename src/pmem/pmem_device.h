#ifndef CACHEKV_PMEM_PMEM_DEVICE_H_
#define CACHEKV_PMEM_PMEM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/latency_model.h"
#include "util/port.h"
#include "util/status.h"

namespace cachekv {

/// Hardware-style counters of the simulated Optane PMem DIMMs, mirroring
/// what intel-pmwatch exposes. The paper's Fig. 4 metric ("write hit
/// ratio": fraction of 64 B writes arriving from the CPU that land in an
/// XPLine already open in the on-DIMM write-combining buffer) is computed
/// from these.
struct PmemCounters {
  std::atomic<uint64_t> lines_received{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> xpbuffer_hits{0};
  std::atomic<uint64_t> xpbuffer_misses{0};
  std::atomic<uint64_t> media_bytes_written{0};
  std::atomic<uint64_t> media_bytes_read{0};
  /// Writebacks of partially dirty XPLines which required a
  /// read-modify-write of the 256 B media line.
  std::atomic<uint64_t> rmw_count{0};
  std::atomic<uint64_t> full_line_writebacks{0};
  /// Subset of the received lines that arrived via non-temporal stores
  /// (the copy-based flush path), as opposed to cache evictions / clwb.
  std::atomic<uint64_t> nt_lines_received{0};
  std::atomic<uint64_t> nt_bytes_received{0};
  /// Accesses outside the device range or misaligned writes. The device
  /// drops the write (or zero-fills the read) instead of touching memory
  /// out of bounds; a nonzero count means a software bug upstream.
  std::atomic<uint64_t> oob_accesses{0};

  /// Fraction of received 64 B lines that combined into an open XPLine.
  double WriteHitRatio() const {
    uint64_t total = lines_received.load(std::memory_order_relaxed);
    if (total == 0) return 0.0;
    return static_cast<double>(
               xpbuffer_hits.load(std::memory_order_relaxed)) /
           static_cast<double>(total);
  }

  /// Media bytes written per byte received from the CPU (>= 1.0 means
  /// amplification; 1.0 is the ideal for XPLine-aligned bulk writes).
  double WriteAmplification() const {
    uint64_t recv = bytes_received.load(std::memory_order_relaxed);
    if (recv == 0) return 0.0;
    return static_cast<double>(
               media_bytes_written.load(std::memory_order_relaxed)) /
           static_cast<double>(recv);
  }

  void Reset() {
    lines_received.store(0);
    bytes_received.store(0);
    xpbuffer_hits.store(0);
    xpbuffer_misses.store(0);
    media_bytes_written.store(0);
    media_bytes_read.store(0);
    rmw_count.store(0);
    full_line_writebacks.store(0);
    nt_lines_received.store(0);
    nt_bytes_received.store(0);
    oob_accesses.store(0);
  }
};

/// Configuration of the simulated PMem device.
struct PmemConfig {
  /// Total byte capacity of the flat PMem address space.
  uint64_t capacity = 512ull << 20;
  /// Number of interleaved DIMMs; consecutive 4 KB chunks round-robin
  /// across DIMMs, as in Optane interleaved App Direct mode.
  int num_dimms = 4;
  /// Interleaving granularity.
  uint64_t interleave_bytes = 4096;
  /// XPBuffer (write-combining buffer) slots per DIMM. Real Optane DIMMs
  /// have a ~16 KB buffer, i.e. ~64 XPLines; the default is conservative.
  /// Values below 1 are treated as 1.
  int xpbuffer_slots = 16;
};

/// PmemDevice simulates the media side of Intel Optane PMem: a flat
/// byte-addressable space whose writes arrive from the CPU in 64 B
/// cachelines, are staged in a per-DIMM write-combining buffer (XPBuffer),
/// and are committed to the 3D-XPoint media in 256 B XPLines. Writes of a
/// partially dirty XPLine incur a read-modify-write, which is the
/// write-amplification mechanism the paper builds on (Feature 1, §II-B).
///
/// The XPBuffer contents are inside the ADR persistence domain, so a
/// simulated power failure never loses them: Crash handling calls
/// DrainAll().
///
/// Thread-safe; each DIMM has its own lock so interleaved traffic
/// parallelizes as on real hardware.
class PmemDevice {
 public:
  PmemDevice(const PmemConfig& config, LatencyModel* latency);
  ~PmemDevice();

  PmemDevice(const PmemDevice&) = delete;
  PmemDevice& operator=(const PmemDevice&) = delete;

  /// Receives one 64 B cacheline at `addr` (must be 64-aligned, in range)
  /// from the CPU side (cache eviction, clwb writeback, or an nt-store).
  /// `non_temporal` marks lines bypassing the cache hierarchy so the
  /// counters can attribute traffic to the streaming-store path.
  void ReceiveLine(uint64_t addr, const char* data,
                   bool non_temporal = false) {
    ReceiveLines(addr, data, 1, non_temporal);
  }

  /// Receives `n` consecutive 64 B lines starting at `addr`, all within
  /// one XPLine (1 <= n <= 4), from the contiguous buffer `data`. The
  /// effect on data, counters and the XPBuffer is that of n ReceiveLine
  /// calls in address order; the lines are taken under one DIMM-lock hold.
  void ReceiveLines(uint64_t addr, const char* data, int n,
                    bool non_temporal);

  /// Reads `len` bytes at `addr` observing both media and any fresher
  /// bytes still staged in the XPBuffer.
  void Read(uint64_t addr, void* dst, size_t len);

  /// Flushes every XPBuffer slot to media (power-failure semantics: the
  /// buffer sits inside the ADR domain).
  void DrainAll();

  uint64_t capacity() const { return config_.capacity; }
  const PmemConfig& config() const { return config_; }
  PmemCounters& counters() { return counters_; }
  const PmemCounters& counters() const { return counters_; }

  /// Direct pointer into the backing media array. Test/recovery helper:
  /// bypasses the XPBuffer, so call DrainAll() first for coherent reads.
  const char* raw_media() const { return media_; }

 private:
  static constexpr int kLinesPerXPLine =
      static_cast<int>(kXPLineSize / kCacheLineSize);

  struct Slot {
    uint64_t stamp = 0;      // LRU clock value of the last write
    uint8_t dirty_mask = 0;  // bit i covers bytes [i*64, (i+1)*64)
    char data[kXPLineSize];
  };

  // The XPBuffer of one DIMM: a fixed array of xpbuffer_slots slots, of
  // which [0, open) hold an XPLine. The XPLine addresses sit in their own
  // array so that a lookup scans a few host cachelines. The victim of a
  // full buffer is the slot with the oldest stamp, i.e. the least
  // recently written one.
  struct Dimm {
    std::mutex mu;
    int open = 0;
    uint64_t clock = 0;
    std::unique_ptr<uint64_t[]> xpline_addrs;
    std::unique_ptr<Slot[]> slots;

    int Find(uint64_t xpline) const {
      for (int i = 0; i < open; i++) {
        if (xpline_addrs[i] == xpline) return i;
      }
      return -1;
    }
  };

  int DimmOf(uint64_t addr) const {
    return static_cast<int>((addr / config_.interleave_bytes) %
                            static_cast<uint64_t>(config_.num_dimms));
  }

  // Writes a slot back to media, performing an RMW if partially dirty.
  // Caller holds the DIMM lock.
  void WritebackSlot(uint64_t xpline, const Slot& slot);

  // Returns a slot for `xpline`, writing back the least recently used one
  // if the buffer is full. Caller holds the DIMM lock.
  int OpenSlot(Dimm& dimm, uint64_t xpline);

  PmemConfig config_;
  LatencyModel* latency_;
  char* media_;
  std::vector<std::unique_ptr<Dimm>> dimms_;
  PmemCounters counters_;
};

}  // namespace cachekv

#endif  // CACHEKV_PMEM_PMEM_DEVICE_H_
