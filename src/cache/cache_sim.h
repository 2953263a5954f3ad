#ifndef CACHEKV_CACHE_CACHE_SIM_H_
#define CACHEKV_CACHE_CACHE_SIM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pmem/pmem_device.h"
#include "sim/latency_model.h"
#include "util/port.h"

namespace cachekv {

/// Persistence domain of the platform (Feature 2, §II-B). Under ADR only
/// the iMC write-pending queue and the PMem media survive power failure;
/// dirty CPU cachelines are lost. Under eADR the CPU caches are flushed on
/// power failure, so everything that reached a cacheline is durable.
enum class PersistDomain {
  kAdr,
  kEadr,
};

/// Counters of the simulated cache.
struct CacheStats {
  std::atomic<uint64_t> load_hits{0};
  std::atomic<uint64_t> load_misses{0};
  std::atomic<uint64_t> store_hits{0};
  std::atomic<uint64_t> store_misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> dirty_evictions{0};
  std::atomic<uint64_t> clwb_lines{0};
  std::atomic<uint64_t> nt_lines{0};
  std::atomic<uint64_t> fences{0};

  void Reset() {
    load_hits.store(0);
    load_misses.store(0);
    store_hits.store(0);
    store_misses.store(0);
    evictions.store(0);
    dirty_evictions.store(0);
    clwb_lines.store(0);
    nt_lines.store(0);
    fences.store(0);
  }
};

/// Cache geometry and the CAT pseudo-locked region.
struct CacheConfig {
  /// LLC capacity available to simulated PMem traffic. The testbed in the
  /// paper has a 36 MB LLC per socket.
  uint64_t capacity = 36ull << 20;
  /// Set associativity. Values below 1 are treated as 1.
  int ways = 12;
  /// Intel CAT pseudo-locked address range [locked_base,
  /// locked_base+locked_size) in device space. Lines in this range live in
  /// a dedicated partition and are never evicted by other traffic; the
  /// capacity they use is deducted from the normal partition. Zero size
  /// disables the region.
  uint64_t locked_base = 0;
  uint64_t locked_size = 0;
  /// Persistence domain applied on Crash().
  PersistDomain domain = PersistDomain::kEadr;
};

/// CacheSim models the CPU cache hierarchy in front of the simulated PMem
/// device: a set-associative write-back, write-allocate cache of 64 B
/// lines with per-set LRU replacement. Every byte the KV engines move
/// to/from "PMem" flows through Store()/Load() here; dirty lines reach the
/// PmemDevice either by LRU eviction, by explicit Clwb()/Clflush(), by
/// NtStore() bypass, or by the eADR flush-on-power-failure in Crash().
///
/// This is the mechanism by which the paper's observations reproduce:
/// without flush instructions, LRU evicts isolated 64 B lines in an order
/// uncorrelated with spatial adjacency, so they miss the XPBuffer and
/// amplify writes (Ob1/R1); CAT pseudo-locking keeps the sub-MemTable pool
/// resident so CacheKV's writes never leave the cache until a copy-based
/// flush (§III-A/III-C).
///
/// Thread-safe; lines are protected by sharded locks.
class CacheSim {
 public:
  CacheSim(const CacheConfig& config, PmemDevice* device,
           LatencyModel* latency);

  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;

  /// Regular (temporal) store of [src, src+len) to device address `addr`,
  /// write-allocating affected lines.
  void Store(uint64_t addr, const void* src, size_t len);

  /// Load of `len` bytes at `addr` into dst, allocating on miss.
  void Load(uint64_t addr, void* dst, size_t len);

  /// clwb: writes back (without invalidating) every dirty line overlapping
  /// [addr, addr+len).
  void Clwb(uint64_t addr, size_t len);

  /// clflush: writes back and invalidates every line overlapping the
  /// range. Note: per the paper's footnote, this evicts even CAT
  /// pseudo-locked lines.
  void Clflush(uint64_t addr, size_t len);

  /// Store fence; charges the ordering stall.
  void Sfence();

  /// Non-temporal store: bypasses the cache. Cached copies of affected
  /// lines are invalidated (their bytes folded into the written line so no
  /// data is lost on partial-line edges) and full 64 B lines are sent
  /// straight to the device's XPBuffer.
  ///
  /// A partial line is merged and written under its lock, so a racing
  /// load sees the old or the new bytes and caches what it saw. A full
  /// line reaches the device after its lock is released: callers must
  /// not load a line while it is being fully nt-stored, or the load may
  /// cache the old bytes for good. (Each caller writes lines no reader
  /// loads before a later publish or a recovery: flushed tables and
  /// SSTables, vlog frames past the published tail, registry slots.)
  void NtStore(uint64_t addr, const void* src, size_t len);

  /// 8-byte atomic load from a naturally aligned address.
  uint64_t Load64(uint64_t addr);

  /// 8-byte atomic store to a naturally aligned address.
  void Store64(uint64_t addr, uint64_t value);

  /// 8-byte compare-and-swap at a naturally aligned address. On failure
  /// *expected receives the observed value.
  bool CompareExchange64(uint64_t addr, uint64_t* expected,
                         uint64_t desired);

  /// Simulates power failure: under eADR every dirty line (including the
  /// locked region) is written back; under ADR dirty lines are dropped.
  /// In both domains the XPBuffer drains (it is inside the ADR domain) and
  /// the cache comes back cold.
  void Crash();

  /// Writes back all dirty lines without invalidating (clean shutdown /
  /// test barrier).
  void WritebackAll();

  /// Remaps the CAT pseudo-locked window to a new base address
  /// (re-locking onto the next memtable segment, as the paper's
  /// NoveLSM-cache variant does when a segment fills). Dirty locked lines
  /// are written back and all locked lines invalidated first. The caller
  /// must ensure no concurrent traffic targets the old or the new window
  /// while remapping.
  void SetLockedWindow(uint64_t new_base);

  uint64_t locked_window_base() const {
    return locked_base_.load(std::memory_order_acquire);
  }

  const CacheConfig& config() const { return config_; }
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }
  PmemDevice* device() { return device_; }

  /// Number of currently valid lines in the locked partition (test hook).
  uint64_t LockedResidentLines() const;

 private:
  // Tag of one way of a set. Tags live in their own array, apart from the
  // line data, so a set probe reads ways * 16 B instead of the ways * 80 B
  // of tag-and-data ways.
  struct Tag {
    uint64_t addr = 0;
    uint32_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  // Aligned so that each simulated line occupies one host cacheline.
  struct alignas(kCacheLineSize) Line {
    char data[kCacheLineSize];
  };

  struct LockedLine {
    uint64_t addr = 0;  // the line this slot currently caches
    bool valid = false;
    bool dirty = false;
    char data[kCacheLineSize];
  };

  static constexpr int kNumShards = 4096;

  bool InLocked(uint64_t line_addr) const {
    const uint64_t base = locked_base_.load(std::memory_order_acquire);
    return config_.locked_size > 0 && line_addr >= base &&
           line_addr < base + config_.locked_size;
  }

  size_t SetOf(uint64_t line_addr) const {
    return static_cast<size_t>((line_addr / kCacheLineSize) % num_sets_);
  }

  Tag* TagsOf(size_t set) { return &tags_[set * config_.ways]; }
  const Tag* TagsOf(size_t set) const { return &tags_[set * config_.ways]; }
  char* DataOf(size_t set, int way) {
    return lines_[set * config_.ways + way].data;
  }

  std::mutex& SetMutex(size_t set) { return shard_mu_[set % kNumShards]; }
  std::mutex& LockedMutex(size_t idx) {
    return locked_mu_[idx % kNumShards];
  }

  // Hits and misses of one Store/Load-style call, added to the stats
  // once when the call ends.
  struct Tally {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // Runs fn(char* line_data, bool* dirty) with the line present in cache
  // and its lock held. fill_on_miss controls whether a miss reads the
  // device before fn runs (required unless fn overwrites all 64 bytes).
  template <typename Fn>
  void WithLine(uint64_t line_addr, bool fill_on_miss, Tally* tally,
                Fn&& fn);

  // Starts the host-cache fill of every tag and line of the set caching
  // line_addr (normal partition only), before its lock is taken. Without
  // it a miss would wait for the tags and only then for the victim's
  // line, one host-memory latency after the other. Measured with GCC 12
  // -O3: the same prefetches placed after the caller's SetOf, without
  // this function's own partition check, bought nothing (a missed
  // 16 KiB Load took 62-73 us instead of 40 us).
  void PrefetchSet(uint64_t line_addr);

  // Adds a call's tally to the store or load stats. A load's cache-miss
  // latency is charged here, once per call.
  void Finish(bool is_store, const Tally& tally);

  // Index of the way of `set` caching line_addr, or -1. On a miss,
  // *victim (if given) receives the way to fill: the first invalid way,
  // else the least recently used one. Caller holds the set lock.
  int Probe(size_t set, uint64_t line_addr, int* victim = nullptr) const;

  // Drops the normal-partition copy of line_addr, if any, writing it back
  // first when dirty.
  void FlushNormalLine(uint64_t line_addr);

  // Drops the cached copy of line_addr from either partition without a
  // writeback, copying its bytes to `out`, then runs fn(bool cached)
  // with the line's lock still held.
  template <typename Fn>
  void TakeCachedLine(uint64_t line_addr, char* out, Fn&& fn);

  CacheConfig config_;
  PmemDevice* device_;
  LatencyModel* latency_;
  std::atomic<uint64_t> locked_base_{0};
  size_t num_sets_;
  std::vector<Tag> tags_;           // num_sets_ * config_.ways entries
  std::vector<Line> lines_;         // data of tags_[i] in lines_[i]
  std::vector<uint32_t> set_tick_;  // per-set LRU clock
  std::vector<LockedLine> locked_;  // locked_size / 64 entries
  std::unique_ptr<std::mutex[]> shard_mu_;
  std::unique_ptr<std::mutex[]> locked_mu_;
  CacheStats stats_;
};

}  // namespace cachekv

#endif  // CACHEKV_CACHE_CACHE_SIM_H_
