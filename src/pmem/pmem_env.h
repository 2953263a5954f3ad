#ifndef CACHEKV_PMEM_PMEM_ENV_H_
#define CACHEKV_PMEM_PMEM_ENV_H_

#include <cstdint>
#include <memory>

#include "cache/cache_sim.h"
#include "pmem/pmem_allocator.h"
#include "pmem/pmem_device.h"
#include "sim/latency_model.h"

namespace cachekv {

/// Platform description for one simulated machine: PMem DIMMs, the LLC in
/// front of them, the persistence domain, the optional CAT pseudo-locked
/// range, and the latency model.
struct EnvOptions {
  /// PMem capacity; testbed default is scaled down from 512 GB.
  uint64_t pmem_capacity = 512ull << 20;
  int num_dimms = 4;
  int xpbuffer_slots = 16;
  uint64_t interleave_bytes = 4096;

  /// LLC available to PMem traffic (paper's testbed: 36 MB per socket).
  uint64_t llc_capacity = 36ull << 20;
  int llc_ways = 12;

  /// Bytes pseudo-locked with Intel CAT at the bottom of the PMem address
  /// space; used by CacheKV's sub-MemTable pool and the `-cache` baseline
  /// variants. Zero disables CAT.
  uint64_t cat_locked_bytes = 0;

  /// Size of the fixed-offset metadata area right above the CAT range.
  /// Engines keep their persistent roots (LSM manifest slots, CacheKV's
  /// flushed-zone registry) here at well-known offsets so crash recovery
  /// can find them without any volatile state.
  uint64_t meta_area_bytes = 2ull << 20;

  PersistDomain domain = PersistDomain::kEadr;

  LatencyCosts latency;
};

/// PmemEnv owns one simulated platform: the PmemDevice, the CacheSim in
/// front of it, a PmemAllocator over the general (non-CAT) range, and the
/// LatencyModel. All engines in this repository (CacheKV and the
/// baselines) run against a PmemEnv; benchmarks construct one per system
/// under test so counters are not shared.
///
/// Address map: [0, cat_locked_bytes) is the CAT pseudo-locked range,
/// owned by whoever requested it; [cat_locked_bytes, pmem_capacity) is
/// managed by the allocator.
class PmemEnv {
 public:
  explicit PmemEnv(const EnvOptions& options);

  /// Checks platform-description invariants (at least one XPBuffer slot
  /// and one LLC way, CAT range within the LLC and the PMem capacity,
  /// room for the metadata area and heap).
  /// Callers that build an env from external configuration should check
  /// this first; the constructor itself clamps inconsistent values
  /// instead of asserting.
  static Status ValidateOptions(const EnvOptions& options);

  PmemEnv(const PmemEnv&) = delete;
  PmemEnv& operator=(const PmemEnv&) = delete;

  PmemDevice* device() { return device_.get(); }
  CacheSim* cache() { return cache_.get(); }
  PmemAllocator* allocator() { return allocator_.get(); }
  LatencyModel* latency() { return latency_.get(); }
  const EnvOptions& options() const { return options_; }

  uint64_t locked_base() const { return 0; }
  uint64_t locked_size() const { return options_.cat_locked_bytes; }

  /// Fixed-offset metadata area [meta_base, meta_base + meta_size).
  uint64_t meta_base() const {
    return AlignUp(options_.cat_locked_bytes, kXPLineSize);
  }
  uint64_t meta_size() const { return options_.meta_area_bytes; }

  // Convenience forwarding to the cache front-end; all engine traffic to
  // the simulated PMem goes through these.
  void Store(uint64_t addr, const void* src, size_t len) {
    cache_->Store(addr, src, len);
  }
  void Load(uint64_t addr, void* dst, size_t len) {
    cache_->Load(addr, dst, len);
  }
  void NtStore(uint64_t addr, const void* src, size_t len) {
    cache_->NtStore(addr, src, len);
  }
  void Clwb(uint64_t addr, size_t len) { cache_->Clwb(addr, len); }
  void Clflush(uint64_t addr, size_t len) { cache_->Clflush(addr, len); }
  void Sfence() { cache_->Sfence(); }
  uint64_t Load64(uint64_t addr) { return cache_->Load64(addr); }
  void Store64(uint64_t addr, uint64_t value) {
    cache_->Store64(addr, value);
  }
  bool CompareExchange64(uint64_t addr, uint64_t* expected,
                         uint64_t desired) {
    return cache_->CompareExchange64(addr, expected, desired);
  }

  /// Simulates power failure and process restart: applies the domain
  /// semantics (eADR flushes dirty cachelines, ADR drops them), drains
  /// the XPBuffer, and resets the volatile allocator to empty — engines
  /// must Reserve() their regions back from persistent manifests during
  /// recovery. DRAM-side structures of the engines must be discarded by
  /// their owners.
  void SimulateCrash();

 private:
  EnvOptions options_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<PmemDevice> device_;
  std::unique_ptr<CacheSim> cache_;
  std::unique_ptr<PmemAllocator> allocator_;
};

}  // namespace cachekv

#endif  // CACHEKV_PMEM_PMEM_ENV_H_
