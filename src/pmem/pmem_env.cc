#include "pmem/pmem_env.h"

namespace cachekv {

Status PmemEnv::ValidateOptions(const EnvOptions& options) {
  if (options.xpbuffer_slots < 1) {
    return Status::InvalidArgument("xpbuffer_slots must be at least 1");
  }
  if (options.llc_ways < 1) {
    return Status::InvalidArgument("llc_ways must be at least 1");
  }
  if (options.cat_locked_bytes > options.llc_capacity) {
    return Status::InvalidArgument(
        "cat_locked_bytes exceeds the LLC capacity");
  }
  if (options.cat_locked_bytes >= options.pmem_capacity) {
    return Status::InvalidArgument(
        "cat_locked_bytes must leave room in the PMem capacity");
  }
  const uint64_t heap_base = AlignUp(options.cat_locked_bytes, kXPLineSize) +
                             AlignUp(options.meta_area_bytes, kXPLineSize);
  if (heap_base >= options.pmem_capacity) {
    return Status::InvalidArgument(
        "metadata area leaves no PMem heap space");
  }
  return Status::OK();
}

PmemEnv::PmemEnv(const EnvOptions& options) : options_(options) {
  // Clamp inconsistent configurations instead of asserting: the XPBuffer
  // and every LLC set need at least one slot, the CAT range cannot
  // exceed the LLC it is carved from, and must leave PMem space.
  if (options_.xpbuffer_slots < 1) options_.xpbuffer_slots = 1;
  if (options_.llc_ways < 1) options_.llc_ways = 1;
  if (options_.cat_locked_bytes > options_.llc_capacity) {
    options_.cat_locked_bytes = options_.llc_capacity;
  }
  if (options_.cat_locked_bytes >= options_.pmem_capacity) {
    options_.cat_locked_bytes = 0;
  }
  latency_ = std::make_unique<LatencyModel>(options_.latency);

  PmemConfig pmem_config;
  pmem_config.capacity = options_.pmem_capacity;
  pmem_config.num_dimms = options_.num_dimms;
  pmem_config.xpbuffer_slots = options_.xpbuffer_slots;
  pmem_config.interleave_bytes = options_.interleave_bytes;
  device_ = std::make_unique<PmemDevice>(pmem_config, latency_.get());

  CacheConfig cache_config;
  cache_config.capacity = options_.llc_capacity;
  cache_config.ways = options_.llc_ways;
  cache_config.locked_base = 0;
  cache_config.locked_size = AlignUp(options_.cat_locked_bytes,
                                     kCacheLineSize);
  cache_config.domain = options_.domain;
  cache_ = std::make_unique<CacheSim>(cache_config, device_.get(),
                                      latency_.get());

  const uint64_t heap_base =
      AlignUp(options_.cat_locked_bytes, kXPLineSize) +
      AlignUp(options_.meta_area_bytes, kXPLineSize);
  const uint64_t heap_size =
      heap_base < options_.pmem_capacity
          ? options_.pmem_capacity - heap_base
          : 0;  // empty heap: every Allocate fails with OutOfSpace
  allocator_ = std::make_unique<PmemAllocator>(heap_base, heap_size);
}

void PmemEnv::SimulateCrash() {
  cache_->Crash();
  const uint64_t heap_base =
      AlignUp(options_.cat_locked_bytes, kXPLineSize) +
      AlignUp(options_.meta_area_bytes, kXPLineSize);
  const uint64_t heap_size = heap_base < options_.pmem_capacity
                                 ? options_.pmem_capacity - heap_base
                                 : 0;
  allocator_ = std::make_unique<PmemAllocator>(heap_base, heap_size);
}

}  // namespace cachekv
