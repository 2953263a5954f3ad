#ifndef CACHEKV_PMEM_PMEM_ALLOCATOR_H_
#define CACHEKV_PMEM_PMEM_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "util/port.h"
#include "util/status.h"

namespace cachekv {

/// First-fit region allocator over a flat PMem address range, with
/// coalescing on free. All returned offsets are XPLine (256 B) aligned so
/// regions never share a media line.
///
/// The allocator itself is volatile: after a simulated crash its state is
/// reconstructed by the recovery paths, which call Reserve() for each
/// region named by the persistent manifests.
///
/// Thread-safe.
class PmemAllocator {
 public:
  /// Manages the range [base, base + size).
  PmemAllocator(uint64_t base, uint64_t size);

  PmemAllocator(const PmemAllocator&) = delete;
  PmemAllocator& operator=(const PmemAllocator&) = delete;

  /// Allocates `size` bytes (rounded up to the XPLine size); on success
  /// stores the region offset in *offset.
  Status Allocate(uint64_t size, uint64_t* offset);

  /// Returns a previously allocated region to the free pool.
  Status Free(uint64_t offset, uint64_t size);

  /// Marks [offset, offset+size) as allocated. Used by crash recovery to
  /// rebuild the allocator from persistent manifests. Fails if the range
  /// is not entirely free or out of bounds.
  Status Reserve(uint64_t offset, uint64_t size);

  /// Total bytes currently free. Lock-free, so writers and the vlog GC
  /// can poll it on every append.
  uint64_t FreeBytes() const;

  /// Total bytes currently allocated.
  uint64_t AllocatedBytes() const;

  /// Largest single free extent (an allocation larger than this fails).
  uint64_t LargestFreeExtent() const;

  uint64_t base() const { return base_; }
  uint64_t size() const { return size_; }

 private:
  uint64_t base_;
  uint64_t size_;
  mutable std::mutex mu_;
  // Free extents keyed by start offset; values are extent lengths.
  // Invariant: no two extents are adjacent or overlapping.
  std::map<uint64_t, uint64_t> free_;
  std::atomic<uint64_t> free_bytes_{0};  // sum of free_, written under mu_
};

}  // namespace cachekv

#endif  // CACHEKV_PMEM_PMEM_ALLOCATOR_H_
