#include "pmem/pmem_allocator.h"

#include "fault/fail_point.h"

namespace cachekv {

PmemAllocator::PmemAllocator(uint64_t base, uint64_t size)
    : base_(AlignUp(base, kXPLineSize)) {
  uint64_t end = AlignDown(base + size, kXPLineSize);
  size_ = (end > base_) ? end - base_ : 0;
  if (size_ > 0) {
    free_[base_] = size_;
  }
  free_bytes_.store(size_, std::memory_order_relaxed);
}

Status PmemAllocator::Allocate(uint64_t size, uint64_t* offset) {
  CACHEKV_FAIL_POINT("pmem.alloc");
  if (size == 0) {
    return Status::InvalidArgument("zero-sized allocation");
  }
  size = AlignUp(size, kXPLineSize);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= size) {
      *offset = it->first;
      uint64_t remaining = it->second - size;
      uint64_t new_start = it->first + size;
      free_.erase(it);
      if (remaining > 0) {
        free_[new_start] = remaining;
      }
      free_bytes_.fetch_sub(size, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  return Status::OutOfSpace("pmem allocator exhausted");
}

Status PmemAllocator::Free(uint64_t offset, uint64_t size) {
  if (size == 0) {
    return Status::InvalidArgument("zero-sized free");
  }
  size = AlignUp(size, kXPLineSize);
  if (offset < base_ || offset + size > base_ + size_ ||
      !IsAligned(offset, kXPLineSize)) {
    return Status::InvalidArgument("free out of managed range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Find the first extent at or after offset to check overlap, and the
  // preceding extent for coalescing.
  auto next = free_.lower_bound(offset);
  if (next != free_.end() && offset + size > next->first) {
    return Status::InvalidArgument("double free (overlaps next extent)");
  }
  auto prev = next == free_.begin() ? free_.end() : std::prev(next);
  if (prev != free_.end() && prev->first + prev->second > offset) {
    return Status::InvalidArgument("double free (overlaps prev extent)");
  }
  free_bytes_.fetch_add(size, std::memory_order_relaxed);
  if (prev != free_.end() && prev->first + prev->second == offset) {
    // Coalesce with the previous extent.
    prev->second += size;
    if (next != free_.end() && prev->first + prev->second == next->first) {
      prev->second += next->second;
      free_.erase(next);
    }
    return Status::OK();
  }
  if (next != free_.end() && offset + size == next->first) {
    uint64_t merged = size + next->second;
    free_.erase(next);
    free_[offset] = merged;
    return Status::OK();
  }
  free_[offset] = size;
  return Status::OK();
}

Status PmemAllocator::Reserve(uint64_t offset, uint64_t size) {
  CACHEKV_FAIL_POINT("pmem.reserve");
  if (size == 0) {
    return Status::InvalidArgument("zero-sized reserve");
  }
  size = AlignUp(size, kXPLineSize);
  if (!IsAligned(offset, kXPLineSize)) {
    return Status::InvalidArgument("unaligned reserve");
  }
  if (offset < base_ || offset + size > base_ + size_) {
    return Status::InvalidArgument("reserve out of managed range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Locate the free extent containing [offset, offset+size).
  auto it = free_.upper_bound(offset);
  if (it == free_.begin()) {
    return Status::InvalidArgument("reserve target not free");
  }
  --it;
  uint64_t ext_start = it->first;
  uint64_t ext_len = it->second;
  if (offset < ext_start || offset + size > ext_start + ext_len) {
    return Status::InvalidArgument("reserve target not free");
  }
  free_.erase(it);
  if (offset > ext_start) {
    free_[ext_start] = offset - ext_start;
  }
  uint64_t tail_start = offset + size;
  uint64_t tail_len = (ext_start + ext_len) - tail_start;
  if (tail_len > 0) {
    free_[tail_start] = tail_len;
  }
  free_bytes_.fetch_sub(size, std::memory_order_relaxed);
  return Status::OK();
}

uint64_t PmemAllocator::FreeBytes() const {
  return free_bytes_.load(std::memory_order_relaxed);
}

uint64_t PmemAllocator::AllocatedBytes() const {
  return size_ - FreeBytes();
}

uint64_t PmemAllocator::LargestFreeExtent() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t largest = 0;
  for (const auto& [start, len] : free_) {
    (void)start;
    if (len > largest) largest = len;
  }
  return largest;
}

}  // namespace cachekv
