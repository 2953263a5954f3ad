#include "pmem/pmem_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fault/fail_point.h"

namespace cachekv {

PmemDevice::PmemDevice(const PmemConfig& config, LatencyModel* latency)
    : config_(config), latency_(latency) {
  // Tolerate loosely specified configurations instead of asserting:
  // round the capacity down to whole XPLines, require one DIMM and one
  // XPBuffer slot minimum.
  config_.capacity = AlignDown(config_.capacity, kXPLineSize);
  if (config_.capacity < kXPLineSize) config_.capacity = kXPLineSize;
  if (config_.num_dimms < 1) config_.num_dimms = 1;
  if (config_.xpbuffer_slots < 1) config_.xpbuffer_slots = 1;
  // Anonymous mapping: pages are committed lazily, so a large simulated
  // capacity does not consume physical memory until touched.
  void* p = mmap(nullptr, config_.capacity, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    // Unrecoverable from a constructor; fail loudly rather than via a
    // null-pointer write later.
    std::fprintf(stderr, "PmemDevice: mmap of %llu bytes failed\n",
                 static_cast<unsigned long long>(config_.capacity));
    std::abort();
  }
  media_ = static_cast<char*>(p);
  dimms_.reserve(config_.num_dimms);
  for (int i = 0; i < config_.num_dimms; i++) {
    auto dimm = std::make_unique<Dimm>();
    dimm->xpline_addrs =
        std::make_unique<uint64_t[]>(config_.xpbuffer_slots);
    dimm->slots = std::make_unique<Slot[]>(config_.xpbuffer_slots);
    dimms_.push_back(std::move(dimm));
  }
}

PmemDevice::~PmemDevice() { munmap(media_, config_.capacity); }

void PmemDevice::WritebackSlot(uint64_t xpline, const Slot& slot) {
  const uint8_t kFullMask = (1u << kLinesPerXPLine) - 1;
  char* media = media_ + xpline;
  if (slot.dirty_mask != kFullMask) {
    // Partially dirty XPLine: the DIMM must read the 256 B media line,
    // merge the dirty cachelines, and write the whole line back. This is
    // the write-amplifying read-modify-write of §II-B.
    counters_.rmw_count.fetch_add(1, std::memory_order_relaxed);
    counters_.media_bytes_read.fetch_add(kXPLineSize,
                                         std::memory_order_relaxed);
    if (latency_ != nullptr) latency_->ChargeMediaRead(1);
    for (int i = 0; i < kLinesPerXPLine; i++) {
      if (slot.dirty_mask & (1u << i)) {
        memcpy(media + i * kCacheLineSize, slot.data + i * kCacheLineSize,
               kCacheLineSize);
      }
    }
  } else {
    counters_.full_line_writebacks.fetch_add(1, std::memory_order_relaxed);
    memcpy(media, slot.data, kXPLineSize);
  }
  counters_.media_bytes_written.fetch_add(kXPLineSize,
                                          std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeMediaWrite(1);
}

int PmemDevice::OpenSlot(Dimm& dimm, uint64_t xpline) {
  int s = dimm.open;
  if (s < config_.xpbuffer_slots) {
    dimm.open++;
  } else {
    // Evict the least recently used slot to media.
    s = 0;
    for (int i = 1; i < dimm.open; i++) {
      if (dimm.slots[i].stamp < dimm.slots[s].stamp) s = i;
    }
    WritebackSlot(dimm.xpline_addrs[s], dimm.slots[s]);
  }
  dimm.xpline_addrs[s] = xpline;
  dimm.slots[s].dirty_mask = 0;
  return s;
}

void PmemDevice::ReceiveLines(uint64_t addr, const char* data, int n,
                              bool non_temporal) {
  const uint64_t xpline = AlignDown(addr, kXPLineSize);
  const int first = static_cast<int>((addr - xpline) / kCacheLineSize);
  if (n < 1 || n > kLinesPerXPLine - first) {
    // A group must be 1 to 4 lines of one XPLine; anything else is a
    // caller bug, dropped and counted like an out-of-range line.
    counters_.oob_accesses.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t bytes = static_cast<uint64_t>(n) * kCacheLineSize;
  if (!IsAligned(addr, kCacheLineSize) || addr + bytes > config_.capacity) {
    // Never write out of bounds: drop the lines and count them. The data
    // loss is detectable (CRCs, recovery plausibility checks); an OOB
    // memcpy would not be. The capacity is whole XPLines, so the lines
    // of one XPLine are all in range or all out.
    counters_.oob_accesses.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  // Simulated media bit-rot: a fired "pmem.media.bitrot" point flips one
  // seeded-random bit of an incoming line before it is buffered. The
  // point is evaluated once per line, in address order.
  char rotted[kXPLineSize];
  if (fault::AnyActive()) {
    for (int i = 0; i < n; i++) {
      fault::InjectResult inj = fault::Evaluate("pmem.media.bitrot");
      if (!inj.bitrot) continue;
      if (data != rotted) {
        memcpy(rotted, data, bytes);
        data = rotted;
      }
      const size_t byte = static_cast<size_t>(inj.rand % kCacheLineSize);
      const int bit = static_cast<int>((inj.rand / kCacheLineSize) % 8);
      char& b = rotted[i * kCacheLineSize + byte];
      b = static_cast<char>(b ^ (1u << bit));
    }
  }
  Dimm& dimm = *dimms_[DimmOf(addr)];

  counters_.lines_received.fetch_add(n, std::memory_order_relaxed);
  counters_.bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  if (non_temporal) {
    counters_.nt_lines_received.fetch_add(n, std::memory_order_relaxed);
    counters_.nt_bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  }

  // The first line either combines into an open XPLine or opens one; the
  // lines after it always combine.
  int hits = n - 1;
  {
    std::lock_guard<std::mutex> lock(dimm.mu);
    int s = dimm.Find(xpline);
    if (s >= 0) {
      hits++;
    } else {
      s = OpenSlot(dimm, xpline);
    }
    Slot& slot = dimm.slots[s];
    memcpy(slot.data + first * kCacheLineSize, data, bytes);
    slot.dirty_mask |= static_cast<uint8_t>(((1u << n) - 1) << first);
    slot.stamp = ++dimm.clock;
  }
  counters_.xpbuffer_hits.fetch_add(hits, std::memory_order_relaxed);
  if (hits < n) {
    counters_.xpbuffer_misses.fetch_add(1, std::memory_order_relaxed);
  }
}

void PmemDevice::Read(uint64_t addr, void* dst, size_t len) {
  char* out = static_cast<char*>(dst);
  if (addr >= config_.capacity || len > config_.capacity - addr) {
    // Out-of-range read: zero-fill the inaccessible tail and count the
    // access instead of reading past the media array.
    counters_.oob_accesses.fetch_add(1, std::memory_order_relaxed);
    const size_t valid = addr < config_.capacity
                             ? static_cast<size_t>(config_.capacity - addr)
                             : 0;
    memset(out + valid, 0, len - valid);
    if (valid == 0) return;
    len = valid;
  }
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    const uint64_t xpline = AlignDown(pos, kXPLineSize);
    const uint64_t line_off = pos - xpline;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(remaining, kXPLineSize - line_off));
    Dimm& dimm = *dimms_[DimmOf(pos)];
    {
      std::lock_guard<std::mutex> lock(dimm.mu);
      const int slot = dimm.Find(xpline);
      if (slot >= 0) {
        // Serve fresher bytes from the XPBuffer where dirty, media
        // elsewhere, one 64 B line at a time.
        const Slot& buffered = dimm.slots[slot];
        size_t done = 0;
        while (done < chunk) {
          const uint64_t o = line_off + done;
          const int sub = static_cast<int>(o / kCacheLineSize);
          const size_t n = std::min<size_t>(
              chunk - done, (sub + 1) * kCacheLineSize - o);
          const char* src = (buffered.dirty_mask & (1u << sub))
                                ? buffered.data + o
                                : media_ + xpline + o;
          memcpy(out + done, src, n);
          done += n;
        }
      } else {
        memcpy(out, media_ + pos, chunk);
        counters_.media_bytes_read.fetch_add(kXPLineSize,
                                             std::memory_order_relaxed);
        if (latency_ != nullptr) latency_->ChargeMediaRead(1);
      }
    }
    out += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  // Simulated read disturb: a fired "pmem.media.read" point flips one
  // seeded-random bit of the returned buffer. Checksummed structures
  // (zone registry, manifest, SSTables) detect this as corruption.
  if (fault::AnyActive()) {
    fault::MaybeBitrot("pmem.media.read", static_cast<char*>(dst), len);
  }
}

void PmemDevice::DrainAll() {
  for (auto& dimm_ptr : dimms_) {
    Dimm& dimm = *dimm_ptr;
    std::lock_guard<std::mutex> lock(dimm.mu);
    for (int i = 0; i < dimm.open; i++) {
      WritebackSlot(dimm.xpline_addrs[i], dimm.slots[i]);
    }
    dimm.open = 0;
  }
}

}  // namespace cachekv
