#include "cache/cache_sim.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cachekv {

CacheSim::CacheSim(const CacheConfig& config, PmemDevice* device,
                   LatencyModel* latency)
    : config_(config), device_(device), latency_(latency) {
  locked_base_.store(config_.locked_base, std::memory_order_release);
  if (config_.ways < 1) config_.ways = 1;
  assert(IsAligned(config_.locked_base, kCacheLineSize));
  assert(IsAligned(config_.locked_size, kCacheLineSize));
  assert(config_.locked_size <= config_.capacity);
  uint64_t normal_capacity = config_.capacity - config_.locked_size;
  num_sets_ = static_cast<size_t>(
      normal_capacity / (kCacheLineSize * config_.ways));
  if (num_sets_ == 0) {
    num_sets_ = 1;
  }
  tags_.resize(num_sets_ * config_.ways);
  lines_.resize(num_sets_ * config_.ways);
  set_tick_.assign(num_sets_, 0);
  locked_.resize(config_.locked_size / kCacheLineSize);
  shard_mu_ = std::make_unique<std::mutex[]>(kNumShards);
  locked_mu_ = std::make_unique<std::mutex[]>(kNumShards);
}

int CacheSim::Probe(size_t set, uint64_t line_addr, int* victim) const {
  const Tag* tags = TagsOf(set);
  int invalid = -1;
  int lru = -1;
  for (int i = 0; i < config_.ways; i++) {
    const Tag& t = tags[i];
    if (t.valid) {
      if (t.addr == line_addr) return i;
      if (lru < 0 || t.lru < tags[lru].lru) lru = i;
    } else if (invalid < 0) {
      invalid = i;
    }
  }
  if (victim != nullptr) *victim = invalid >= 0 ? invalid : lru;
  return -1;
}

template <typename Fn>
void CacheSim::WithLine(uint64_t line_addr, bool fill_on_miss, Tally* tally,
                        Fn&& fn) {
  const uint64_t locked_base = locked_window_base();
  if (config_.locked_size > 0 && line_addr >= locked_base &&
      line_addr < locked_base + config_.locked_size) {
    size_t idx =
        static_cast<size_t>((line_addr - locked_base) / kCacheLineSize);
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.addr != line_addr) {
      // The window moved under a racing access: this slot caches a line
      // from the previous window. Evict it safely.
      if (l.dirty) {
        device_->ReceiveLine(l.addr, l.data);
      }
      l.valid = false;
      l.dirty = false;
    }
    if (!l.valid) {
      if (fill_on_miss) {
        device_->Read(line_addr, l.data, kCacheLineSize);
      }
      l.addr = line_addr;
      l.valid = true;
      l.dirty = false;
      tally->misses++;
    } else {
      tally->hits++;
    }
    fn(l.data, &l.dirty);
    return;
  }

  PrefetchSet(line_addr);
  size_t set = SetOf(line_addr);
  std::lock_guard<std::mutex> lock(SetMutex(set));
  int victim = -1;
  int w = Probe(set, line_addr, &victim);
  Tag* tags = TagsOf(set);
  if (w >= 0) {
    tally->hits++;
  } else {
    tally->misses++;
    w = victim;
    Tag& t = tags[w];
    if (t.valid) {
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      if (t.dirty) {
        stats_.dirty_evictions.fetch_add(1, std::memory_order_relaxed);
        device_->ReceiveLine(t.addr, DataOf(set, w));
      }
    }
    t.addr = line_addr;
    t.valid = true;
    t.dirty = false;
    if (fill_on_miss) {
      device_->Read(line_addr, DataOf(set, w), kCacheLineSize);
    }
  }
  tags[w].lru = ++set_tick_[set];
  fn(DataOf(set, w), &tags[w].dirty);
}

void CacheSim::PrefetchSet(uint64_t line_addr) {
  if (InLocked(line_addr)) return;
  const size_t set = SetOf(line_addr);
  const char* tags = reinterpret_cast<const char*>(TagsOf(set));
  for (size_t b = 0; b < sizeof(Tag) * config_.ways; b += kCacheLineSize) {
    __builtin_prefetch(tags + b, 1);
  }
  for (int i = 0; i < config_.ways; i++) {
    __builtin_prefetch(DataOf(set, i), 1);
  }
}

void CacheSim::Finish(bool is_store, const Tally& tally) {
  std::atomic<uint64_t>& hits = is_store ? stats_.store_hits
                                         : stats_.load_hits;
  std::atomic<uint64_t>& misses = is_store ? stats_.store_misses
                                           : stats_.load_misses;
  if (tally.hits > 0) hits.fetch_add(tally.hits, std::memory_order_relaxed);
  if (tally.misses == 0) return;
  misses.fetch_add(tally.misses, std::memory_order_relaxed);
  if (!is_store && latency_ != nullptr) {
    latency_->ChargeCacheMissLoad(tally.misses);
  }
}

void CacheSim::Store(uint64_t addr, const void* src, size_t len) {
  const char* in = static_cast<const char*>(src);
  uint64_t pos = addr;
  size_t remaining = len;
  Tally tally;
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    const bool full_line = (chunk == kCacheLineSize);
    WithLine(line, /*fill_on_miss=*/!full_line, &tally,
             [&](char* data, bool* dirty) {
               memcpy(data + off, in, chunk);
               *dirty = true;
             });
    in += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  Finish(/*is_store=*/true, tally);
}

void CacheSim::Load(uint64_t addr, void* dst, size_t len) {
  char* out = static_cast<char*>(dst);
  uint64_t pos = addr;
  size_t remaining = len;
  Tally tally;
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    WithLine(line, /*fill_on_miss=*/true, &tally,
             [&](char* data, bool*) { memcpy(out, data + off, chunk); });
    out += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  Finish(/*is_store=*/false, tally);
}

void CacheSim::Clwb(uint64_t addr, size_t len) {
  uint64_t first = AlignDown(addr, kCacheLineSize);
  uint64_t last = AlignDown(addr + (len == 0 ? 0 : len - 1), kCacheLineSize);
  for (uint64_t line = first; line <= last; line += kCacheLineSize) {
    if (InLocked(line)) {
      size_t idx = static_cast<size_t>(
          ((line - locked_window_base()) / kCacheLineSize) %
          locked_.size());
      std::lock_guard<std::mutex> lock(LockedMutex(idx));
      LockedLine& l = locked_[idx];
      if (l.valid && l.addr == line && l.dirty) {
        device_->ReceiveLine(line, l.data);
        l.dirty = false;
      }
      continue;
    }
    size_t set = SetOf(line);
    std::lock_guard<std::mutex> lock(SetMutex(set));
    const int w = Probe(set, line);
    if (w >= 0 && TagsOf(set)[w].dirty) {
      device_->ReceiveLine(line, DataOf(set, w));
      TagsOf(set)[w].dirty = false;
    }
  }
  const uint64_t lines = (last - first) / kCacheLineSize + 1;
  stats_.clwb_lines.fetch_add(lines, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeClwb(lines);
}

void CacheSim::FlushNormalLine(uint64_t line_addr) {
  size_t set = SetOf(line_addr);
  std::lock_guard<std::mutex> lock(SetMutex(set));
  const int w = Probe(set, line_addr);
  if (w < 0) return;
  Tag& t = TagsOf(set)[w];
  if (t.dirty) {
    device_->ReceiveLine(line_addr, DataOf(set, w));
  }
  t.valid = false;
  t.dirty = false;
}

void CacheSim::Clflush(uint64_t addr, size_t len) {
  uint64_t first = AlignDown(addr, kCacheLineSize);
  uint64_t last = AlignDown(addr + (len == 0 ? 0 : len - 1), kCacheLineSize);
  for (uint64_t line = first; line <= last; line += kCacheLineSize) {
    if (!InLocked(line)) {
      FlushNormalLine(line);
      continue;
    }
    // Per the paper's footnote: clflush evicts even CAT pseudo-locked
    // lines.
    size_t idx = static_cast<size_t>(
        ((line - locked_window_base()) / kCacheLineSize) % locked_.size());
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.addr == line) {
      if (l.dirty) {
        device_->ReceiveLine(line, l.data);
      }
      l.valid = false;
      l.dirty = false;
    }
  }
  const uint64_t lines = (last - first) / kCacheLineSize + 1;
  stats_.clwb_lines.fetch_add(lines, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeClwb(lines);
}

void CacheSim::Sfence() {
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeSfence();
}

template <typename Fn>
void CacheSim::TakeCachedLine(uint64_t line_addr, char* out, Fn&& fn) {
  if (InLocked(line_addr)) {
    size_t idx = static_cast<size_t>(
        ((line_addr - locked_window_base()) / kCacheLineSize) %
        locked_.size());
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    const bool cached = l.valid && l.addr == line_addr;
    if (cached) {
      memcpy(out, l.data, kCacheLineSize);
      l.valid = false;
      l.dirty = false;
    }
    fn(cached);
    return;
  }
  size_t set = SetOf(line_addr);
  std::lock_guard<std::mutex> lock(SetMutex(set));
  const int w = Probe(set, line_addr);
  if (w >= 0) {
    memcpy(out, DataOf(set, w), kCacheLineSize);
    TagsOf(set)[w].valid = false;
    TagsOf(set)[w].dirty = false;
  }
  fn(w >= 0);
}

void CacheSim::NtStore(uint64_t addr, const void* src, size_t len) {
  const char* in = static_cast<const char*>(src);
  uint64_t pos = addr;
  size_t remaining = len;
  uint64_t lines = 0;
  // Lines of the same XPLine are gathered in `group` and handed to the
  // device together; group_addr is the first of group_lines lines.
  char group[kXPLineSize];
  uint64_t group_addr = 0;
  int group_lines = 0;
  auto send_group = [&] {
    if (group_lines > 0) {
      device_->ReceiveLines(group_addr, group, group_lines,
                            /*non_temporal=*/true);
    }
    group_lines = 0;
  };
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    // A partial line may have to read the device, which must see the
    // lines before it first.
    if (chunk < kCacheLineSize ||
        AlignDown(line, kXPLineSize) != AlignDown(group_addr, kXPLineSize)) {
      send_group();
    }
    if (group_lines == 0) group_addr = line;
    char* merged = group + group_lines * kCacheLineSize;
    // Fold in (and invalidate) any cached copy so coherence is preserved.
    // A partial line keeps bytes that readers may be loading, so it is
    // merged and sent under the line's lock: a concurrent miss cannot
    // cache the old bytes in between.
    TakeCachedLine(line, merged, [&](bool cached) {
      if (chunk == kCacheLineSize) return;
      if (!cached) device_->Read(line, merged, kCacheLineSize);
      memcpy(merged + off, in, chunk);
      device_->ReceiveLines(line, merged, 1, /*non_temporal=*/true);
    });
    if (chunk == kCacheLineSize) {
      memcpy(merged, in, chunk);
      group_lines++;
    }
    lines++;

    in += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  send_group();
  stats_.nt_lines.fetch_add(lines, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeNtStore(lines);
}

uint64_t CacheSim::Load64(uint64_t addr) {
  assert(IsAligned(addr, 8));
  uint64_t value = 0;
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  Tally tally;
  WithLine(line, /*fill_on_miss=*/true, &tally,
           [&](char* data, bool*) { memcpy(&value, data + off, 8); });
  Finish(/*is_store=*/false, tally);
  return value;
}

void CacheSim::Store64(uint64_t addr, uint64_t value) {
  assert(IsAligned(addr, 8));
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  Tally tally;
  WithLine(line, /*fill_on_miss=*/true, &tally,
           [&](char* data, bool* dirty) {
             memcpy(data + off, &value, 8);
             *dirty = true;
           });
  Finish(/*is_store=*/true, tally);
}

bool CacheSim::CompareExchange64(uint64_t addr, uint64_t* expected,
                                 uint64_t desired) {
  assert(IsAligned(addr, 8));
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  bool success = false;
  Tally tally;
  WithLine(line, /*fill_on_miss=*/true, &tally,
           [&](char* data, bool* dirty) {
             uint64_t current;
             memcpy(&current, data + off, 8);
             if (current == *expected) {
               memcpy(data + off, &desired, 8);
               *dirty = true;
               success = true;
             } else {
               *expected = current;
             }
           });
  Finish(/*is_store=*/true, tally);
  return success;
}

void CacheSim::Crash() {
  const bool eadr = (config_.domain == PersistDomain::kEadr);
  for (size_t set = 0; set < num_sets_; set++) {
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Tag* tags = TagsOf(set);
    for (int i = 0; i < config_.ways; i++) {
      Tag& t = tags[i];
      if (t.valid && t.dirty && eadr) {
        device_->ReceiveLine(t.addr, DataOf(set, i));
      }
      t.valid = false;
      t.dirty = false;
    }
    set_tick_[set] = 0;
  }
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty && eadr) {
      device_->ReceiveLine(l.addr, l.data);
    }
    l.valid = false;
    l.dirty = false;
  }
  device_->DrainAll();
}

void CacheSim::WritebackAll() {
  for (size_t set = 0; set < num_sets_; set++) {
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Tag* tags = TagsOf(set);
    for (int i = 0; i < config_.ways; i++) {
      Tag& t = tags[i];
      if (t.valid && t.dirty) {
        device_->ReceiveLine(t.addr, DataOf(set, i));
        t.dirty = false;
      }
    }
  }
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty) {
      device_->ReceiveLine(l.addr, l.data);
      l.dirty = false;
    }
  }
  device_->DrainAll();
}

uint64_t CacheSim::LockedResidentLines() const {
  uint64_t count = 0;
  for (const auto& l : locked_) {
    if (l.valid) count++;
  }
  return count;
}

void CacheSim::SetLockedWindow(uint64_t new_base) {
  assert(IsAligned(new_base, kCacheLineSize));
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty) {
      device_->ReceiveLine(l.addr, l.data);
    }
    l.valid = false;
    l.dirty = false;
  }
  // Lines of the NEW window may be cached (possibly dirty) in the normal
  // partition from before the re-lock; push them out so locked-path
  // fills observe the freshest bytes.
  for (uint64_t line = new_base; line < new_base + config_.locked_size;
       line += kCacheLineSize) {
    FlushNormalLine(line);
  }
  locked_base_.store(new_base, std::memory_order_release);
}

}  // namespace cachekv
