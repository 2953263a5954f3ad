#include "obs/slow_log.h"

#include <algorithm>
#include <cstring>

#include "util/json.h"

namespace cachekv {
namespace obs {

void SlowLogEntry::SetKey(const char* data, size_t len) {
  size_t n = std::min(len, static_cast<size_t>(kSlowLogKeyPrefix));
  std::memcpy(key_prefix, data, n);
  key_prefix_len = static_cast<uint8_t>(n);
}

/// One ring slot. Every field is a relaxed atomic so concurrent
/// Record/Snapshot stay race-free under TSan; the stamp is the seqlock:
/// 2*claim+1 while the writer is copying in, 2*claim+2 once published.
/// A reader that sees an odd stamp, or a stamp that changed across its
/// field reads, discards the slot.
struct SlowLog::Slot {
  std::atomic<uint64_t> stamp{0};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> total_us{0};
  std::atomic<uint32_t> shard{0};
  std::atomic<uint32_t> queue_depth{0};
  std::atomic<const char*> op{nullptr};
  std::atomic<uint8_t> key_prefix_len{0};
  // Key prefix packed into two words so the whole slot stays atomic.
  std::atomic<uint64_t> key_lo{0};
  std::atomic<uint64_t> key_hi{0};
  std::atomic<int> num_stages{0};
  std::atomic<const char*> stage_name[kSlowLogMaxStages];
  std::atomic<uint64_t> stage_us[kSlowLogMaxStages];
};

SlowLog::SlowLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

SlowLog::~SlowLog() = default;

namespace {

void PackKey(const char* prefix, uint64_t* lo, uint64_t* hi) {
  uint64_t words[2] = {0, 0};
  std::memcpy(words, prefix, kSlowLogKeyPrefix);
  *lo = words[0];
  *hi = words[1];
}

void UnpackKey(uint64_t lo, uint64_t hi, char* prefix) {
  uint64_t words[2] = {lo, hi};
  std::memcpy(prefix, words, kSlowLogKeyPrefix);
}

}  // namespace

void SlowLog::Record(const SlowLogEntry& entry) {
  uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % capacity_];
  // Odd stamp: write in progress. acq_rel orders the field stores for
  // readers that observe the final (even) stamp.
  slot.stamp.store(2 * claim + 1, std::memory_order_release);
  slot.ts_ns.store(entry.ts_ns, std::memory_order_relaxed);
  slot.trace_id.store(entry.trace_id, std::memory_order_relaxed);
  slot.total_us.store(entry.total_us, std::memory_order_relaxed);
  slot.shard.store(entry.shard, std::memory_order_relaxed);
  slot.queue_depth.store(entry.queue_depth, std::memory_order_relaxed);
  slot.op.store(entry.op, std::memory_order_relaxed);
  slot.key_prefix_len.store(entry.key_prefix_len, std::memory_order_relaxed);
  uint64_t lo = 0;
  uint64_t hi = 0;
  PackKey(entry.key_prefix, &lo, &hi);
  slot.key_lo.store(lo, std::memory_order_relaxed);
  slot.key_hi.store(hi, std::memory_order_relaxed);
  int stages = std::min(entry.num_stages, kSlowLogMaxStages);
  slot.num_stages.store(stages, std::memory_order_relaxed);
  for (int i = 0; i < stages; i++) {
    slot.stage_name[i].store(entry.stages[i].name, std::memory_order_relaxed);
    slot.stage_us[i].store(entry.stages[i].us, std::memory_order_relaxed);
  }
  slot.stamp.store(2 * claim + 2, std::memory_order_release);
}

uint64_t SlowLog::Captured() const {
  return head_.load(std::memory_order_relaxed);
}

uint64_t SlowLog::Dropped() const {
  uint64_t captured = Captured();
  return captured > capacity_ ? captured - capacity_ : 0;
}

std::vector<SlowLogEntry> SlowLog::Snapshot(size_t limit) const {
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t retained = std::min<uint64_t>(head, capacity_);
  if (limit != 0 && limit < retained) {
    retained = limit;
  }
  std::vector<SlowLogEntry> out;
  out.reserve(retained);
  // Newest first: walk back from head-1.
  for (uint64_t i = 0; i < retained; i++) {
    uint64_t claim = head - 1 - i;
    const Slot& slot = slots_[claim % capacity_];
    uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before != 2 * claim + 2) {
      continue;  // mid-write or already lapped by a newer claim
    }
    SlowLogEntry e;
    e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    e.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    e.total_us = slot.total_us.load(std::memory_order_relaxed);
    e.shard = slot.shard.load(std::memory_order_relaxed);
    e.queue_depth = slot.queue_depth.load(std::memory_order_relaxed);
    e.op = slot.op.load(std::memory_order_relaxed);
    e.key_prefix_len = slot.key_prefix_len.load(std::memory_order_relaxed);
    if (e.key_prefix_len > kSlowLogKeyPrefix) {
      e.key_prefix_len = kSlowLogKeyPrefix;
    }
    UnpackKey(slot.key_lo.load(std::memory_order_relaxed),
              slot.key_hi.load(std::memory_order_relaxed), e.key_prefix);
    int stages = slot.num_stages.load(std::memory_order_relaxed);
    stages = std::min(std::max(stages, 0), kSlowLogMaxStages);
    for (int s = 0; s < stages; s++) {
      const char* name = slot.stage_name[s].load(std::memory_order_relaxed);
      if (name == nullptr) {
        continue;
      }
      e.AddStage(name, slot.stage_us[s].load(std::memory_order_relaxed));
    }
    // Re-check the stamp: if a writer lapped us mid-copy the fields
    // above may mix two entries — drop the torn read.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_relaxed) != before) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

void SlowLog::ToJson(JsonValue* out, size_t limit) const {
  *out = JsonValue::Array();
  for (const SlowLogEntry& e : Snapshot(limit)) {
    JsonValue entry = JsonValue::Object();
    entry.Set("ts_us", JsonValue::Number(
                           static_cast<double>(e.ts_ns / 1000)));
    entry.Set("op", JsonValue::Str(e.op != nullptr ? e.op : "unknown"));
    entry.Set("shard", JsonValue::Number(e.shard));
    entry.Set("total_us", JsonValue::Number(
                              static_cast<double>(e.total_us)));
    entry.Set("queue_depth", JsonValue::Number(e.queue_depth));
    // Key prefixes may hold arbitrary bytes; escape non-printables so
    // the JSON stays valid.
    std::string key;
    key.reserve(e.key_prefix_len);
    for (int i = 0; i < e.key_prefix_len; i++) {
      char c = e.key_prefix[i];
      if (c >= 0x20 && c < 0x7f) {
        key.push_back(c);
      } else {
        static const char kHex[] = "0123456789abcdef";
        key.push_back('\\');
        key.push_back('x');
        key.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
        key.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
      }
    }
    entry.Set("key", JsonValue::Str(key));
    if (e.trace_id != 0) {
      entry.Set("trace_id", JsonValue::Number(
                                static_cast<double>(e.trace_id)));
    }
    JsonValue stages = JsonValue::Object();
    for (int s = 0; s < e.num_stages; s++) {
      stages.Set(e.stages[s].name,
                 JsonValue::Number(static_cast<double>(e.stages[s].us)));
    }
    entry.Set("stages", std::move(stages));
    out->Append(std::move(entry));
  }
}

}  // namespace obs
}  // namespace cachekv
