#ifndef CACHEKV_OBS_SLOW_LOG_H_
#define CACHEKV_OBS_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cachekv {

class JsonValue;

namespace obs {

/// SlowLog is a fixed-size lock-free ring of the most recent requests
/// whose service time exceeded a threshold (docs/OBSERVABILITY.md,
/// "Slow-request log"). The server records one entry per slow request —
/// op, key prefix, owning shard, per-stage latency breakdown, and the
/// queue depth the request saw on arrival — and serves the ring over
/// the wire via the SLOWLOG op, so a tail-latency spike can be
/// attributed to its stage (queueing, cache, DB descent, ...) without a
/// tracer attached.
///
/// Concurrency: writers claim distinct ring indices with one fetch_add
/// and publish through a per-slot sequence stamp (odd while a write is
/// in progress, index-tagged so a reader detects a slot lapped mid
/// read). All fields are relaxed atomics, so recording never locks and
/// a concurrent Snapshot() is race-free; a snapshot taken while writers
/// are live simply skips slots that are mid-overwrite. When the ring
/// wraps, the oldest entries are overwritten (counted as dropped).
///
/// Op and stage names must be string literals (only the pointer is
/// stored), mirroring the Tracer contract.

/// Upper bound on per-entry stage breakdown slots.
constexpr int kSlowLogMaxStages = 8;
/// Bytes of the key retained per entry (prefix; enough to identify the
/// key pattern without holding arbitrary payloads in the ring).
constexpr int kSlowLogKeyPrefix = 16;

struct SlowLogEntry {
  /// Capture time in nanoseconds on the steady clock of the recording
  /// process (comparable across entries of one SLOWLOG dump, not across
  /// processes).
  uint64_t ts_ns = 0;
  /// Trace id of the request when it was sampled, else 0.
  uint64_t trace_id = 0;
  /// Op name of the request (net::OpInfo::name, or "batch" for a
  /// group-committed run); a string literal, like stage names.
  const char* op = nullptr;
  uint32_t shard = 0;
  /// End-to-end service time in microseconds.
  uint64_t total_us = 0;
  /// Requests already decoded and waiting in front of / alongside this
  /// one on its connection when it arrived.
  uint32_t queue_depth = 0;
  uint8_t key_prefix_len = 0;  // bytes valid in key_prefix
  char key_prefix[kSlowLogKeyPrefix] = {0};
  int num_stages = 0;
  struct Stage {
    const char* name = nullptr;  // string literal
    uint64_t us = 0;
  };
  Stage stages[kSlowLogMaxStages];

  void AddStage(const char* name, uint64_t us) {
    if (num_stages < kSlowLogMaxStages) {
      stages[num_stages++] = Stage{name, us};
    }
  }
  void SetKey(const char* data, size_t len);
};

class SlowLog {
 public:
  /// `capacity` is the fixed number of retained entries (>= 1).
  explicit SlowLog(size_t capacity = 128);
  ~SlowLog();

  SlowLog(const SlowLog&) = delete;
  SlowLog& operator=(const SlowLog&) = delete;

  /// Appends one entry; lock-free, safe from any thread.
  void Record(const SlowLogEntry& entry);

  /// Entries ever recorded / lost to ring overwrite.
  uint64_t Captured() const;
  uint64_t Dropped() const;
  size_t capacity() const { return capacity_; }

  /// Copies out the retained entries, newest first, at most `limit`
  /// (0 = all). Safe while writers are recording.
  std::vector<SlowLogEntry> Snapshot(size_t limit = 0) const;

  /// Serializes Snapshot(limit) as a JSON array (the SLOWLOG wire
  /// payload): [{"ts_us","op","shard","total_us","queue_depth","key",
  /// "trace_id","stages":{name:us,...}}, ...], newest first.
  void ToJson(JsonValue* out, size_t limit = 0) const;

  struct Slot;

 private:
  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};  // total entries ever claimed
};

}  // namespace obs
}  // namespace cachekv

#endif  // CACHEKV_OBS_SLOW_LOG_H_
