#ifndef CACHEKV_OBS_TRACE_H_
#define CACHEKV_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cachekv {

class JsonValue;

namespace obs {

/// Tracer is a lock-free event recorder for end-to-end timeline
/// debugging (docs/OBSERVABILITY.md): every thread that emits an event
/// claims a private fixed-capacity ring buffer (a shard), appends are
/// single-writer with no allocation or locking, and the whole trace
/// serializes to Chrome trace-event JSON loadable in Perfetto or
/// chrome://tracing.
///
/// Two event kinds exist, matching the trace-event "ph" field:
///   * complete ("X"): a named duration [ts, ts+dur) with up to two
///     integer args (byte counts, key counts, levels, ...);
///   * instant ("i"): a point marker (seals, acquire waits).
///
/// Rings wrap: when a shard overflows, the newest events overwrite the
/// oldest and the overwritten ones are counted as dropped, so a trace
/// always holds the freshest window of activity. Event names and arg
/// names must be string literals (or otherwise outlive the tracer) —
/// only the pointer is stored.
///
/// Disabled tracers (the default) cost one relaxed atomic load per
/// probe. Exporting while writers are live is safe (per-slot sequence
/// stamps detect and skip events that are mid-overwrite), but a trace
/// meant for analysis should be dumped after the store has quiesced.
class Tracer {
 public:
  /// `events_per_thread` is each shard's fixed ring capacity.
  explicit Tracer(size_t events_per_thread = 1 << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer's construction (the trace epoch).
  uint64_t NowNs() const;

  /// Registers a display name for the calling thread, emitted as
  /// trace-event metadata, and claims the thread's ring when tracing is
  /// enabled. Safe to call whether or not tracing is enabled
  /// (background threads register unconditionally at startup).
  void SetThreadName(const char* name);

  /// Emits an instant event. No-ops when disabled.
  void Instant(const char* name, const char* arg_name = nullptr,
               uint64_t arg = 0);

  /// Emits a complete event covering [ts_ns, ts_ns + dur_ns). Arg slots
  /// with a null name are omitted. No-ops when disabled (but prefer
  /// TraceScope, which skips the clock reads entirely).
  void Complete(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                const char* arg1_name = nullptr, uint64_t arg1 = 0,
                const char* arg2_name = nullptr, uint64_t arg2 = 0);

  /// Events currently held across all shards / lost to ring overflow.
  uint64_t RetainedEvents() const;
  uint64_t DroppedEvents() const;

  /// Appends the retained events to `events` (a JSON array) as Chrome
  /// trace-event objects: {"name","ph","ts","dur","pid","tid","args"},
  /// with "ts"/"dur" in microseconds. Registered thread names and (when
  /// `process_name` is non-empty) the process name are emitted as "M"
  /// metadata events; ring overflow is reported as one
  /// "trace.dropped" instant per overflowed shard.
  void ExportJson(JsonValue* events, int pid = 0,
                  const std::string& process_name = std::string()) const;

  /// Serializes the whole trace as one JSON array (the format Perfetto
  /// and chrome://tracing load directly).
  void Export(std::string* out) const;

  struct Shard;

 private:
  Shard* LocalShard();

  const uint64_t id_;  // disambiguates reused addresses in TLS caches
  const size_t events_per_thread_;
  std::atomic<bool> enabled_{false};
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex names_mu_;
  std::vector<std::pair<uint32_t, const char*>> thread_names_;
};

/// RAII scope emitting one complete event for the enclosing region.
/// Null or disabled tracer => fully inert (no clock reads).
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer_ = tracer;
      name_ = name;
      start_ = tracer->NowNs();
    }
  }

  ~TraceScope() {
    if (tracer_ != nullptr) {
      tracer_->Complete(name_, start_, tracer_->NowNs() - start_,
                        arg1_name_, arg1_, arg2_name_, arg2_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attaches up to two integer args (first-come, first-stored) to the
  /// event this scope will emit. `name` must be a string literal.
  void AddArg(const char* name, uint64_t value) {
    if (tracer_ == nullptr) {
      return;
    }
    if (arg1_name_ == nullptr) {
      arg1_name_ = name;
      arg1_ = value;
    } else if (arg2_name_ == nullptr) {
      arg2_name_ = name;
      arg2_ = value;
    }
  }

  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_ = 0;
  const char* arg1_name_ = nullptr;
  uint64_t arg1_ = 0;
  const char* arg2_name_ = nullptr;
  uint64_t arg2_ = 0;
};

/// True when the CACHEKV_TRACE environment variable requests tracing
/// (any value except "", "0", "false", "off").
bool TraceEnabledFromEnv();

}  // namespace obs
}  // namespace cachekv

#endif  // CACHEKV_OBS_TRACE_H_
