#ifndef CACHEKV_OBS_METRICS_H_
#define CACHEKV_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.h"

namespace cachekv {

class JsonValue;

namespace obs {

/// Monotonic named counter. The memory-order parameters mirror
/// std::atomic so call sites migrated from raw atomics (CacheKVStats)
/// keep compiling unchanged.
class Counter {
 public:
  void fetch_add(uint64_t delta,
                 std::memory_order order = std::memory_order_relaxed) {
    value_.fetch_add(delta, order);
  }
  void Increment(uint64_t delta = 1) { fetch_add(delta); }
  uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return value_.load(order);
  }
  uint64_t value() const { return load(); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge (double, so ratios fit too).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // Single logical updater per gauge; a read-modify-write store is
    // enough and stays lock-free on every target.
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Histogram with one shard per writer thread, merged on scrape.
///
/// This is the registry's answer to Histogram's single-writer contract:
/// Record() routes each thread to a shard it alone writes (claimed via a
/// thread-local cache), so bench and DB background threads can never
/// corrupt each other's percentiles, and a scrape can run while writers
/// are live. Shard cells are relaxed atomics — single-writer, so plain
/// increments suffice and concurrent Merged() readers see a consistent-
/// enough view without locks or data races.
class ShardedHistogram {
 public:
  ShardedHistogram();
  ~ShardedHistogram();

  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  /// Records one sample into the calling thread's shard.
  void Record(double value);

  /// Sum of all shards. Safe to call while writers are recording.
  Histogram Merged() const;

  uint64_t TotalCount() const;
  double TotalSum() const;

  /// Number of shards ever claimed (== number of distinct writer
  /// threads seen). Test hook for the ownership design.
  int NumShards() const;

  /// Single-writer shard; defined in metrics.cc.
  struct Shard;

 private:
  Shard* LocalShard();

  const uint64_t id_;  // disambiguates reused addresses in TLS caches
  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time value of one metric.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0;
  Histogram histogram;  // merged shards; empty for counters/gauges
};

/// Scrape of a whole registry, in registration order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricValue>> metrics;

  const MetricValue* Find(std::string_view name) const;
  /// Counter value, or 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  /// Merged histogram count, or 0 when absent.
  uint64_t HistogramCount(std::string_view name) const;
  /// Merged histogram sum (for span histograms: total nanoseconds).
  double HistogramSum(std::string_view name) const;

  /// Serializes the snapshot as a JSON object keyed by metric name.
  void ToJson(JsonValue* out) const;
};

/// MetricsRegistry names and owns every counter, gauge and span
/// histogram of one store instance.
///
/// Hot-path reads (GetCounter / GetHistogram on an existing name) are
/// lock-free: the name table is a fixed-capacity open-addressed hash map
/// whose slots are atomically published; lookups are acquire-loads plus
/// a string compare. First-registration of a name takes a mutex.
/// Entries are never removed, so returned pointers stay valid for the
/// registry's lifetime — call sites may cache them.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  ShardedHistogram* GetHistogram(std::string_view name);

  /// Consistent-enough scrape while writers run: counters and histogram
  /// shards are read with relaxed atomics; the set of metrics is the set
  /// registered at the time of the call.
  MetricsSnapshot Snapshot() const;

  /// Appends the snapshot to *out as pretty-printed JSON.
  void DumpJson(std::string* out) const;

 private:
  struct Entry;

  Entry* FindOrCreate(std::string_view name, MetricKind kind);

  static constexpr size_t kTableSize = 1024;  // power of two; fixed

  std::array<std::atomic<Entry*>, kTableSize> table_;
  mutable std::mutex insert_mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

/// Stage-scoped wall-clock timer: records the elapsed nanoseconds into
/// the span histogram `name` on destruction. Null registry => no-op, so
/// components keep working when observability is not wired up.
class SpanTimer {
 public:
  SpanTimer(MetricsRegistry* registry, std::string_view name)
      : SpanTimer(registry == nullptr ? nullptr
                                      : registry->GetHistogram(name)) {}
  /// Times into a histogram the caller resolved once (null: no-op).
  explicit SpanTimer(ShardedHistogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~SpanTimer() { Stop(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Ends the span early (idempotent).
  void Stop() {
    if (histogram_ != nullptr) {
      histogram_->Record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
      histogram_ = nullptr;
    }
  }

 private:
  ShardedHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

#define OBS_SPAN_CONCAT_(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT_(a, b)

/// Times the rest of the enclosing scope into span histogram `name` of
/// `registry` (which may be null). Example: OBS_SPAN(reg, "flush.copy");
#define OBS_SPAN(registry, name)                        \
  ::cachekv::obs::SpanTimer OBS_SPAN_CONCAT(obs_span_, \
                                            __LINE__)((registry), (name))

}  // namespace obs
}  // namespace cachekv

#endif  // CACHEKV_OBS_METRICS_H_
