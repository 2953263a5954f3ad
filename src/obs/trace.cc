#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/json.h"

namespace cachekv {
namespace obs {

namespace {

/// Instance ids disambiguate thread-local shard caches when a destroyed
/// tracer's address is reused by a later instance (same scheme as
/// ShardedHistogram).
std::atomic<uint64_t> g_next_tracer_id{1};

/// Process-wide small integer thread ids for the "tid" field.
std::atomic<uint32_t> g_next_trace_tid{1};

uint32_t CurrentTraceTid() {
  thread_local uint32_t tid = 0;
  if (tid == 0) {
    tid = g_next_trace_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return tid;
}

}  // namespace

/// One ring slot. All fields are relaxed atomics guarded by a per-slot
/// sequence stamp (odd while a write is in progress), so a concurrent
/// exporter can detect and skip a slot that is being overwritten
/// without data races. The single writer never contends with itself.
struct Slot {
  std::atomic<uint64_t> stamp{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<char> phase{'X'};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<const char*> arg1_name{nullptr};
  std::atomic<uint64_t> arg1{0};
  std::atomic<const char*> arg2_name{nullptr};
  std::atomic<uint64_t> arg2{0};
};

/// Single-writer ring of one emitting thread.
struct Tracer::Shard {
  Shard(size_t capacity, uint32_t tid)
      : tid(tid), capacity(capacity), slots(new Slot[capacity]) {}

  const uint32_t tid;
  const size_t capacity;
  std::unique_ptr<Slot[]> slots;
  /// Total events ever appended; the ring holds the newest
  /// min(head, capacity) of them.
  std::atomic<uint64_t> head{0};

  void Append(const char* name, char phase, uint64_t ts_ns,
              uint64_t dur_ns, const char* arg1_name, uint64_t arg1,
              const char* arg2_name, uint64_t arg2) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h % capacity];
    const uint64_t stamp = s.stamp.load(std::memory_order_relaxed);
    // Odd stamp: write in progress; exporters skip the slot.
    s.stamp.store(stamp + 1, std::memory_order_release);
    s.name.store(name, std::memory_order_relaxed);
    s.phase.store(phase, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.arg1_name.store(arg1_name, std::memory_order_relaxed);
    s.arg1.store(arg1, std::memory_order_relaxed);
    s.arg2_name.store(arg2_name, std::memory_order_relaxed);
    s.arg2.store(arg2, std::memory_order_relaxed);
    s.stamp.store(stamp + 2, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }
};

namespace {

struct TlsShardRef {
  const void* tracer = nullptr;
  uint64_t id = 0;
  Tracer::Shard* shard = nullptr;
};

thread_local std::vector<TlsShardRef> tls_trace_shards;

}  // namespace

Tracer::Tracer(size_t events_per_thread)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      events_per_thread_(events_per_thread == 0 ? 1 : events_per_thread),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::Shard* Tracer::LocalShard() {
  for (TlsShardRef& ref : tls_trace_shards) {
    if (ref.tracer == this && ref.id == id_) {
      return ref.shard;
    }
  }
  auto shard =
      std::make_unique<Shard>(events_per_thread_, CurrentTraceTid());
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.push_back(std::move(shard));
  }
  for (TlsShardRef& ref : tls_trace_shards) {
    if (ref.tracer == this) {
      ref.id = id_;
      ref.shard = raw;
      return raw;
    }
  }
  tls_trace_shards.push_back(TlsShardRef{this, id_, raw});
  return raw;
}

void Tracer::SetThreadName(const char* name) {
  if (!enabled()) {
    return;
  }
  // Claim the thread's ring now, so its first event does not allocate
  // inside a timed region (a request's service window, say).
  LocalShard();
  const uint32_t tid = CurrentTraceTid();
  std::lock_guard<std::mutex> lock(names_mu_);
  for (auto& entry : thread_names_) {
    if (entry.first == tid) {
      entry.second = name;
      return;
    }
  }
  thread_names_.emplace_back(tid, name);
}

void Tracer::Instant(const char* name, const char* arg_name,
                     uint64_t arg) {
  if (!enabled()) {
    return;
  }
  LocalShard()->Append(name, 'i', NowNs(), 0, arg_name, arg, nullptr, 0);
}

void Tracer::Complete(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                      const char* arg1_name, uint64_t arg1,
                      const char* arg2_name, uint64_t arg2) {
  if (!enabled()) {
    return;
  }
  LocalShard()->Append(name, 'X', ts_ns, dur_ns, arg1_name, arg1,
                       arg2_name, arg2);
}

uint64_t Tracer::RetainedEvents() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += std::min<uint64_t>(
        shard->head.load(std::memory_order_acquire), shard->capacity);
  }
  return total;
}

uint64_t Tracer::DroppedEvents() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const uint64_t head = shard->head.load(std::memory_order_acquire);
    if (head > shard->capacity) {
      total += head - shard->capacity;
    }
  }
  return total;
}

void Tracer::ExportJson(JsonValue* events, int pid,
                        const std::string& process_name) const {
  const double kPid = static_cast<double>(pid);
  if (!process_name.empty()) {
    JsonValue meta = JsonValue::Object();
    meta.Set("name", JsonValue::Str("process_name"));
    meta.Set("ph", JsonValue::Str("M"));
    meta.Set("pid", JsonValue::Number(kPid));
    meta.Set("tid", JsonValue::Number(0));
    JsonValue args = JsonValue::Object();
    args.Set("name", JsonValue::Str(process_name));
    meta.Set("args", std::move(args));
    events->Append(std::move(meta));
  }
  {
    std::lock_guard<std::mutex> lock(names_mu_);
    for (const auto& [tid, name] : thread_names_) {
      JsonValue meta = JsonValue::Object();
      meta.Set("name", JsonValue::Str("thread_name"));
      meta.Set("ph", JsonValue::Str("M"));
      meta.Set("pid", JsonValue::Number(kPid));
      meta.Set("tid", JsonValue::Number(static_cast<double>(tid)));
      JsonValue args = JsonValue::Object();
      args.Set("name", JsonValue::Str(name));
      meta.Set("args", std::move(args));
      events->Append(std::move(meta));
    }
  }

  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& shard : shards_) {
    const uint64_t head = shard->head.load(std::memory_order_acquire);
    const uint64_t window = std::min<uint64_t>(head, shard->capacity);
    const uint64_t dropped = head - window;
    for (uint64_t i = head - window; i < head; i++) {
      const Slot& slot = shard->slots[i % shard->capacity];
      const uint64_t stamp_before =
          slot.stamp.load(std::memory_order_acquire);
      if (stamp_before % 2 != 0) {
        continue;  // mid-overwrite by a live writer
      }
      const char* name = slot.name.load(std::memory_order_relaxed);
      const char phase = slot.phase.load(std::memory_order_relaxed);
      const uint64_t ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      const uint64_t dur_ns =
          slot.dur_ns.load(std::memory_order_relaxed);
      const char* a1n = slot.arg1_name.load(std::memory_order_relaxed);
      const uint64_t a1 = slot.arg1.load(std::memory_order_relaxed);
      const char* a2n = slot.arg2_name.load(std::memory_order_relaxed);
      const uint64_t a2 = slot.arg2.load(std::memory_order_relaxed);
      if (slot.stamp.load(std::memory_order_acquire) != stamp_before ||
          name == nullptr) {
        continue;  // overwritten while we read it
      }
      JsonValue event = JsonValue::Object();
      event.Set("name", JsonValue::Str(name));
      event.Set("ph", JsonValue::Str(std::string(1, phase)));
      event.Set("ts", JsonValue::Number(ts_ns / 1000.0));
      if (phase == 'X') {
        event.Set("dur", JsonValue::Number(dur_ns / 1000.0));
      }
      event.Set("pid", JsonValue::Number(kPid));
      event.Set("tid",
                JsonValue::Number(static_cast<double>(shard->tid)));
      if (a1n != nullptr || a2n != nullptr) {
        JsonValue args = JsonValue::Object();
        if (a1n != nullptr) {
          args.Set(a1n, JsonValue::Number(static_cast<double>(a1)));
        }
        if (a2n != nullptr) {
          args.Set(a2n, JsonValue::Number(static_cast<double>(a2)));
        }
        event.Set("args", std::move(args));
      }
      events->Append(std::move(event));
    }
    if (dropped > 0) {
      JsonValue event = JsonValue::Object();
      event.Set("name", JsonValue::Str("trace.dropped"));
      event.Set("ph", JsonValue::Str("i"));
      event.Set("ts", JsonValue::Number(NowNs() / 1000.0));
      event.Set("pid", JsonValue::Number(kPid));
      event.Set("tid",
                JsonValue::Number(static_cast<double>(shard->tid)));
      JsonValue args = JsonValue::Object();
      args.Set("dropped",
               JsonValue::Number(static_cast<double>(dropped)));
      event.Set("args", std::move(args));
      events->Append(std::move(event));
    }
  }
}

void Tracer::Export(std::string* out) const {
  JsonValue events = JsonValue::Array();
  ExportJson(&events);
  events.Write(out);
}

bool TraceEnabledFromEnv() {
  const char* env = std::getenv("CACHEKV_TRACE");
  if (env == nullptr || env[0] == '\0') {
    return false;
  }
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
         std::strcmp(env, "off") != 0;
}

}  // namespace obs
}  // namespace cachekv
