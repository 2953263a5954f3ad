// Microbenchmarks of the simulated-hardware substrate (google-benchmark):
// XPBuffer combining behaviour, cache simulator throughput, skiplist
// insert/lookup. These validate the building blocks underneath the paper's
// figure harnesses.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>

#include "cache/cache_sim.h"
#include "core/db.h"
#include "index/pmem_bptree.h"
#include "index/pmem_skiplist.h"
#include "index/skiplist.h"
#include "pmem/pmem_device.h"
#include "pmem/pmem_env.h"
#include "util/arena.h"
#include "util/random.h"

namespace cachekv {
namespace {

EnvOptions TestEnvOptions() {
  EnvOptions opts;
  opts.pmem_capacity = 64ull << 20;
  opts.llc_capacity = 4ull << 20;
  opts.latency.scale = 0;  // Pure software-overhead measurement.
  return opts;
}

void BM_PmemSequentialLines(benchmark::State& state) {
  EnvOptions opts = TestEnvOptions();
  LatencyModel latency(opts.latency);
  PmemConfig config;
  config.capacity = 64ull << 20;
  PmemDevice device(config, &latency);
  char line[kCacheLineSize];
  memset(line, 0xab, sizeof(line));
  uint64_t addr = 0;
  for (auto _ : state) {
    device.ReceiveLine(addr % config.capacity, line);
    addr += kCacheLineSize;
  }
  state.SetBytesProcessed(state.iterations() * kCacheLineSize);
  state.counters["write_hit_ratio"] = device.counters().WriteHitRatio();
}
BENCHMARK(BM_PmemSequentialLines);

void BM_PmemRandomLines(benchmark::State& state) {
  EnvOptions opts = TestEnvOptions();
  LatencyModel latency(opts.latency);
  PmemConfig config;
  config.capacity = 64ull << 20;
  PmemDevice device(config, &latency);
  char line[kCacheLineSize];
  memset(line, 0xcd, sizeof(line));
  Random rng(7);
  const uint64_t num_lines = config.capacity / kCacheLineSize;
  for (auto _ : state) {
    device.ReceiveLine(rng.Uniform(num_lines) * kCacheLineSize, line);
  }
  state.SetBytesProcessed(state.iterations() * kCacheLineSize);
  state.counters["write_hit_ratio"] = device.counters().WriteHitRatio();
  state.counters["write_amp"] = device.counters().WriteAmplification();
}
BENCHMARK(BM_PmemRandomLines);

void BM_CacheStore64B(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  char buf[64];
  memset(buf, 0x5a, sizeof(buf));
  uint64_t addr = 0;
  const uint64_t limit = env.options().pmem_capacity - 64;
  for (auto _ : state) {
    env.Store(addr, buf, sizeof(buf));
    addr = (addr + 64) % limit;
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CacheStore64B);

void BM_CacheNtStore256B(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  char buf[256];
  memset(buf, 0x5a, sizeof(buf));
  uint64_t addr = 0;
  const uint64_t limit = env.options().pmem_capacity - 256;
  for (auto _ : state) {
    env.NtStore(addr, buf, sizeof(buf));
    addr = (addr + 256) % limit;
  }
  state.SetBytesProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CacheNtStore256B);

// 16 KiB substrate calls, the size of a kvsep value. The env has the
// testbed's 36 MB LLC, so tag probes touch a host array of that size, as
// in the server. The argument is the latency scale; host_ns is the wall
// time of one call and injected_ns the device time it was charged, so
// host_ns - injected_ns is the simulator's own cost.
constexpr size_t k16K = 16 << 10;

EnvOptions Substrate16KOptions(const benchmark::State& state) {
  EnvOptions opts;
  opts.pmem_capacity = 64ull << 20;
  opts.latency.scale = static_cast<double>(state.range(0));
  return opts;
}

void ReportPerCall(benchmark::State& state, PmemEnv* env,
                   uint64_t injected_before,
                   std::chrono::steady_clock::duration elapsed) {
  const double calls = static_cast<double>(state.iterations());
  state.counters["host_ns"] =
      std::chrono::duration<double, std::nano>(elapsed).count() / calls;
  state.counters["injected_ns"] =
      static_cast<double>(env->latency()->total_injected_ns() -
                          injected_before) /
      calls;
}

// Sequential 16 KiB non-temporal stores: the value-log append path.
void BM_NtStore16K(benchmark::State& state) {
  PmemEnv env(Substrate16KOptions(state));
  std::string buf(k16K, '\x5a');
  const uint64_t region = 32ull << 20;
  uint64_t addr = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    env.NtStore(addr, buf.data(), buf.size());
    addr = (addr + k16K) % region;
  }
  ReportPerCall(state, &env, 0, std::chrono::steady_clock::now() - start);
  state.SetBytesProcessed(state.iterations() * k16K);
}
BENCHMARK(BM_NtStore16K)->ArgName("scale")->Arg(0)->Arg(1);

// Sequential 16 KiB loads over a region larger than the LLC, so every
// line misses: the value-log read path.
void BM_Load16K(benchmark::State& state) {
  PmemEnv env(Substrate16KOptions(state));
  std::string buf(k16K, '\x5a');
  const uint64_t region = 48ull << 20;
  for (uint64_t addr = 0; addr < region; addr += k16K) {
    env.NtStore(addr, buf.data(), buf.size());
  }
  const uint64_t setup_ns = env.latency()->total_injected_ns();
  uint64_t addr = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    env.Load(addr, buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
    addr = (addr + k16K) % region;
  }
  ReportPerCall(state, &env, setup_ns,
                std::chrono::steady_clock::now() - start);
  state.SetBytesProcessed(state.iterations() * k16K);
}
BENCHMARK(BM_Load16K)->ArgName("scale")->Arg(0)->Arg(1);

struct U64Comparator {
  int operator()(uint64_t a, uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

void BM_SkipListInsert(benchmark::State& state) {
  Arena arena;
  SkipList<uint64_t, U64Comparator> list(U64Comparator(), &arena);
  Random rng(11);
  uint64_t i = 0;
  for (auto _ : state) {
    // Mix to avoid duplicate keys.
    list.Insert(Mix64(i++));
  }
}
BENCHMARK(BM_SkipListInsert);

void BM_SkipListLookup(benchmark::State& state) {
  Arena arena;
  SkipList<uint64_t, U64Comparator> list(U64Comparator(), &arena);
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; i++) {
    list.Insert(Mix64(i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Contains(Mix64(i % n)));
    i++;
  }
}
BENCHMARK(BM_SkipListLookup);

void BM_PmemSkipListInsert(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  uint64_t region;
  env.allocator()->Allocate(32ull << 20, &region);
  PmemSkipList list(&env, region, 32ull << 20, FlushMode::kNone);
  uint64_t i = 0;
  std::string value(64, 'v');
  for (auto _ : state) {
    std::string key = "key" + std::to_string(Mix64(i));
    if (!list.Insert(++i, kTypeValue, Slice(key), Slice(value)).ok()) {
      list.Reset();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemSkipListInsert);

void BM_PmemSkipListGet(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  uint64_t region;
  env.allocator()->Allocate(32ull << 20, &region);
  PmemSkipList list(&env, region, 32ull << 20, FlushMode::kNone);
  const uint64_t n = 50'000;
  std::string value(64, 'v');
  for (uint64_t i = 0; i < n; i++) {
    list.Insert(i + 1, kTypeValue, Slice("key" + std::to_string(i)),
                Slice(value));
  }
  Random rng(5);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Get(
        Slice("key" + std::to_string(rng.Uniform(n))), n + 1, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemSkipListGet);

void BM_PmemBPlusTreeInsert(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  uint64_t region;
  env.allocator()->Allocate(48ull << 20, &region);
  PmemBPlusTree tree(&env, region, 48ull << 20, FlushMode::kNone);
  uint64_t i = 0;
  for (auto _ : state) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%016llx",
             static_cast<unsigned long long>(Mix64(i++)));
    if (!tree.Insert(Slice(buf), i).ok()) {
      state.SkipWithError("bptree region exhausted");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemBPlusTreeInsert);

void BM_PmemBPlusTreeGet(benchmark::State& state) {
  PmemEnv env(TestEnvOptions());
  uint64_t region;
  env.allocator()->Allocate(48ull << 20, &region);
  PmemBPlusTree tree(&env, region, 48ull << 20, FlushMode::kNone);
  const uint64_t n = 100'000;
  for (uint64_t i = 0; i < n; i++) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%016llx",
             static_cast<unsigned long long>(i));
    tree.Insert(Slice(buf), i);
  }
  Random rng(5);
  for (auto _ : state) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%016llx",
             static_cast<unsigned long long>(rng.Uniform(n)));
    uint64_t locator;
    benchmark::DoNotOptimize(tree.Get(Slice(buf), &locator));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemBPlusTreeGet);

void BM_CacheKVPut(benchmark::State& state) {
  EnvOptions eo = TestEnvOptions();
  eo.pmem_capacity = 512ull << 20;
  eo.cat_locked_bytes = 12ull << 20;
  eo.llc_capacity = 36ull << 20;
  PmemEnv env(eo);
  CacheKVOptions opts;
  opts.pool_bytes = 12ull << 20;
  std::unique_ptr<DB> db;
  if (!DB::Open(&env, opts, false, &db).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  uint64_t i = 0;
  std::string value(64, 'v');
  for (auto _ : state) {
    db->Put("key" + std::to_string(i++ % 1'000'000), value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKVPut)->Iterations(50000);

void BM_CacheKVGet(benchmark::State& state) {
  EnvOptions eo = TestEnvOptions();
  eo.pmem_capacity = 512ull << 20;
  eo.cat_locked_bytes = 12ull << 20;
  eo.llc_capacity = 36ull << 20;
  PmemEnv env(eo);
  CacheKVOptions opts;
  opts.pool_bytes = 12ull << 20;
  std::unique_ptr<DB> db;
  if (!DB::Open(&env, opts, false, &db).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const uint64_t n = 100'000;
  std::string value(64, 'v');
  for (uint64_t i = 0; i < n; i++) {
    db->Put("key" + std::to_string(i), value);
  }
  db->WaitIdle();
  Random rng(3);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Get("key" + std::to_string(rng.Uniform(n)), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKVGet)->Iterations(50000);

}  // namespace
}  // namespace cachekv
