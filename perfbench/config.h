// The fixed shape of every perfbench run, shared by the server under
// test and the load generator (which reports it in its JSON document).
// Workloads differ only in the flags run.py passes from workloads.py.

#pragma once

#include <cstdint>

namespace perfbench {

// Server: tools/cachekv_server's defaults, with 2 shards and 2 worker
// threads so the stores' flush, index and GC threads keep cores on a
// 4-core host.
constexpr int kShards = 2;
constexpr int kWorkers = 2;
constexpr uint64_t kPoolMb = 12;   // sub-MemTable pool (CAT-locked) per shard
constexpr uint64_t kPmemMb = 1024;  // simulated PMem per shard
constexpr uint64_t kCacheMb = 8;   // hot-key cache
constexpr uint32_t kCacheAdmit = 2;
constexpr int kWriterSlots = 8;  // CacheKVOptions::num_cores

// Load: one thread per connection; closed-loop flights of kPipeline
// requests per connection, deep enough that the server's workers stay
// busy instead of waking for every few requests.
constexpr int kConnections = 2;
constexpr int kPipeline = 64;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kScanLen = 10;

// Measured phases are cut into windows of this length (run.py).
constexpr uint64_t kWindowNs = 100'000'000;

}  // namespace perfbench
