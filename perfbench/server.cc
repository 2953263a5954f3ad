// perfbench_server — the server under test for the perfbench load runs.
//
// It builds the same store as tools/cachekv_server with that daemon's
// defaults (12 MB sub-MemTable pool, 1 GB simulated PMem and 8 MB hot-key
// cache per shard, 8 writer slots, cache admission 2), with the shard and
// worker counts of config.h, on an ephemeral port. It adds one thing the
// wire does not expose: per shard, a gauge "bench.pmem_used_bytes" holding
// the CAT-locked pool plus the bytes the PMem allocator has handed out.
// Reading the allocator takes its lock, so the gauge is refreshed only on
// SIGUSR1, which the load generator sends once the connections are idle,
// just before it scrapes STATS; "bench.pmem_refreshes" counts the
// refreshes so the scrape can tell a fresh value from a stale one. The
// benchmark's space_amp is built from it.
//
//   perfbench_server
//   port 40123            <- first line of stdout once serving
//
// SIGTERM or SIGINT stops it: network layer first, then the stores.

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "config.h"
#include "core/db.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"

using namespace cachekv;
using namespace perfbench;

int main() {
  // Every thread inherits this mask, so the signals stay pending until
  // the main thread takes them with sigwait.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  net::ShardMap map;
  map.num_shards = static_cast<uint32_t>(kShards);
  net::ShardRouter router;
  Status s = net::ShardRouter::Build(map, &router);
  if (!s.ok()) {
    std::fprintf(stderr, "shard map: %s\n", s.ToString().c_str());
    return 1;
  }

  EnvOptions env_opts;
  env_opts.pmem_capacity = kPmemMb << 20;
  env_opts.cat_locked_bytes = kPoolMb << 20;
  CacheKVOptions db_opts;
  db_opts.pool_bytes = kPoolMb << 20;
  db_opts.num_cores = kWriterSlots;

  std::vector<std::unique_ptr<PmemEnv>> envs;
  std::vector<std::unique_ptr<DB>> dbs;
  std::vector<DB*> db_ptrs;
  for (int i = 0; i < kShards; i++) {
    envs.push_back(std::make_unique<PmemEnv>(env_opts));
    std::unique_ptr<DB> db;
    s = DB::Open(envs.back().get(), db_opts, /*recover=*/false, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open shard %d: %s\n", i, s.ToString().c_str());
      return 1;
    }
    db_ptrs.push_back(db.get());
    dbs.push_back(std::move(db));
  }

  net::ServerOptions srv_opts;
  srv_opts.port = 0;
  srv_opts.num_workers = kWorkers;
  srv_opts.hot_key_cache_bytes = kCacheMb << 20;
  srv_opts.hot_key_cache_admit = kCacheAdmit;
  net::Server server(db_ptrs, router, srv_opts);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<obs::Gauge*> used;
  std::vector<obs::Gauge*> refreshes;
  for (DB* db : db_ptrs) {
    used.push_back(db->metrics()->GetGauge("bench.pmem_used_bytes"));
    refreshes.push_back(db->metrics()->GetGauge("bench.pmem_refreshes"));
  }
  double refreshed = 0;
  auto refresh_used = [&]() {
    for (int i = 0; i < kShards; i++) {
      used[i]->Set(static_cast<double>(
          env_opts.cat_locked_bytes + envs[i]->allocator()->AllocatedBytes()));
      refreshes[i]->Set(refreshed);
    }
  };
  refresh_used();

  std::printf("port %u\n", server.port());
  std::fflush(stdout);
  for (;;) {
    int sig = 0;
    if (sigwait(&signals, &sig) != 0 || sig != SIGUSR1) break;
    refreshed += 1;
    refresh_used();
  }

  server.Stop();
  int rc = 0;
  for (int i = 0; i < kShards; i++) {
    Status idle = dbs[i]->WaitIdle();
    if (!idle.ok()) {
      std::fprintf(stderr, "shard %d background error at shutdown: %s\n", i,
                   idle.ToString().c_str());
      rc = 1;
    }
  }
  dbs.clear();
  envs.clear();
  return rc;
}
