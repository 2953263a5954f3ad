"""The perfbench workloads. README.md says why each exists.

Every workload runs against the same 2-shard, 2-worker server over 2
connections with closed-loop flights of 64 (config.h fixes the shape; the
load generator reports it in the run artifact). Open-loop phases offer
`open_rate` requests per second in total, frozen at a tenth to a fifth of
the closed-loop capacity the unmodified tree reaches on the reference
host (4-core x86 VM, GCC 12, Release), so that losing a third of the CPU
to the host does not push the open loop into queueing (README.md,
"Open-loop rates"). Keys are 16 bytes; zipfian keys use theta 0.99 and
scans read 10 rows.
"""

WORKLOADS = {
    # The cached read path: YCSB-B over a keyspace that fits the
    # sub-MemTable pool, so nearly nothing flushes or compacts.
    "read-hot-zipf": {
        "keys": 20_000, "value_size": 100, "get": 0.95, "scan": 0.0,
        "dist": "zipf", "warmup_ops": 400_000, "open_rate": 50_000,
    },
    # The key-value separated write path: 16 KiB values (above the
    # 4 KiB separation threshold) overwritten over a small keyspace, so
    # every PUT appends to the value log and space and GC dominate.
    "kvsep-overwrite": {
        "keys": 4_000, "value_size": 16_384, "get": 0.25, "scan": 0.0,
        "dist": "uniform", "warmup_ops": 12_000, "open_rate": 2_000,
    },
    # The inline write pipeline down to the LSM: ~1 KiB values (inline,
    # below the separation threshold) over 100k keys, ~50 MB per shard
    # against a 12 MB pool and a 24 MB zone, so writes cycle seal,
    # copy-flush, zone flush to L0 and compaction, and most reads are
    # answered by the LSM. It stays well short of the record count at
    # which the index-sync corruption in README.md strikes.
    "write-mix-lsm": {
        "keys": 100_000, "value_size": 1_000, "get": 0.49, "scan": 0.02,
        "dist": "uniform", "warmup_ops": 50_000, "open_rate": 5_000,
    },
    # The same pipeline at scale: ~1M keys of 100 B values (~116 MB)
    # against the 12 MB pool per shard, with the cache and vlog idle. It trips
    # the index-sync corruption recorded in README.md on the unmodified
    # tree, which is why BENCHMARK.json does not list it yet.
    "write-mix-large": {
        "keys": 1_000_000, "value_size": 100, "get": 0.495, "scan": 0.01,
        "dist": "uniform", "warmup_ops": 400_000, "open_rate": 10_000,
    },
}
