#ifndef CACHEKV_LSM_LSM_ENGINE_H_
#define CACHEKV_LSM_LSM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/merger.h"
#include "lsm/version.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmem/pmem_env.h"
#include "util/status.h"

namespace cachekv {

/// Tuning knobs of the LSM storage component.
struct LsmOptions {
  int num_levels = 5;
  /// L0 file count that triggers an L0 -> L1 compaction.
  int l0_compaction_trigger = 4;
  /// Size limit of L1; each deeper level is `level_size_multiplier`
  /// larger (the 10x growth of LevelDB).
  uint64_t base_level_bytes = 8ull << 20;
  int level_size_multiplier = 10;
  /// Target size of compaction output files.
  uint64_t target_file_size = 2ull << 20;
  SSTableOptions table_options;
  /// Run compactions on a background thread. When false, compactions run
  /// inline in WriteL0Tables (deterministic mode for tests).
  bool background_compaction = true;
  /// Transient background-compaction failures are retried up to this many
  /// times with capped exponential backoff (lsm.bg_retries counts them)
  /// before the error parks in BackgroundError().
  int max_bg_retries = 5;
  uint32_t bg_backoff_base_ms = 1;
  uint32_t bg_backoff_max_ms = 100;
};

/// LsmEngine is the storage component of Figure 2 in the paper: SSTables
/// organized in n+1 levels in (simulated) PMem, with L0 partially sorted
/// (overlapping files, newest first) and L1+ fully sorted, plus leveled
/// background compaction. It has no memory component of its own: callers
/// feed it sorted runs (CacheKV feeds compacted sub-skiplist zones, the
/// baselines feed sealed memtables).
///
/// Thread-safe.
class LsmEngine {
 public:
  /// `manifest_base` names 2 x MetaLayout::kManifestSlotSize bytes of PMem
  /// for the A/B manifest slots. When `metrics` is non-null the engine
  /// records "lsm.write_l0" / "lsm.compact" spans, compaction counters,
  /// and bloom-filter counters into it; when `trace` is non-null it also
  /// emits L0-write and compaction trace events. Null disables
  /// instrumentation (standalone tests).
  LsmEngine(PmemEnv* env, const LsmOptions& options, uint64_t manifest_base,
            obs::MetricsRegistry* metrics = nullptr,
            obs::Tracer* trace = nullptr);
  ~LsmEngine();

  LsmEngine(const LsmEngine&) = delete;
  LsmEngine& operator=(const LsmEngine&) = delete;

  /// Initializes a fresh store (clearing any manifest) or recovers the
  /// table tree from the manifest when `recover` is set.
  Status Open(bool recover);

  /// Builds one or more L0 SSTables from the sorted run `iter` (internal
  /// keys) and installs them atomically. May trigger compactions.
  Status WriteL0Tables(Iterator* iter);

  /// Point lookup at `snapshot`: the highest-sequence version in any
  /// table answers, since L0 files need not arrive in sequence order
  /// (per-core tables flush independently). On a visible value: OK. On
  /// a visible tombstone or no entry: NotFound (with *deleted
  /// distinguishing the two so upper layers can stop searching). When seq_out is non-null it
  /// receives the sequence of the entry that answered (value or
  /// tombstone), letting callers order answers across components. When
  /// type_out is non-null it receives the answering entry's type, so
  /// callers can tell an inline value from a value-log pointer (whose
  /// raw bytes land in *value).
  Status Get(const Slice& user_key, SequenceNumber snapshot,
             std::string* value, bool* deleted,
             SequenceNumber* seq_out = nullptr,
             ValueType* type_out = nullptr);

  /// Supplier of the pinned snapshot sequence numbers, sorted ascending
  /// (DB wires this to its snapshot registry). Each compaction pass
  /// captures the list once at pass start; versions a pinned snapshot
  /// still resolves survive the merge dedup (docs/SNAPSHOTS.md). Set
  /// once before any compaction runs.
  using SnapshotProviderFn = std::function<std::vector<SequenceNumber>()>;
  void SetSnapshotProvider(SnapshotProviderFn provider) {
    snapshot_provider_ = std::move(provider);
  }

  /// Iterator over all tables (internal-key order, duplicates possible
  /// across levels; fresher levels yield first for equal user keys).
  Iterator* NewIterator();

  /// Sequence-number bookkeeping, persisted with each manifest write.
  SequenceNumber LastSequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  void EnsureLastSequenceAtLeast(SequenceNumber seq);

  /// Blocks until no compaction is running or pending.
  Status WaitForCompactions();

  /// The parked background-compaction error (OK while healthy). Set once
  /// the retry budget for a transient failure is exhausted or a hard
  /// (corruption-class) failure occurs.
  Status BackgroundError() const {
    std::unique_lock<std::mutex> lock(mu_);
    return bg_error_;
  }

  int NumFiles(int level) const;
  uint64_t TotalTableBytes() const;
  VersionRef CurrentVersion() const;

 private:
  uint64_t MaxBytesForLevel(int level) const;
  Status InstallVersion(std::shared_ptr<Version> next,
                        std::unique_lock<std::mutex>* lock);
  Status BuildTables(Iterator* iter, std::vector<TableRef>* outputs,
                     bool is_compaction,
                     const std::vector<SequenceNumber>& snapshots = {});
  Status OpenTable(const FileMeta& meta, TableRef* out);

  // Compaction machinery.
  void BackgroundWork();
  bool NeedsCompaction(const Version& v, int* level) const;
  Status CompactLevel(int level);
  void MaybeScheduleCompaction();

  PmemEnv* env_;
  LsmOptions options_;
  obs::MetricsRegistry* metrics_;  // may be null
  obs::Tracer* trace_;             // may be null
  // Bloom-filter effectiveness counters, cached from the registry (null
  // when metrics_ is null): checks = table probes that reached the
  // filter, negatives = probes the filter rejected, false positives =
  // probes the filter passed but the table did not contain.
  obs::Counter* bloom_checks_ = nullptr;
  obs::Counter* bloom_negatives_ = nullptr;
  obs::Counter* bloom_false_positives_ = nullptr;
  InternalKeyComparator icmp_;
  ManifestWriter manifest_;
  SnapshotProviderFn snapshot_provider_;  // may be empty
  // Cumulative bytes of superseded versions carried through compaction
  // for pinned snapshots (null when metrics_ is null).
  obs::Counter* snap_retained_bytes_ = nullptr;

  mutable std::mutex mu_;
  std::shared_ptr<const Version> current_;
  uint64_t next_file_number_ = 1;
  std::atomic<uint64_t> last_sequence_{0};
  std::vector<uint64_t> compact_cursor_;
  uint64_t manifest_epoch_ = 0;

  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::thread bg_thread_;
  bool compaction_pending_ = false;
  bool compaction_running_ = false;
  bool shutting_down_ = false;
  Status bg_error_;
};

}  // namespace cachekv

#endif  // CACHEKV_LSM_LSM_ENGINE_H_
