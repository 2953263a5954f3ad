#ifndef CACHEKV_BASELINES_KVSTORE_H_
#define CACHEKV_BASELINES_KVSTORE_H_

#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace cachekv {

/// Common interface implemented by every key-value engine in this
/// repository (CacheKV and the baseline systems), so that the benchmark
/// harness and the tests can drive them uniformly.
///
/// Implementations must support concurrent calls from multiple threads.
class KVStore {
 public:
  virtual ~KVStore() = default;

  /// One operation of a multi-key batch.
  struct BatchOp {
    bool is_delete = false;
    std::string key;
    std::string value;
  };

  /// A BatchOp borrowed for the length of one call: key and value point
  /// into the caller's buffers.
  struct OpView {
    bool is_delete = false;
    Slice key;
    Slice value;
  };

  /// Inserts or updates the entry for key.
  virtual Status Put(const Slice& key, const Slice& value) = 0;

  /// Reads the freshest value for key into *value. Returns
  /// Status::NotFound if the key does not exist or was deleted.
  virtual Status Get(const Slice& key, std::string* value) = 0;

  /// Removes the entry for key (writes a tombstone). It is not an error
  /// if the key does not exist.
  virtual Status Delete(const Slice& key) = 0;

  /// Applies every operation of `batch`. The default decomposes the
  /// batch into individual Put/Delete calls (no atomicity); engines with
  /// a native multi-key commit (CacheKV's MultiPut) override this with
  /// an all-or-nothing implementation.
  virtual Status ApplyBatch(const std::vector<BatchOp>& batch);

  /// Forward scan over the live user keys: fills `out` with at most
  /// `limit` (key, value) pairs, in ascending key order, starting at the
  /// first key >= `start` (tombstones elided, freshest versions).
  /// Engines without an ordered view return NotSupported.
  virtual Status Scan(const Slice& start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out);

  /// Human-readable engine name used in benchmark output.
  virtual std::string Name() const = 0;

  /// Blocks until background work that affects durability or visibility
  /// (index sync, memtable flushes) has quiesced. Benchmarks call this
  /// before switching phases.
  virtual Status WaitIdle() { return Status::OK(); }

  /// True when the engine degraded to read-only mode after a background
  /// failure (docs/ROBUSTNESS.md). The harness records this in bench
  /// reports so a degraded run is never mistaken for a performance
  /// result. Engines without the degradation state report false.
  virtual bool IsReadOnly() const { return false; }
};

}  // namespace cachekv

#endif  // CACHEKV_BASELINES_KVSTORE_H_
