#ifndef CACHEKV_LSM_MERGER_H_
#define CACHEKV_LSM_MERGER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/iterator.h"

namespace cachekv {

/// Notified with the internal key and raw stored bytes of every
/// superseded entry a deduping stream keeps for a pinned snapshot.
using RetainedEntryFn =
    std::function<void(const Slice& internal_key, const Slice& value)>;

/// Resolves the raw stored bytes of a kTypeValuePointer entry into the
/// user value (DB wires this to ValueLog::Read for scans).
using ValueResolverFn = std::function<Status(
    const Slice& internal_key, const Slice& raw_value, std::string* value)>;

/// Returns an iterator yielding the union of the children's entries in
/// internal-key order. Ties (identical internal keys cannot occur; equal
/// user keys with different sequences can) break towards the
/// earlier-listed child, so callers should list fresher sources first.
/// Takes ownership of the children.
Iterator* NewMergingIterator(const InternalKeyComparator* comparator,
                             std::vector<Iterator*> children);

/// Wraps a sorted internal-key stream, dropping all but the first
/// (freshest) entry of every user key. Takes ownership of base.
///
/// `snapshots` (sorted ascending) is the list of pinned snapshot
/// sequence numbers (docs/SNAPSHOTS.md): besides the freshest version,
/// an older version with sequence s survives iff some pinned snapshot p
/// satisfies s <= p < prev_s, where prev_s is the sequence of the
/// immediately-newer version of the same user key — that snapshot still
/// resolves s, so dropping it would change a pinned read. `on_retain`
/// (optional) observes every such extra retained version (the
/// snapshot-induced space amplification, credited to
/// snap.retained_bytes).
Iterator* NewDedupingIterator(Iterator* base,
                              std::vector<SequenceNumber> snapshots = {},
                              RetainedEntryFn on_retain = nullptr);

/// True when some pinned snapshot in `snapshots` (sorted ascending)
/// lies in [seq, prev_seq): the version with sequence `seq` is still
/// the visible answer at that snapshot and must be retained. `prev_seq`
/// is the sequence of the immediately-newer version of the same user
/// key (kMaxSequenceNumber for the first). Shared by the deduping
/// iterator and the LSM compaction's inline dedup loop.
bool SnapshotInStratum(const std::vector<SequenceNumber>& snapshots,
                       SequenceNumber seq, SequenceNumber prev_seq);

/// Wraps a sorted internal-key stream, dropping every entry whose
/// sequence exceeds `snapshot` — the bounded-read prefilter of a
/// scan-at-snapshot (versions committed after the pin are invisible).
/// Feed its output to NewDedupingIterator to keep the freshest visible
/// version per user key. Takes ownership of base.
Iterator* NewSnapshotFilterIterator(Iterator* base,
                                    SequenceNumber snapshot);

/// Wraps a deduped internal-key stream as a user-facing iterator:
/// tombstoned keys are skipped, key() yields the user key, and pointer
/// entries are resolved through `resolver` (without one their raw
/// pointer bytes pass through, which internal flush/compaction streams
/// rely on). A failed resolution invalidates the iterator and surfaces
/// through status(). Takes ownership of base.
Iterator* NewUserKeyIterator(Iterator* base,
                             ValueResolverFn resolver = nullptr);

}  // namespace cachekv

#endif  // CACHEKV_LSM_MERGER_H_
