#ifndef CACHEKV_VLOG_VALUE_LOG_H_
#define CACHEKV_VLOG_VALUE_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "lsm/dbformat.h"
#include "obs/metrics.h"
#include "pmem/pmem_env.h"
#include "util/slice.h"
#include "util/status.h"
#include "vlog/value_pointer.h"

namespace cachekv {

/// Append-only persistent value log (WiscKey-style key–value separation).
///
/// Large values are written here once, durably, and the LSM carries only a
/// 16-byte ValuePointer under type kTypeValuePointer. The log is a chain
/// of fixed-size PMem segments, numbered in creation order; each record
/// is CRC-framed and self-describing (sequence + user key + value), so
/// the oldest sealed segment can be garbage-collected by probing the
/// index for each record's liveness and re-inserting the survivors
/// through the normal write path (VlogGc).
///
/// Record framing inside a segment:
///   fixed32 crc        -- Checksum over the payload
///   fixed32 payload_len  (0 => end-of-segment terminator)
///   payload:
///     fixed64 packed   -- (sequence << 8) | kTypeValue
///     varint32 key_len
///     key bytes
///     value bytes
/// Every append non-temporally stores the frame plus a zeroed terminator
/// header behind it and fences before the caller may commit the pointer,
/// so recovery replay (scan frames until terminator or CRC mismatch)
/// never resurrects a value whose pointer could have been acked.
///
/// Segment metadata lives in an A/B epoch+CRC registry slot pair in the
/// PMem meta area (MetaLayout::VlogRegistryBase), persisted on segment
/// create/seal/unlink. The registry stores a committed scan hint per
/// segment; the true head is recovered by replaying frames past it.
///
/// Concurrency: appends build and checksum their frame unlocked, then
/// serialize on an internal mutex for placement and the store. Reads are
/// lock-free against appends — they pin the segment via shared_ptr and
/// detect a concurrently recycled segment by its `unlinked` flag plus the
/// frame CRC, returning NotFound("vlog segment recycled") so the caller
/// re-probes the index (GC commits the relocated pointer before it
/// unlinks, so the retry always converges). Long-lived scans call
/// PinSegments() to block Unlink for the iterator's lifetime.
class ValueLog {
 public:
  ValueLog(PmemEnv* env, obs::MetricsRegistry* metrics,
           uint64_t registry_base, uint64_t registry_slot_size,
           uint64_t segment_bytes);
  ~ValueLog();

  ValueLog(const ValueLog&) = delete;
  ValueLog& operator=(const ValueLog&) = delete;

  /// Fresh store: writes an empty registry (epoch advances past whatever
  /// a previous incarnation left in the slots).
  Status Format();

  /// Crash recovery: adopts the newer valid registry slot, re-reserves
  /// every segment region from the allocator, and replays the tail of
  /// the active segment (torn frames are truncated by rewriting the
  /// terminator at the last valid head).
  Status Recover();

  /// Durably appends one record and fills *ptr. The record is persistent
  /// (NtStore + Sfence) before this returns OK; callers must only then
  /// commit the pointer, so an acked key can never dangle. Thread-safe.
  Status Append(SequenceNumber seq, const Slice& key, const Slice& value,
                ValuePointer* ptr);

  /// Resolves a pointer previously returned by Append. `user_key` is the
  /// key the pointer was committed under; the decoded record must carry
  /// the same key, which catches a recycled region that happens to hold
  /// a different valid frame. Returns NotFound("vlog segment recycled")
  /// when GC unlinked the segment (the caller re-probes the index for
  /// the relocated pointer) and Corruption on a CRC/framing/key mismatch
  /// of a still-linked segment.
  Status Read(const ValuePointer& ptr, const Slice& user_key,
              std::string* value) const;

  uint64_t segment_bytes() const { return segment_bytes_; }

  /// True when one record of this shape fits a segment.
  bool Fits(size_t key_len, size_t value_len) const;

  /// Bytes one record occupies in its segment (framing included).
  static uint64_t RecordFootprint(size_t key_len, size_t value_len);

  /// The GC victim order: the oldest sealed segment created after
  /// segment `after` (0: the oldest of all), or 0 when there is none.
  /// The active segment is never returned.
  uint32_t OldestSealed(uint32_t after = 0) const;

  using RecordFn = std::function<Status(
      SequenceNumber seq, const Slice& key, const Slice& value,
      const ValuePointer& ptr)>;

  /// Replays every record of a (sealed) segment in append order.
  Status ForEachRecord(uint32_t file_id, const RecordFn& fn) const;

  /// Frees a fully-relocated segment and persists the registry. Blocks
  /// on PinSegments() holders.
  Status Unlink(uint32_t file_id);

  /// Blocks Unlink while held; used by scan iterators whose merged view
  /// may still reference pointers into any segment.
  std::shared_lock<std::shared_mutex> PinSegments() const {
    return std::shared_lock<std::shared_mutex>(unlink_mu_);
  }

  /// Highest sequence number ever appended (recovered from the registry
  /// plus tail replay). DB::Open folds this into its sequence floor so
  /// orphaned vlog records can never collide with future writes.
  SequenceNumber MaxSequence() const {
    return max_sequence_.load(std::memory_order_acquire);
  }

  /// Record bytes appended since this ValueLog was opened (writes and
  /// GC relocations alike).
  uint64_t AppendedBytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }

  size_t NumSegments() const;

  /// Refreshes the vlog.segments gauge.
  void UpdateGauges() const;

 private:
  struct Segment {
    uint32_t file_id = 0;
    uint64_t base = 0;   // PMem region offset
    uint64_t size = 0;   // region size
    std::atomic<uint64_t> head{0};  // next append offset
    std::atomic<bool> sealed{false};
    std::atomic<bool> unlinked{false};
  };

  using SegmentPtr = std::shared_ptr<Segment>;

  SegmentPtr FindSegment(uint32_t file_id) const;
  Status NewSegmentLocked();   // append_mu_ held
  Status PersistRegistry();    // snapshots segments, writes A/B slot
  Status DecodeFrame(const Segment& seg, uint64_t offset, uint64_t limit,
                     SequenceNumber* seq, std::string* key,
                     std::string* value, uint64_t* frame_len,
                     bool apply_bitrot) const;
  void WriteTerminator(const Segment& seg, uint64_t offset);

  PmemEnv* const env_;
  obs::MetricsRegistry* const metrics_;
  const uint64_t registry_base_;
  const uint64_t registry_slot_size_;
  const uint64_t segment_bytes_;

  mutable std::mutex map_mu_;  // segments_, next_file_id_, registry epoch
  std::map<uint32_t, SegmentPtr> segments_;
  uint32_t next_file_id_ = 1;
  uint64_t registry_epoch_ = 0;

  std::mutex append_mu_;       // serializes Append / rollover
  SegmentPtr active_;          // written only under append_mu_

  mutable std::shared_mutex unlink_mu_;  // scans shared, Unlink exclusive

  std::atomic<uint64_t> max_sequence_{0};
  std::atomic<uint64_t> appended_bytes_{0};
};

}  // namespace cachekv

#endif  // CACHEKV_VLOG_VALUE_LOG_H_
