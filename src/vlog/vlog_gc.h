#ifndef CACHEKV_VLOG_VLOG_GC_H_
#define CACHEKV_VLOG_VLOG_GC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "pmem/pmem_allocator.h"
#include "util/slice.h"
#include "util/status.h"
#include "vlog/value_log.h"
#include "vlog/value_pointer.h"

namespace cachekv {

/// Oldest-first garbage collector for the value log: the tail GC of
/// WiscKey and the log compaction of FASTER.
///
/// A pass takes the oldest sealed segment, replays it, and asks the
/// store whether each record is still what a lookup of its key finds
/// (the relocate callback). Live records are re-inserted through the
/// store's normal write path under fresh sequence numbers; everything
/// else — overwritten, deleted, or an orphan of a write that failed
/// after its append — is dead without any bookkeeping. Only after every
/// live record has been relocated is the segment unlinked: a pass that
/// fails anywhere keeps the segment and retries later, so a crash or
/// error can never lose an acked value. A segment that a pinned snapshot
/// still reads is kept too; passes move on past it and come back to it
/// once they have swept to the newest sealed segment.
///
/// The background thread runs passes back to back while free PMem is
/// below 1/kLowSpaceDivisor of the allocator's range, and sleeps
/// `interval_ms` when there is no pressure (a writer that sees pressure
/// wakes it) or a pass unlinked nothing.
///
/// Free PMem also holds SSTables, staged zones and live values, so
/// pressure does not mean that GC can help. Once as many passes in a
/// row as there are segments have reclaimed no dead bytes (or one pass
/// found every sealed segment pinned), the log holds only live records:
/// the thread then runs one more pass per segment's worth of new
/// writes, until one reclaims again. Writers that outpace GC wait in
/// WaitForRoom, but not while the log is known to hold only live
/// records.
class VlogGc {
 public:
  /// The thread collects while fewer than 1/kLowSpaceDivisor of the
  /// allocator's bytes are free: a quarter.
  static constexpr uint64_t kLowSpaceDivisor = 4;
  /// Writers may wait for GC while fewer than 1/kStallDivisor are free.
  static constexpr uint64_t kStallDivisor = 8;

  /// Probes the index for `key`: when the freshest committed version is
  /// exactly `old_ptr`, re-appends `value` under a new sequence and
  /// commits the relocated pointer, setting *relocated = true. Any other
  /// freshest version means the record is dead (*relocated = false).
  /// `seq` is the record's original sequence number. *snapshot_pinned is
  /// set when a pinned snapshot (docs/SNAPSHOTS.md) still resolves the
  /// OLD pointer — whether the record was relocated or is dead at
  /// latest — in which case the segment must not be unlinked yet.
  using RelocateFn = std::function<Status(
      SequenceNumber seq, const Slice& key, const ValuePointer& old_ptr,
      const Slice& value, bool* relocated, bool* snapshot_pinned)>;

  /// `space` is the allocator whose free bytes trigger the thread.
  VlogGc(ValueLog* vlog, obs::MetricsRegistry* metrics,
         RelocateFn relocate, const PmemAllocator* space,
         uint64_t interval_ms);
  ~VlogGc();

  VlogGc(const VlogGc&) = delete;
  VlogGc& operator=(const VlogGc&) = delete;

  void Start();
  void Stop();

  /// What one CollectOnce did.
  struct Pass {
    bool unlinked = false;    // a segment was freed
    uint64_t dead_bytes = 0;  // footprint of its dead records
  };

  /// One synchronous pass, serialized with every other: relocates the
  /// live records of the oldest sealed segment and unlinks it. A segment
  /// a pinned snapshot still reads is kept (vlog.gc_deferrals) and the
  /// pass goes on to the next-oldest; later passes start after it until
  /// they reach the newest sealed segment, then retry from the oldest.
  /// Returns OK when there is nothing to collect.
  Status CollectOnce(Pass* pass = nullptr);

  /// Write backpressure, called before a value-log append while the
  /// caller holds no lock. While fewer than 1/kStallDivisor of the
  /// allocator's bytes are free, waits for GC to free room
  /// (vlog.write_waits counts the writes that waited). Returns at the
  /// latest after `timeout`, and as soon as the passes have swept the
  /// log without reclaiming, the thread stops, or `give_up()` (checked
  /// every millisecond) returns true; the append then takes its
  /// chances.
  void WaitForRoom(std::chrono::milliseconds timeout,
                   const std::function<bool()>& give_up);

 private:
  void ThreadLoop();
  /// True while fewer than 1/divisor of the allocator's bytes are free.
  bool FreeBelow(uint64_t divisor) const;
  /// Bytes writers (not GC relocations) appended to the log.
  uint64_t WriterAppendedBytes() const;

  /// Relocates the live records of `victim`; sets *pinned when a pinned
  /// snapshot still reads one of them, and *dead to the footprint of
  /// the records found dead.
  Status Relocate(uint32_t victim, bool* pinned, uint64_t* dead);

  ValueLog* const vlog_;
  obs::MetricsRegistry* const metrics_;
  const RelocateFn relocate_;
  const PmemAllocator* const space_;
  const uint64_t interval_ms_;

  std::mutex collect_mu_;  // serializes CollectOnce
  uint32_t cursor_ = 0;    // last deferred segment (collect_mu_)
  std::atomic<uint64_t> rewrite_bytes_{0};  // relocated footprint

  std::mutex mu_;
  std::condition_variable cv_;       // wakes the thread: stop, pressure
  std::condition_variable room_cv_;  // wakes writers after each pass
  bool stop_ = false;
  bool started_ = false;
  bool swept_live_ = false;  // passes over every segment freed nothing
  std::atomic<bool> napping_{false};  // thread asleep without pressure
  std::thread thread_;
};

}  // namespace cachekv

#endif  // CACHEKV_VLOG_VLOG_GC_H_
