#include "vlog/vlog_gc.h"

#include <chrono>

#include "fault/fail_point.h"

namespace cachekv {

VlogGc::VlogGc(ValueLog* vlog, obs::MetricsRegistry* metrics,
               RelocateFn relocate, const PmemAllocator* space,
               uint64_t interval_ms)
    : vlog_(vlog),
      metrics_(metrics),
      relocate_(std::move(relocate)),
      space_(space),
      interval_ms_(interval_ms == 0 ? 1 : interval_ms) {}

VlogGc::~VlogGc() { Stop(); }

void VlogGc::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return;
  }
  started_ = true;
  stop_ = false;
  thread_ = std::thread(&VlogGc::ThreadLoop, this);
}

void VlogGc::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

bool VlogGc::FreeBelow(uint64_t divisor) const {
  return space_->FreeBytes() < space_->size() / divisor;
}

uint64_t VlogGc::WriterAppendedBytes() const {
  return vlog_->AppendedBytes() -
         rewrite_bytes_.load(std::memory_order_relaxed);
}

void VlogGc::WaitForRoom(std::chrono::milliseconds timeout,
                         const std::function<bool()>& give_up) {
  if (!FreeBelow(kLowSpaceDivisor)) {
    return;
  }
  if (napping_.load(std::memory_order_relaxed) &&
      napping_.exchange(false, std::memory_order_acq_rel)) {
    // The thread slept for lack of pressure: start collecting now, not
    // an interval late.
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
  if (!FreeBelow(kStallDivisor)) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto blocked = [&] {
    return started_ && !stop_ && !swept_live_ &&
           FreeBelow(kStallDivisor) && !give_up();
  };
  if (!blocked()) {
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("vlog.write_waits")->Increment();
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (blocked() && std::chrono::steady_clock::now() < deadline) {
    room_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void VlogGc::ThreadLoop() {
  // Passes in a row that reclaimed no dead bytes, and the writer bytes
  // appended as of the last pass after a sweep found only live records.
  uint64_t fruitless = 0;
  uint64_t appended_then = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    Pass pass;
    // After a sweep of live records, only new writes can have killed
    // any: pass again per segment they append, so rewriting live
    // records never outpaces the writers.
    if (FreeBelow(kLowSpaceDivisor) &&
        (!swept_live_ || WriterAppendedBytes() >=
                             appended_then + vlog_->segment_bytes())) {
      lock.unlock();
      CollectOnce(&pass);  // a failed pass keeps the segment
      lock.lock();
      const uint64_t segments = vlog_->NumSegments();
      if (pass.dead_bytes > 0) {
        fruitless = 0;
      } else if (!pass.unlinked) {
        fruitless = segments;  // it examined every sealed segment
      } else {
        fruitless++;
      }
      swept_live_ = fruitless >= segments;
      if (swept_live_) {
        appended_then = WriterAppendedBytes();
      }
      room_cv_.notify_all();
    }
    vlog_->UpdateGauges();
    if (!pass.unlinked) {
      // Without pressure, the first writer to see some ends the nap.
      const bool nap = !FreeBelow(kLowSpaceDivisor);
      napping_.store(nap, std::memory_order_release);
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_), [&] {
        return stop_ || (nap && !napping_.load(std::memory_order_acquire));
      });
      napping_.store(false, std::memory_order_release);
    }
  }
  room_cv_.notify_all();
}

Status VlogGc::CollectOnce(Pass* pass) {
  std::lock_guard<std::mutex> serial(collect_mu_);
  if (fault::AnyActive()) {
    Status injected = fault::Inject("vlog.gc.drop");
    if (!injected.ok()) {
      return injected;  // pass aborted, victim untouched
    }
  }
  uint32_t victim = vlog_->OldestSealed(cursor_);
  if (victim == 0) {
    cursor_ = 0;  // swept to the newest: retry the deferred segments
    victim = vlog_->OldestSealed();
  }
  for (; victim != 0; victim = vlog_->OldestSealed(victim)) {
    bool pinned = false;
    uint64_t dead = 0;
    Status s = Relocate(victim, &pinned, &dead);
    if (!s.ok()) {
      return s;  // segment kept; every record is re-examined next pass
    }
    if (!pinned) {
      s = vlog_->Unlink(victim);
      if (s.ok() && pass != nullptr) {
        pass->unlinked = true;
        pass->dead_bytes = dead;
      }
      return s;
    }
    // A pinned snapshot still resolves at least one record in this
    // segment: unlinking would dangle that snapshot's ValuePointer. Keep
    // the segment (relocations already committed are not repeated: the
    // next pass sees the new pointers and finds those records dead) and
    // try the next-oldest; this one is retried after the sweep.
    cursor_ = victim;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("vlog.gc_deferrals")->Increment();
    }
  }
  return Status::OK();
}

Status VlogGc::Relocate(uint32_t victim, bool* pinned, uint64_t* dead) {
  if (metrics_ != nullptr) {
    metrics_->GetCounter("vlog.gc_passes")->Increment();
  }
  uint64_t rewrites = 0;
  uint64_t rewrite_bytes = 0;
  Status s = vlog_->ForEachRecord(
      victim, [&](SequenceNumber seq, const Slice& key, const Slice& value,
                  const ValuePointer& ptr) {
        bool relocated = false;
        bool snapshot_pinned = false;
        Status rs =
            relocate_(seq, key, ptr, value, &relocated, &snapshot_pinned);
        if (!rs.ok()) {
          return rs;
        }
        *pinned = *pinned || snapshot_pinned;
        const uint64_t footprint =
            ValueLog::RecordFootprint(key.size(), value.size());
        if (relocated) {
          rewrites++;
          rewrite_bytes += footprint;
        } else {
          *dead += footprint;
        }
        return Status::OK();
      });
  rewrite_bytes_.fetch_add(rewrite_bytes, std::memory_order_relaxed);
  if (s.ok() && metrics_ != nullptr) {
    metrics_->GetCounter("vlog.gc_rewrites")->fetch_add(rewrites);
    metrics_->GetCounter("vlog.gc_rewrite_bytes")->fetch_add(rewrite_bytes);
  }
  return s;
}

}  // namespace cachekv
