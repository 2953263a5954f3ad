#include "vlog/value_log.h"

#include <algorithm>
#include <vector>

#include "fault/fail_point.h"
#include "util/coding.h"
#include "util/hash.h"

namespace cachekv {

namespace {

// fixed32 crc + fixed32 payload_len.
constexpr uint64_t kFrameHeaderSize = 8;

}  // namespace

ValueLog::ValueLog(PmemEnv* env, obs::MetricsRegistry* metrics,
                   uint64_t registry_base, uint64_t registry_slot_size,
                   uint64_t segment_bytes)
    : env_(env),
      metrics_(metrics),
      registry_base_(registry_base),
      registry_slot_size_(registry_slot_size),
      segment_bytes_(AlignUp(segment_bytes, kXPLineSize)) {}

ValueLog::~ValueLog() = default;

uint64_t ValueLog::RecordFootprint(size_t key_len, size_t value_len) {
  return kFrameHeaderSize + 8 /* packed seq+type */ +
         VarintLength(key_len) + key_len + value_len;
}

bool ValueLog::Fits(size_t key_len, size_t value_len) const {
  // A record needs its frame plus the trailing zeroed terminator header.
  return RecordFootprint(key_len, value_len) + kFrameHeaderSize <=
         segment_bytes_;
}

ValueLog::SegmentPtr ValueLog::FindSegment(uint32_t file_id) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = segments_.find(file_id);
  return it == segments_.end() ? nullptr : it->second;
}

void ValueLog::WriteTerminator(const Segment& seg, uint64_t offset) {
  char zeros[kFrameHeaderSize] = {0};
  env_->NtStore(seg.base + offset, zeros, sizeof(zeros));
  env_->Sfence();
}

Status ValueLog::PersistRegistry() {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::string body;
  PutFixed64(&body, registry_epoch_ + 1);
  PutFixed32(&body, next_file_id_);
  PutFixed64(&body, max_sequence_.load(std::memory_order_acquire));
  PutFixed32(&body, static_cast<uint32_t>(segments_.size()));
  for (const auto& [id, seg] : segments_) {
    PutFixed32(&body, seg->file_id);
    PutFixed64(&body, seg->base);
    PutFixed64(&body, seg->size);
    PutFixed64(&body, seg->head.load(std::memory_order_acquire));
    body.push_back(seg->sealed.load(std::memory_order_relaxed) ? 1 : 0);
  }
  std::string encoded;
  PutFixed32(&encoded, static_cast<uint32_t>(body.size()));
  PutFixed32(&encoded, Checksum(body.data(), body.size()));
  encoded.append(body);
  if (encoded.size() > registry_slot_size_) {
    return Status::OutOfSpace("vlog registry exceeds its slot");
  }
  const uint64_t slot =
      registry_base_ + ((registry_epoch_ + 1) % 2) * registry_slot_size_;
  env_->NtStore(slot, encoded.data(), encoded.size());
  env_->Sfence();
  registry_epoch_++;
  return Status::OK();
}

Status ValueLog::Format() {
  std::unique_lock<std::mutex> append_lock(append_mu_);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    segments_.clear();
    active_ = nullptr;
    next_file_id_ = 1;
    // Adopt whichever epoch a previous incarnation of this PMem pool
    // left behind, so the empty registry written below outranks it.
    uint64_t stale_epoch = 0;
    for (int slot = 0; slot < 2; slot++) {
      char hdr[8];
      env_->Load(registry_base_ + slot * registry_slot_size_, hdr,
                 sizeof(hdr));
      uint32_t len = DecodeFixed32(hdr);
      uint32_t crc = DecodeFixed32(hdr + 4);
      if (len < 24 || len > registry_slot_size_ - kFrameHeaderSize) {
        continue;
      }
      std::string body(len, '\0');
      env_->Load(registry_base_ + slot * registry_slot_size_ + 8,
                 body.data(), len);
      if (Checksum(body.data(), len) != crc) {
        continue;
      }
      stale_epoch = std::max(stale_epoch, DecodeFixed64(body.data()));
    }
    registry_epoch_ = stale_epoch;
  }
  return PersistRegistry();
}

Status ValueLog::NewSegmentLocked() {
  uint64_t base = 0;
  Status s = env_->allocator()->Allocate(segment_bytes_, &base);
  if (!s.ok()) {
    return s;
  }
  auto seg = std::make_shared<Segment>();
  seg->base = base;
  seg->size = segment_bytes_;
  // The region may be recycled PMem: plant the terminator before the
  // registry can name this segment, so recovery replay stops at once.
  WriteTerminator(*seg, 0);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    seg->file_id = next_file_id_++;
    segments_[seg->file_id] = seg;
  }
  s = PersistRegistry();
  if (!s.ok()) {
    // The segment must not become active until the registry durably
    // names it: appends into an unregistered segment would ack records
    // that Recover() can never re-adopt. Unpublish and free the region;
    // active_ stays as it was (nullptr or the sealed predecessor, which
    // the rollover check refuses to append into).
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      segments_.erase(seg->file_id);
      next_file_id_--;  // safe: only mutated under append_mu_
    }
    env_->allocator()->Free(base, segment_bytes_);
    return s;
  }
  active_ = seg;
  return Status::OK();
}

Status ValueLog::Append(SequenceNumber seq, const Slice& key,
                        const Slice& value, ValuePointer* ptr) {
  // The frame depends only on the arguments, so it is built and
  // checksummed before the lock: header, payload, and a zeroed
  // terminator header that the next append overwrites with its frame.
  const uint64_t footprint = RecordFootprint(key.size(), value.size());
  if (footprint + kFrameHeaderSize > segment_bytes_) {
    return Status::InvalidArgument("value exceeds vlog segment size");
  }
  std::string frame;
  frame.reserve(footprint + kFrameHeaderSize);
  frame.resize(kFrameHeaderSize);
  PutFixed64(&frame, PackSequenceAndType(seq, kTypeValue));
  PutVarint32(&frame, static_cast<uint32_t>(key.size()));
  frame.append(key.data(), key.size());
  frame.append(value.data(), value.size());
  const uint64_t payload_len = footprint - kFrameHeaderSize;
  EncodeFixed32(frame.data(),
                Checksum(frame.data() + kFrameHeaderSize, payload_len));
  EncodeFixed32(frame.data() + 4, static_cast<uint32_t>(payload_len));
  frame.append(kFrameHeaderSize, '\0');

  std::lock_guard<std::mutex> lock(append_mu_);
  // A sealed segment never accepts another append, even when a smaller
  // record would still fit: sealing makes it GC-eligible, and a failed
  // rollover (allocator pressure) must not let later appends race GC
  // into a segment that may be relocated and freed underneath them.
  if (active_ == nullptr || active_->sealed.load(std::memory_order_acquire) ||
      active_->head.load(std::memory_order_relaxed) + frame.size() >
          active_->size) {
    if (active_ != nullptr) {
      active_->sealed.store(true, std::memory_order_release);
    }
    Status s = NewSegmentLocked();
    if (!s.ok()) {
      return s;
    }
  }
  Segment* seg = active_.get();
  const uint64_t offset = seg->head.load(std::memory_order_relaxed);

  if (fault::AnyActive()) {
    fault::InjectResult inj = fault::Evaluate("vlog.append.torn");
    if (inj.torn) {
      // Torn append: persist only an XPLine-aligned prefix and do not
      // advance the head, so the record is never acked and the next
      // append (or recovery replay, which fails the frame CRC here)
      // overwrites the damage.
      uint64_t keep =
          (frame.size() * (inj.rand % fault::kTearDenom)) / fault::kTearDenom;
      keep -= keep % kXPLineSize;
      if (keep > 0) {
        env_->NtStore(seg->base + offset, frame.data(), keep);
        env_->Sfence();
      }
      return inj.status;
    }
    if (!inj.status.ok()) {
      return inj.status;
    }
  }

  env_->NtStore(seg->base + offset, frame.data(), frame.size());
  env_->Sfence();

  appended_bytes_.fetch_add(footprint, std::memory_order_relaxed);
  uint64_t prev = max_sequence_.load(std::memory_order_relaxed);
  while (seq > prev && !max_sequence_.compare_exchange_weak(prev, seq)) {
  }
  seg->head.store(offset + footprint, std::memory_order_release);

  ptr->file_id = seg->file_id;
  ptr->offset = offset;
  ptr->len = static_cast<uint32_t>(value.size());
  if (metrics_ != nullptr) {
    metrics_->GetCounter("vlog.appends")->Increment();
    metrics_->GetCounter("vlog.append_bytes")->fetch_add(footprint);
  }
  return Status::OK();
}

Status ValueLog::DecodeFrame(const Segment& seg, uint64_t offset,
                             uint64_t limit, SequenceNumber* seq,
                             std::string* key, std::string* value,
                             uint64_t* frame_len, bool apply_bitrot) const {
  if (offset + kFrameHeaderSize > limit) {
    return Status::Corruption("vlog frame header past segment end");
  }
  char hdr[kFrameHeaderSize];
  env_->Load(seg.base + offset, hdr, sizeof(hdr));
  const uint32_t crc = DecodeFixed32(hdr);
  const uint32_t payload_len = DecodeFixed32(hdr + 4);
  if (payload_len == 0) {
    return Status::NotFound("vlog terminator");
  }
  if (payload_len < 9 ||
      offset + kFrameHeaderSize + payload_len > limit) {
    return Status::Corruption("vlog frame length implausible");
  }
  std::string payload(payload_len, '\0');
  env_->Load(seg.base + offset + kFrameHeaderSize, payload.data(),
             payload_len);
  if (apply_bitrot && fault::AnyActive()) {
    fault::MaybeBitrot("vlog.read.bitrot", payload.data(), payload.size());
  }
  if (Checksum(payload.data(), payload.size()) != crc) {
    return Status::Corruption("vlog frame crc mismatch");
  }
  Slice in(payload);
  const uint64_t packed = DecodeFixed64(in.data());
  in.remove_prefix(8);
  if ((packed & 0xff) != kTypeValue) {
    return Status::Corruption("vlog frame type invalid");
  }
  uint32_t key_len = 0;
  if (!GetVarint32(&in, &key_len) || in.size() < key_len) {
    return Status::Corruption("vlog frame key truncated");
  }
  *seq = packed >> 8;
  key->assign(in.data(), key_len);
  in.remove_prefix(key_len);
  value->assign(in.data(), in.size());
  *frame_len = kFrameHeaderSize + payload_len;
  return Status::OK();
}

Status ValueLog::Read(const ValuePointer& ptr, const Slice& user_key,
                      std::string* value) const {
  SegmentPtr seg = FindSegment(ptr.file_id);
  if (seg == nullptr) {
    return Status::NotFound("vlog segment recycled");
  }
  SequenceNumber seq = 0;
  std::string key;
  uint64_t frame_len = 0;
  Status s = DecodeFrame(*seg, ptr.offset, seg->size, &seq, &key, value,
                         &frame_len, /*apply_bitrot=*/true);
  if (s.IsNotFound()) {  // terminator where a record should be
    s = Status::Corruption("vlog pointer at terminator");
  }
  if (s.ok() && value->size() != ptr.len) {
    s = Status::Corruption("vlog pointer length mismatch");
  }
  if (s.ok() && Slice(key) != user_key) {
    // A recycled region can hold a different-but-valid frame (e.g. a new
    // segment reused it); CRC alone cannot tell. The record is self-
    // describing, so the key must match the pointer's owner.
    s = Status::Corruption("vlog pointer key mismatch");
  }
  // Re-check AFTER the loads: Unlink sets `unlinked` before the region
  // can be freed and reused, so any read that raced the recycling — even
  // one that decoded a plausible frame — observes the flag here.
  if (seg->unlinked.load(std::memory_order_acquire)) {
    // GC recycled the segment mid-read; the relocated pointer is already
    // committed, so the caller re-probes the index.
    if (metrics_ != nullptr) {
      metrics_->GetCounter("vlog.read_races")->Increment();
    }
    return Status::NotFound("vlog segment recycled");
  }
  return s;
}

uint32_t ValueLog::OldestSealed(uint32_t after) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (auto it = segments_.upper_bound(after); it != segments_.end(); ++it) {
    if (it->second->sealed.load(std::memory_order_acquire)) {
      return it->first;
    }
  }
  return 0;
}

Status ValueLog::ForEachRecord(uint32_t file_id, const RecordFn& fn) const {
  SegmentPtr seg = FindSegment(file_id);
  if (seg == nullptr) {
    return Status::NotFound("vlog segment not found");
  }
  const uint64_t head = seg->head.load(std::memory_order_acquire);
  uint64_t offset = 0;
  while (offset < head) {
    SequenceNumber seq = 0;
    std::string key, value;
    uint64_t frame_len = 0;
    Status s = DecodeFrame(*seg, offset, head, &seq, &key, &value,
                           &frame_len, /*apply_bitrot=*/false);
    if (s.IsNotFound()) {
      break;  // terminator before head: torn tail already truncated
    }
    if (!s.ok()) {
      return s;
    }
    ValuePointer ptr;
    ptr.file_id = file_id;
    ptr.offset = offset;
    ptr.len = static_cast<uint32_t>(value.size());
    s = fn(seq, Slice(key), Slice(value), ptr);
    if (!s.ok()) {
      return s;
    }
    offset += frame_len;
  }
  return Status::OK();
}

Status ValueLog::Unlink(uint32_t file_id) {
  std::unique_lock<std::shared_mutex> pin(unlink_mu_);
  SegmentPtr seg = FindSegment(file_id);
  if (seg == nullptr) {
    return Status::NotFound("vlog segment not found");
  }
  seg->unlinked.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    segments_.erase(file_id);
  }
  // Drop the segment from the persistent registry before returning its
  // region: once Free() lets the allocator hand the region to someone
  // else, a crash must not lead recovery to re-reserve (and replay) it.
  Status s = PersistRegistry();
  if (!s.ok()) {
    // The old registry — which still names this segment — remains
    // authoritative, so reinstate the in-memory state to match: the next
    // GC pass retries the unlink cleanly instead of leaking the region
    // (and a crash meanwhile recovers the segment as all-dead, not as
    // replayed garbage over a freed region).
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      segments_[file_id] = seg;
    }
    seg->unlinked.store(false, std::memory_order_release);
    return s;
  }
  env_->allocator()->Free(seg->base, seg->size);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("vlog.gc_unlinked")->Increment();
  }
  return Status::OK();
}

Status ValueLog::Recover() {
  std::unique_lock<std::mutex> append_lock(append_mu_);
  struct RecoveredSegment {
    uint32_t file_id;
    uint64_t base, size, committed_head;
    bool sealed;
  };
  std::vector<RecoveredSegment> chosen;
  bool have_slot = false;
  uint64_t chosen_epoch = 0;
  uint32_t chosen_next_id = 1;
  uint64_t chosen_max_seq = 0;
  for (int slot = 0; slot < 2; slot++) {
    char hdr[8];
    env_->Load(registry_base_ + slot * registry_slot_size_, hdr,
               sizeof(hdr));
    const uint32_t len = DecodeFixed32(hdr);
    const uint32_t crc = DecodeFixed32(hdr + 4);
    if (len < 24 || len > registry_slot_size_ - 8) {
      continue;
    }
    std::string body(len, '\0');
    env_->Load(registry_base_ + slot * registry_slot_size_ + 8, body.data(),
               len);
    if (Checksum(body.data(), len) != crc) {
      continue;
    }
    const char* p = body.data();
    const uint64_t epoch = DecodeFixed64(p);
    p += 8;
    if (have_slot && epoch <= chosen_epoch) {
      continue;
    }
    const uint32_t next_id = DecodeFixed32(p);
    p += 4;
    const uint64_t max_seq = DecodeFixed64(p);
    p += 8;
    const uint32_t count = DecodeFixed32(p);
    p += 4;
    if (len < 24 + static_cast<uint64_t>(count) * 29) {
      continue;  // truncated body
    }
    std::vector<RecoveredSegment> segs;
    for (uint32_t i = 0; i < count; i++) {
      RecoveredSegment rs;
      rs.file_id = DecodeFixed32(p);
      p += 4;
      rs.base = DecodeFixed64(p);
      p += 8;
      rs.size = DecodeFixed64(p);
      p += 8;
      rs.committed_head = DecodeFixed64(p);
      p += 8;
      rs.sealed = (*p++ != 0);
      segs.push_back(rs);
    }
    have_slot = true;
    chosen_epoch = epoch;
    chosen_next_id = next_id;
    chosen_max_seq = max_seq;
    chosen = std::move(segs);
  }

  {
    std::lock_guard<std::mutex> lock(map_mu_);
    segments_.clear();
    active_ = nullptr;
    registry_epoch_ = have_slot ? chosen_epoch : 0;
    next_file_id_ = chosen_next_id;
  }
  max_sequence_.store(chosen_max_seq, std::memory_order_release);
  if (!have_slot) {
    return Status::OK();  // fresh log
  }

  SegmentPtr tail;
  for (const RecoveredSegment& rs : chosen) {
    Status s = env_->allocator()->Reserve(rs.base, rs.size);
    if (!s.ok()) {
      return s;
    }
    auto seg = std::make_shared<Segment>();
    seg->file_id = rs.file_id;
    seg->base = rs.base;
    seg->size = rs.size;
    seg->head.store(rs.committed_head, std::memory_order_release);
    seg->sealed.store(rs.sealed, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      segments_[seg->file_id] = seg;
      if (next_file_id_ <= seg->file_id) {
        next_file_id_ = seg->file_id + 1;
      }
    }
    if (!rs.sealed) {
      tail = seg;
    }

    // Replay frames past the committed scan hint: appends after the last
    // registry persist are durable but unindexed here. Sealed segments
    // persisted their final head, so the loop exits immediately.
    uint64_t offset = seg->head.load(std::memory_order_relaxed);
    while (offset < seg->size) {
      SequenceNumber seq = 0;
      std::string key, value;
      uint64_t frame_len = 0;
      Status fs = DecodeFrame(*seg, offset, seg->size, &seq, &key, &value,
                              &frame_len, /*apply_bitrot=*/false);
      if (!fs.ok()) {
        break;  // terminator, or a torn frame truncated below
      }
      if (seq > max_sequence_.load(std::memory_order_relaxed)) {
        max_sequence_.store(seq, std::memory_order_release);
      }
      offset += frame_len;
    }
    seg->head.store(offset, std::memory_order_release);
    if (offset + kFrameHeaderSize <= seg->size) {
      // Rewrite the terminator: a torn append may have left a garbage
      // frame header here, and replay must stop at this head forever.
      WriteTerminator(*seg, offset);
    }
  }
  active_ = tail;
  // Checkpoint the recovered truth so the next recovery replays nothing.
  return PersistRegistry();
}

size_t ValueLog::NumSegments() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return segments_.size();
}

void ValueLog::UpdateGauges() const {
  if (metrics_ != nullptr) {
    metrics_->GetGauge("vlog.segments")
        ->Set(static_cast<double>(NumSegments()));
  }
}

}  // namespace cachekv
