#include "core/db.h"

#include <algorithm>
#include <thread>

#include "core/record_format.h"
#include "fault/fail_point.h"
#include "lsm/merger.h"
#include "pmem/meta_layout.h"
#include "util/json.h"

namespace cachekv {

namespace {

/// Sequence of the last batch this thread committed on any DB, for
/// DB::ThreadLastCommitSeq(). One static suffices: a caller waiting on
/// a write's replication does so immediately after performing it, so
/// the value can only describe that write.
thread_local SequenceNumber tls_last_commit_seq = 0;

/// Copy-based flush (§III-C): streams a table's header and records out
/// of its pool slot into a fresh region with non-temporal stores
/// ("modified memory copy"), so the write-back is large, sequential,
/// and immune to the cacheline eviction policy. Fills *ft for the zone
/// and re-points `index` at the copy.
Status CopyOut(PmemEnv* env, const SubMemTable& table,
               const SubMemTable::Header& h,
               std::shared_ptr<SubSkiplist> index, FlushedTable* ft) {
  const uint64_t copy_len = SubMemTable::kDataOffset + h.tail;
  ft->region_size = AlignUp(copy_len, kXPLineSize);
  Status s = env->allocator()->Allocate(ft->region_size, &ft->region_offset);
  if (!s.ok()) {
    return s;
  }
  char buf[4096];
  for (uint64_t off = 0; off < copy_len; off += sizeof(buf)) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(sizeof(buf), copy_len - off));
    env->Load(table.slot_offset() + off, buf, chunk);
    env->NtStore(ft->region_offset + off, buf, chunk);
  }
  env->Sfence();
  index->SetDataBase(ft->region_offset + SubMemTable::kDataOffset);
  ft->data_tail = h.tail;
  ft->entry_count = h.counter;
  ft->max_sequence = index->max_sequence();
  ft->data_crc = FlushedZone::ComputeDataCrc(env, ft->region_offset, h.tail);
  ft->index = std::move(index);
  return Status::OK();
}

}  // namespace

SequenceNumber DB::ThreadLastCommitSeq() { return tls_last_commit_seq; }

DB::DB(PmemEnv* env, const CacheKVOptions& options)
    : env_(env),
      options_(options),
      trace_(options.trace_events_per_thread),
      bg_errors_(BackgroundErrorManager::Policy{options.max_bg_retries,
                                                options.bg_backoff_base_ms,
                                                options.bg_backoff_max_ms},
                 &metrics_, &trace_),
      pool_(std::make_unique<SubMemTablePool>(env, options)),
      zone_(std::make_unique<FlushedZone>(
          env, MetaLayout::ZoneRegistryBase(env),
          MetaLayout::kZoneRegistrySlotSize, options.zone_compaction,
          &metrics_, &trace_)),
      engine_(std::make_unique<LsmEngine>(env, options.lsm,
                                          MetaLayout::ManifestBase(env),
                                          &metrics_, &trace_)),
      vlog_(std::make_unique<ValueLog>(
          env, &metrics_, MetaLayout::VlogRegistryBase(env),
          MetaLayout::kVlogRegistrySlotSize, options.vlog_segment_bytes)),
      puts_(metrics_.GetCounter("db.puts")),
      gets_(metrics_.GetCounter("db.gets")),
      seals_(metrics_.GetCounter("db.seals")),
      copy_flushes_(metrics_.GetCounter("db.copy_flushes")),
      zone_flushes_(metrics_.GetCounter("db.zone_flushes")),
      index_syncs_(metrics_.GetCounter("db.index_syncs")),
      acquire_waits_(metrics_.GetCounter("db.acquire_waits")),
      write_stalls_(metrics_.GetCounter("db.write_stalls")),
      get_hit_submemtable_(
          metrics_.GetCounter("db.get_hit_submemtable")),
      get_hit_zone_(metrics_.GetCounter("db.get_hit_zone")),
      get_hit_lsm_(metrics_.GetCounter("db.get_hit_lsm")),
      get_miss_(metrics_.GetCounter("db.get_miss")),
      ingest_bytes_(metrics_.GetCounter("db.ingest_bytes")),
      separated_puts_(metrics_.GetCounter("db.separated_puts")),
      snap_pins_(metrics_.GetCounter("snap.pins")),
      snap_releases_(metrics_.GetCounter("snap.releases")),
      snap_retained_bytes_(metrics_.GetCounter("snap.retained_bytes")) {
  trace_.set_enabled(options_.trace_enabled ||
                     obs::TraceEnabledFromEnv());
  metadata_.resize(options_.num_cores);
  // Compaction passes capture the pinned snapshots at pass start and
  // retain every version a pin still resolves (docs/SNAPSHOTS.md).
  engine_->SetSnapshotProvider([this] { return PinnedSnapshots(); });
}

Status DB::Open(PmemEnv* env, const CacheKVOptions& options, bool recover,
                std::unique_ptr<DB>* db) {
  if (env->locked_size() != options.pool_bytes) {
    return Status::InvalidArgument(
        "env cat_locked_bytes must equal the sub-MemTable pool size");
  }
  if (env->options().domain != PersistDomain::kEadr) {
    return Status::InvalidArgument(
        "CacheKV requires persistent CPU caches (eADR)");
  }
  // Validate before constructing: the pool is built in the DB
  // constructor, which clamps rather than checks.
  Status s = SubMemTablePool::ValidateOptions(options);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<DB> d(new DB(env, options));
  s = d->engine_->Open(recover);
  if (!s.ok()) {
    return s;
  }
  if (recover) {
    // §III-E: recover the staged zone, then evacuate any sub-MemTable
    // that survived in the persistent caches into the zone, rebuilding
    // its sub-skiplist from the data first.
    s = d->zone_->Recover();
    if (!s.ok()) {
      return s;
    }
    // Re-adopt the value-log segments (reserving their regions) before
    // the pool scan so every persistent region is accounted for.
    s = d->vlog_->Recover();
    if (!s.ok()) {
      return s;
    }
    uint64_t max_seq = std::max<uint64_t>(d->engine_->LastSequence(),
                                          d->zone_->MaxSequence());
    // Cross-check against the vlog heads: torn-off appends may have
    // consumed sequence numbers whose pointers never committed; starting
    // below them would let a future write collide with an orphan record.
    max_seq = std::max<uint64_t>(max_seq, d->vlog_->MaxSequence());
    s = d->pool_->RecoverScan([&](const SubMemTable& table) -> Status {
      SubMemTable::Header h = table.ReadHeader();
      auto index =
          std::make_shared<SubSkiplist>(env, table.data_offset());
      Status rs = index->SyncTo(h.counter, h.tail);
      if (!rs.ok()) {
        return rs;
      }
      if (index->max_sequence() > max_seq) {
        max_seq = index->max_sequence();
      }
      // Copy the recovered table into the sub-ImmMemTable area so the
      // pool slot can be reused.
      FlushedTable ft;
      rs = CopyOut(env, table, h, std::move(index), &ft);
      if (!rs.ok()) {
        return rs;
      }
      return d->zone_->AddTable(std::move(ft));
    });
    if (!s.ok()) {
      return s;
    }
    d->zone_->Compact();
    d->sequence_.store(max_seq, std::memory_order_release);
    d->flushed_hwm_.store(d->zone_->MaxSequence(),
                          std::memory_order_release);
    d->l0_hwm_.store(d->engine_->LastSequence(),
                     std::memory_order_release);
  } else {
    d->pool_->Format();
    s = d->vlog_->Format();
    if (!s.ok()) {
      return s;
    }
  }

  for (int i = 0; i < options.num_flush_threads; i++) {
    d->flush_threads_.emplace_back(&DB::FlushThread, d.get());
  }
  for (int i = 0; i < options.num_index_threads; i++) {
    d->index_threads_.emplace_back(&DB::IndexThread, d.get());
  }
  d->vlog_gc_ = std::make_unique<VlogGc>(
      d->vlog_.get(), &d->metrics_,
      std::bind_front(&DB::RelocateForGc, d.get()), env->allocator(),
      options.vlog_gc_interval_ms);
  d->vlog_gc_->Start();
  *db = std::move(d);
  return Status::OK();
}

DB::~DB() {
  // Stop the GC first: its relocation writes go through the normal write
  // path and must not race the teardown of the background threads.
  if (vlog_gc_ != nullptr) {
    vlog_gc_->Stop();
  }
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_cv_.notify_all();
    flush_done_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_cv_.notify_all();
  }
  for (auto& t : flush_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& t : index_threads_) {
    if (t.joinable()) t.join();
  }
}

std::string DB::Name() const {
  if (!options_.lazy_index_update && !options_.zone_compaction) {
    return "CacheKV-PCSM";
  }
  if (!options_.zone_compaction) {
    return "CacheKV-PCSM+LIU";
  }
  if (!options_.lazy_index_update) {
    return "CacheKV-PCSM+SC";
  }
  return "CacheKV";
}

int DB::CoreOf() {
  static std::atomic<int> next_thread_slot{0};
  thread_local int thread_slot = -1;
  if (thread_slot < 0) {
    thread_slot = next_thread_slot.fetch_add(1, std::memory_order_relaxed);
  }
  // Map threads onto at most min(num_cores, pool slots) writer slots so
  // progress is guaranteed even when the pool currently has fewer tables
  // than cores (the pool capacity is fixed; see §III-A).
  int slots = std::min(options_.num_cores, pool_->ApproxNumSlots());
  if (slots < 1) slots = 1;
  return thread_slot % slots;
}

Status DB::AcquireFor(int core) {
  OBS_SPAN(&metrics_, "put.acquire");
  SubMemTable table(env_, 0, SubMemTable::kDataOffset + kCacheLineSize);
  // Write-stall deadline: if the flushers cannot recycle a slot within
  // the budget (e.g. they are stuck in retry backoff), fail the write
  // instead of blocking the caller forever.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_stall_timeout_ms);
  for (;;) {
    Status s = pool_->Acquire(&table);
    if (s.ok()) {
      break;
    }
    if (!s.IsBusy()) {
      return s;
    }
    acquire_waits_->Increment();
    trace_.Instant("acquire.wait");
    // Wait for the copy-based flush to free a table.
    std::unique_lock<std::mutex> lock(flush_mu_);
    Status gate = bg_errors_.CheckWritable();
    if (!gate.ok()) {
      return gate;
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      return Status::Busy("shutting down");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      write_stalls_->Increment();
      trace_.Instant("write.stall");
      return Status::Busy(
          "write stalled: sealed-table queue is not draining");
    }
    flush_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  auto active = std::make_shared<ActiveTable>(env_, table);
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    live_tables_.push_back(active);
  }
  metadata_[core] = std::move(active);
  return Status::OK();
}

Status DB::SealAndReplace(int core,
                          std::shared_ptr<ActiveTable> current) {
  SubMemTable::Header h = current->table.ReadHeader();
  if (!current->table.Seal()) {
    return Status::Corruption("seal failed: unexpected table state");
  }
  seals_->Increment();
  trace_.Instant("seal", "bytes", h.tail);
  metadata_[core] = nullptr;
  if (h.counter == 0) {
    // Nothing to flush: recycle the empty table immediately (it was too
    // small for the record being appended).
    {
      std::unique_lock<std::shared_mutex> lock(tables_mu_);
      live_tables_.erase(
          std::remove(live_tables_.begin(), live_tables_.end(), current),
          live_tables_.end());
    }
    Status rs = pool_->Release(current->table);
    if (!rs.ok()) {
      // A release mismatch means the pool directory no longer describes
      // the slot: corruption, not a retryable condition.
      bg_errors_.RaiseHardError("pool.release", rs);
      return rs;
    }
  } else {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_queue_.push_back(std::move(current));
    flush_cv_.notify_one();
  }
  return AcquireFor(core);
}

/// A core's lock and the block of sequence numbers its holder reserves
/// under it. Reserve() stores a lower bound in the core's in-flight slot
/// before the fetch_add and tightens it to the block's first sequence
/// right after, so no waiter below the block waits on it; destruction
/// clears the slot, so the block is settled on every exit, published or
/// abandoned.
class DB::Reservation {
 public:
  Reservation(DB* db, int core)
      : db_(db),
        core_(&db->cores_[core % kMaxCoreLocks]),
        lock_(core_->mu) {}
  ~Reservation() { core_->inflight.store(0, std::memory_order_release); }

  /// Reserves `n` sequences; returns the first.
  SequenceNumber Reserve(size_t n) {
    core_->inflight.store(db_->sequence_.load() + 1);
    const SequenceNumber first = db_->sequence_.fetch_add(n) + 1;
    core_->inflight.store(first);
    return first;
  }

 private:
  DB* const db_;
  CoreLock* const core_;
  std::lock_guard<std::mutex> lock_;
};

SequenceNumber DB::VisibleSequence() const {
  // The last sequence is read before the slots: a writer whose
  // fetch_add it saw stored its slot earlier, so the scan sees that
  // slot (or the writer already settled).
  SequenceNumber visible = sequence_.load();
  const int n = std::clamp(options_.num_cores, 1, kMaxCoreLocks);
  for (int i = 0; i < n; i++) {
    const SequenceNumber first = cores_[i].inflight.load();
    if (first != 0 && first - 1 < visible) {
      visible = first - 1;
    }
  }
  return visible;
}

void DB::WaitVisible(SequenceNumber seq) const {
  for (int spins = 0; VisibleSequence() < seq; spins++) {
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

Status DB::MakeRoom(int core, uint64_t bytes) {
  for (int attempt = 0; attempt < 16; attempt++) {
    std::shared_ptr<ActiveTable> t = metadata_[core];
    if (t != nullptr && t->table.ReadRemainingSpace() >= bytes) {
      return Status::OK();
    }
    Status s = t == nullptr ? AcquireFor(core)
                            : SealAndReplace(core, std::move(t));
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OutOfSpace("write does not fit any available sub-memtable");
}

Status DB::AppendRecords(int core, const Slice& records, uint32_t count) {
  ActiveTable* t = metadata_[core].get();
  Status s;
  {
    OBS_SPAN(&metrics_, "put.append");
    s = t->table.AppendEncoded(records, count);
  }
  if (!s.ok()) {
    return s;
  }
  if (!options_.lazy_index_update) {
    // PCSM mode: diligently update the sub-skiplist on every write.
    OBS_SPAN(&metrics_, "put.index_sync");
    return t->index->SyncWithTable(t->table);
  }
  uint64_t pending =
      t->writes_since_sync.fetch_add(count, std::memory_order_relaxed) +
      count;
  if (pending >= options_.sync_write_threshold) {
    t->writes_since_sync.store(0, std::memory_order_relaxed);
    ScheduleSync(metadata_[core]);
  }
  return s;
}

bool DB::ShouldSeparate(const Slice& key, const Slice& value) const {
  return options_.value_separation_threshold > 0 &&
         value.size() >= options_.value_separation_threshold &&
         vlog_->Fits(key.size(), value.size());
}

Status DB::Commit(std::span<const OpView> ops) {
  OBS_SPAN(&metrics_, "put");
  // Background-error propagation: once a flush/index/compaction stage
  // failed hard, acknowledge no further writes.
  Status gate = bg_errors_.CheckWritable();
  if (!gate.ok()) {
    return gate;
  }
  // Key–value separation: a large value goes to the value log and the
  // memory component carries a 16-byte pointer (values too large for a
  // vlog segment stay inline and meet the size bound below).
  auto separate = [this](const OpView& op) {
    return !op.is_delete && ShouldSeparate(op.key, op.value);
  };
  size_t encoded_bound = 0;
  bool appends = false;
  for (const OpView& op : ops) {
    // Records never start with a zero key length (record_format.h): an
    // empty key would end every later sync of its table.
    if (op.key.empty()) {
      return Status::InvalidArgument("empty key");
    }
    const bool sep = separate(op);
    appends = appends || sep;
    encoded_bound +=
        MaxRecordSize(op.key.size(), sep ? kValuePointerSize : op.value.size());
  }
  if (ops.empty()) {
    return Status::OK();
  }
  if (encoded_bound >
      options_.sub_memtable_bytes - SubMemTable::kDataOffset) {
    return Status::InvalidArgument(
        "write larger than a full-size sub-memtable");
  }
  puts_->Increment(ops.size());
  if (appends) {
    // Before any lock or sequence: a writer that outpaces vlog GC waits
    // here, and no pin, hook or relocation waits on it.
    vlog_gc_->WaitForRoom(
        std::chrono::milliseconds(options_.write_stall_timeout_ms), [this] {
          return shutting_down_.load(std::memory_order_acquire) ||
                 bg_errors_.read_only();
        });
    gate = bg_errors_.CheckWritable();
    if (!gate.ok()) {
      return gate;
    }
  }
  const int core = CoreOf();
  Reservation block(this, core);
  // Room first: a write that waits here for a free pool slot holds no
  // sequence yet, so no pin or hook waits on it.
  Status s = MakeRoom(core, encoded_bound);
  if (!s.ok()) {
    return s;
  }
  const SequenceNumber first = block.Reserve(ops.size());
  const SequenceNumber last_seq = first + ops.size() - 1;
  // Vlog records of a write that then fails to commit are orphans: no
  // committed pointer names them, so GC's lookup finds them dead.
  size_t separated = 0;
  std::string records;
  records.reserve(encoded_bound);
  SequenceNumber seq = first;
  uint64_t bytes = 0;
  for (const OpView& op : ops) {
    bytes += op.key.size() + op.value.size();
    if (separate(op)) {
      // The value is durable in the log before the pointer commits:
      // recovery replays a pointer only if its record frame checks out,
      // so an acked key never dangles.
      ValuePointer ptr;
      s = vlog_->Append(seq, op.key, op.value, &ptr);
      if (!s.ok()) {
        return s;
      }
      separated++;
      std::string encoded_ptr;
      EncodeValuePointer(&encoded_ptr, ptr);
      EncodeRecord(&records, seq++, kTypeValuePointer, op.key,
                   Slice(encoded_ptr));
    } else {
      EncodeRecord(&records, seq++,
                   op.is_delete ? kTypeDeletion : kTypeValue, op.key,
                   op.value);
    }
  }
  s = AppendRecords(core, Slice(records), static_cast<uint32_t>(ops.size()));
  if (!s.ok()) {
    return s;
  }
  tls_last_commit_seq = last_seq;
  ingest_bytes_->fetch_add(bytes);
  if (separated > 0) {
    separated_puts_->Increment(separated);
  }
  if (commit_hook_) {
    // Fire in sequence order: every earlier block has run its hook (or
    // failed) once it is visible.
    WaitVisible(first - 1);
    commit_hook_(ops, last_seq);
  }
  return s;
}

Status DB::Put(const Slice& key, const Slice& value) {
  const OpView op{false, key, value};
  return Commit({&op, 1});
}

Status DB::Delete(const Slice& key) {
  const OpView op{true, key, Slice()};
  return Commit({&op, 1});
}

Status DB::ApplyBatch(const std::vector<BatchOp>& batch) {
  return MultiPut(batch);
}

Status DB::MultiPut(const std::vector<BatchOp>& batch) {
  obs::TraceScope trace(&trace_, "multiput");
  trace.AddArg("keys", batch.size());
  std::vector<OpView> ops;
  ops.reserve(batch.size());
  for (const BatchOp& op : batch) {
    ops.push_back({op.is_delete, Slice(op.key), Slice(op.value)});
  }
  return Commit(ops);
}

uint64_t DB::ApproxMultiPutCapacityBytes() const {
  // Elasticity (§III-A) can hand out tables shrunk to the minimum size
  // class, so a batch bounded by that class commits after at most one
  // seal-and-replace; halving leaves headroom for per-record framing.
  const uint64_t slot = options_.min_sub_memtable_bytes;
  if (slot <= SubMemTable::kDataOffset) {
    return 0;
  }
  return (slot - SubMemTable::kDataOffset) / 2;
}

const DB::Snapshot* DB::GetSnapshot() {
  // The pin is LastSequence(), read under snapshots_mu_: flush and
  // compaction capture the pins at pass start and rely on a later pin
  // sequencing at or above every entry in the pass's inputs.
  SequenceNumber seq;
  {
    std::lock_guard<std::mutex> lock(snapshots_mu_);
    if (pinned_snapshots_.size() >= options_.max_pinned_snapshots) {
      return nullptr;
    }
    seq = LastSequence();
    pinned_snapshots_.insert(seq);
  }
  snap_pins_->Increment();
  trace_.Instant("snapshot.pin", "seq", seq);
  WaitVisible(seq);
  return new Snapshot(seq);
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(snapshots_mu_);
    auto it = pinned_snapshots_.find(snapshot->sequence());
    if (it != pinned_snapshots_.end()) {
      pinned_snapshots_.erase(it);
    }
  }
  snap_releases_->Increment();
  trace_.Instant("snapshot.release", "seq", snapshot->sequence());
  delete snapshot;
}

std::vector<SequenceNumber> DB::PinnedSnapshots() const {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  return std::vector<SequenceNumber>(pinned_snapshots_.begin(),
                                     pinned_snapshots_.end());
}

Iterator* DB::NewScanIterator() {
  return NewScanIteratorAt(kMaxSequenceNumber);
}

Iterator* DB::NewScanIteratorAt(SequenceNumber snapshot) {
  // The scan pins the memory component for its lifetime: the locks are
  // owned by the returned iterator.
  class ScanIterator : public Iterator {
   public:
    ScanIterator(DB* db, SequenceNumber snapshot)
        : tables_lock_(db->tables_mu_),
          vlog_pin_(db->vlog_->PinSegments()),
          zone_lock_(db->zone_->LockShared()) {
      std::vector<Iterator*> children;
      for (const auto& t : db->live_tables_) {
        // Read trigger: scans need the same strict consistency as Gets.
        Status s = t->index->SyncWithTable(t->table);
        if (!s.ok()) {
          status_ = s;
        }
        children.push_back(t->index->NewIterator());
        pinned_.push_back(t);
      }
      zone_tables_ = db->zone_->SnapshotTables();
      for (const FlushedTable& zt : zone_tables_) {
        children.push_back(zt.index->NewIterator());
      }
      children.push_back(db->engine_->NewIterator());
      // The pin blocks vlog GC from unlinking segments for the scan's
      // lifetime, so pointer resolution below can never hit a recycled
      // segment.
      ValueLog* vlog = db->vlog_.get();
      // A bounded scan filters out versions newer than the snapshot
      // BEFORE the dedup, so the freshest *visible* version per key
      // wins (a fresher invisible one must not shadow it).
      Iterator* merged =
          NewMergingIterator(&db->scan_icmp_, std::move(children));
      if (snapshot != kMaxSequenceNumber) {
        merged = NewSnapshotFilterIterator(merged, snapshot);
      }
      impl_.reset(NewUserKeyIterator(
          NewDedupingIterator(merged),
          [vlog](const Slice& internal_key, const Slice& raw_value,
                 std::string* value) -> Status {
            ParsedInternalKey parsed;
            if (!ParseInternalKey(internal_key, &parsed) ||
                parsed.type != kTypeValuePointer) {
              return Status::Corruption("resolver on a non-pointer entry");
            }
            ValuePointer ptr;
            if (!DecodeValuePointer(raw_value, &ptr)) {
              return Status::Corruption("bad value pointer");
            }
            return vlog->Read(ptr, parsed.user_key, value);
          }));
    }

    bool Valid() const override { return impl_->Valid(); }
    void SeekToFirst() override { impl_->SeekToFirst(); }
    void Seek(const Slice& user_key) override { impl_->Seek(user_key); }
    void Next() override { impl_->Next(); }
    Slice key() const override { return impl_->key(); }
    Slice value() const override { return impl_->value(); }
    Status status() const override {
      return status_.ok() ? impl_->status() : status_;
    }

   private:
    // The vlog pin is taken before the zone lock: SnapshotTables() below
    // takes the zone lock again, and no lock may come between the two.
    std::shared_lock<std::shared_mutex> tables_lock_;
    std::shared_lock<std::shared_mutex> vlog_pin_;
    std::shared_lock<std::shared_mutex> zone_lock_;
    std::vector<std::shared_ptr<ActiveTable>> pinned_;
    std::vector<FlushedTable> zone_tables_;
    std::unique_ptr<Iterator> impl_;
    Status status_;
  };
  return new ScanIterator(this, snapshot);
}

Status DB::Scan(const Slice& start, size_t limit,
                std::vector<std::pair<std::string, std::string>>* out) {
  return ScanAt(start, limit, kMaxSequenceNumber, out);
}

Status DB::ScanAt(const Slice& start, size_t limit,
                  SequenceNumber snapshot,
                  std::vector<std::pair<std::string, std::string>>* out) {
  OBS_SPAN(&metrics_, "scan");
  obs::TraceScope trace(&trace_, "scan");
  out->clear();
  std::unique_ptr<Iterator> it(NewScanIteratorAt(snapshot));
  if (start.empty()) {
    it->SeekToFirst();
  } else {
    it->Seek(start);
  }
  while (it->Valid() && out->size() < limit) {
    out->emplace_back(it->key().ToString(), it->value().ToString());
    it->Next();
  }
  trace.AddArg("rows", out->size());
  return it->status();
}

Status DB::SearchRaw(const Slice& key, RawResult* out,
                     SequenceNumber max_sequence) {
  out->found = false;
  out->sequence = 0;
  out->type = kTypeValue;
  out->value.clear();
  out->where = RawResult::Where::kNone;

  // 1) Memory component: every live sub-MemTable (read trigger: sync
  //    the sub-skiplist before searching; §III-B strict consistency).
  {
    OBS_SPAN(&metrics_, "get.memtable");
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    const SubSkiplist* best_index = nullptr;
    SubSkiplist::Candidate best_candidate;
    for (const auto& t : live_tables_) {
      Status s = t->index->SyncWithTable(t->table);
      if (!s.ok()) {
        return s;
      }
      index_syncs_->Increment();
      SubSkiplist::Candidate c;
      if (t->index->Get(key, &c, max_sequence) &&
          (!out->found || c.sequence > out->sequence)) {
        out->found = true;
        out->sequence = c.sequence;
        out->type = c.type;
        best_index = t->index.get();
        best_candidate = c;
      }
    }
    if (out->found && out->type != kTypeDeletion) {
      Status s = best_index->ReadValue(best_candidate, &out->value);
      if (!s.ok()) {
        return s;
      }
    }
  }
  if (out->found) {
    out->where = RawResult::Where::kSubMemTable;
    if (out->sequence > flushed_hwm_.load(std::memory_order_acquire)) {
      // Nothing outside the live tables can be fresher. Valid for
      // bounded reads too: the zone and LSM hold only sequences below
      // this answer's, so none can beat it under the same bound.
      return Status::OK();
    }
  }

  // 2) Sub-ImmMemTable zone (global skiplist / per-table probes).
  {
    OBS_SPAN(&metrics_, "get.zone");
    auto zone_lock = zone_->LockShared();
    FlushedZone::LookupResult zr;
    Status s = zone_->Get(key, &zr, max_sequence);
    if (!s.ok()) {
      return s;
    }
    if (zr.found && (!out->found || zr.sequence > out->sequence)) {
      out->found = true;
      out->sequence = zr.sequence;
      out->type = zr.type;
      out->where = RawResult::Where::kZone;
      if (zr.type != kTypeDeletion) {
        out->value = std::move(zr.value);
      }
    }
  }
  if (out->found && out->sequence > l0_hwm_.load(std::memory_order_acquire)) {
    return Status::OK();
  }

  // 3) LSM storage component.
  {
    OBS_SPAN(&metrics_, "get.lsm");
    std::string lsm_value;
    bool lsm_deleted = false;
    SequenceNumber lsm_seq = 0;
    ValueType lsm_type = kTypeValue;
    Status s = engine_->Get(key, max_sequence, &lsm_value,
                            &lsm_deleted, &lsm_seq, &lsm_type);
    if (s.ok() || (s.IsNotFound() && lsm_deleted)) {
      if (!out->found || lsm_seq > out->sequence) {
        out->found = true;
        out->sequence = lsm_seq;
        out->type = lsm_deleted ? kTypeDeletion : lsm_type;
        out->where = RawResult::Where::kLsm;
        if (!lsm_deleted) {
          out->value = std::move(lsm_value);
        }
      }
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  return Status::OK();
}

Status DB::Get(const Slice& key, std::string* value) {
  return GetImpl(key, kMaxSequenceNumber, value);
}

Status DB::GetAt(const Slice& key, SequenceNumber snapshot,
                 std::string* value) {
  return GetImpl(key, snapshot, value);
}

Status DB::GetImpl(const Slice& key, SequenceNumber max_sequence,
                   std::string* value) {
  OBS_SPAN(&metrics_, "get");
  obs::TraceScope trace(&trace_, "get");
  gets_->Increment();

  // A pointer read can lose a race with GC: the victim segment is
  // unlinked after the relocated pointer committed, so a stale pointer
  // resolved from a pre-relocation search turns into a retryable
  // NotFound("vlog segment recycled"). The relocated pointer is
  // committed before Unlink, so one re-search converges; the bound only
  // guards against pathological churn. (A snapshot read under a live pin
  // cannot lose its pointer at all: GC defers the unlink while any pin
  // resolves a record in the victim segment.)
  Status s;
  RawResult r;
  for (int attempt = 0; attempt < 16; attempt++) {
    s = SearchRaw(key, &r, max_sequence);
    if (!s.ok()) {
      return s;  // component error: bypass hit/miss accounting
    }
    if (r.found && r.type == kTypeValuePointer) {
      ValuePointer ptr;
      if (!DecodeValuePointer(Slice(r.value), &ptr)) {
        return Status::Corruption("bad value pointer");
      }
      s = vlog_->Read(ptr, key, value);
      if (s.IsNotFound()) {
        continue;  // segment recycled mid-read: retry the search
      }
      if (!s.ok()) {
        return s;
      }
    } else if (r.found && r.type != kTypeDeletion) {
      *value = std::move(r.value);
    }
    break;
  }
  if (s.IsNotFound()) {
    return Status::Corruption("value pointer kept racing GC");
  }

  // Which component held the freshest entry (the one that answered the
  // Get, whether with a value or a tombstone). Error returns bypass the
  // accounting, so on clean runs the four db.get_hit_*/db.get_miss
  // counters sum to db.gets.
  switch (r.where) {
    case RawResult::Where::kNone:
      get_miss_->Increment();
      break;
    case RawResult::Where::kSubMemTable:
      get_hit_submemtable_->Increment();
      break;
    case RawResult::Where::kZone:
      get_hit_zone_->Increment();
      break;
    case RawResult::Where::kLsm:
      get_hit_lsm_->Increment();
      break;
  }
  if (!r.found || r.type == kTypeDeletion) {
    return Status::NotFound(r.where == RawResult::Where::kNone
                                ? "no visible entry"
                                : "deleted");
  }
  return Status::OK();
}

Status DB::RelocateForGc(SequenceNumber record_seq, const Slice& key,
                         const ValuePointer& old_ptr, const Slice& value,
                         bool* relocated, bool* snapshot_pinned) {
  *relocated = false;
  *snapshot_pinned = false;
  Status gate = bg_errors_.CheckWritable();
  if (!gate.ok()) {
    return gate;
  }
  // True when the freshest version of `key` at `bound` is old_ptr.
  auto resolves_old = [&](SequenceNumber bound, bool* yes) {
    RawResult r;
    Status s = SearchRaw(key, &r, bound);
    ValuePointer found;
    *yes = s.ok() && r.found && r.type == kTypeValuePointer &&
           DecodeValuePointer(Slice(r.value), &found) && found == old_ptr;
    return s;
  };
  // The record's own write may still be in flight (its segment sealed
  // under it): until it settles, the probe could miss its pointer and
  // call the record dead. (The min guards the wait against a record
  // sequenced past every reservation.)
  WaitVisible(std::min(record_seq, LastSequence()));
  bool live = false;
  Status s = resolves_old(kMaxSequenceNumber, &live);
  SequenceNumber seq = 0;
  if (s.ok() && live) {
    // Reserve `seq` and wait until every earlier sequence is visible:
    // the re-probe then sees the latest version below `seq`, and any
    // write that has yet to commit sequences above the relocation. A
    // write that superseded the record meanwhile leaves `seq` a gap.
    const int core = CoreOf();
    Reservation block(this, core);
    s = MakeRoom(core, MaxRecordSize(key.size(), kValuePointerSize));
    if (s.ok()) {
      seq = block.Reserve(1);
      WaitVisible(seq - 1);
      s = resolves_old(kMaxSequenceNumber, &live);
    }
    if (s.ok() && live) {
      ValuePointer new_ptr;
      s = vlog_->Append(seq, key, value, &new_ptr);
      if (s.ok()) {
        std::string encoded_ptr, record;
        EncodeValuePointer(&encoded_ptr, new_ptr);
        EncodeRecord(&record, seq, kTypeValuePointer, key,
                     Slice(encoded_ptr));
        // On failure the new record is an orphan, dead to a lookup.
        s = AppendRecords(core, Slice(record), 1);
      }
      if (s.ok()) {
        *relocated = true;
        tls_last_commit_seq = seq;
        if (commit_hook_) {
          // Followers replay user-visible ops, so the hook carries the
          // value itself: on the far side a same-bytes overwrite.
          const OpView op{false, key, value};
          commit_hook_({&op, 1}, seq);
        }
      }
    }
  }
  if (!s.ok()) {
    return s;
  }
  if (*relocated) {
    // Pins in [record_seq, seq) still resolve the OLD pointer (the
    // record was the freshest version of the key until this relocation
    // committed at `seq`): the victim segment must survive until they
    // release. A pin taken from here on reads a LastSequence() >= seq
    // and sees the new pointer.
    std::lock_guard<std::mutex> snap_lock(snapshots_mu_);
    auto it = pinned_snapshots_.lower_bound(record_seq);
    *snapshot_pinned = it != pinned_snapshots_.end() && *it < seq;
    return Status::OK();
  }
  // Dead at latest (superseded, deleted, or relocated already) — but a
  // pinned snapshot may still resolve this exact pointer. Probe each pin
  // at or above the record's sequence with a bounded search; a
  // pointer-equal answer means the segment cannot be unlinked yet. A
  // later pin sits above the superseding version and cannot.
  for (SequenceNumber pin : PinnedSnapshots()) {
    if (pin < record_seq) {
      continue;
    }
    s = resolves_old(pin, snapshot_pinned);
    if (!s.ok() || *snapshot_pinned) {
      return s;
    }
  }
  return Status::OK();
}

void DB::ScheduleSync(const std::shared_ptr<ActiveTable>& table) {
  if (table->sync_scheduled.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  sync_queue_.push_back(table);
  index_cv_.notify_one();
}

Status DB::CopyFlushOne(std::shared_ptr<ActiveTable> sealed) {
  CACHEKV_FAIL_POINT("flush.copy");
  OBS_SPAN(&metrics_, "flush.copy");
  obs::TraceScope trace(&trace_, "flush.copy");
  // Final synchronization of the sub-skiplist (lazy trigger 3).
  Status s = sealed->index->SyncWithTable(sealed->table);
  if (!s.ok()) {
    return s;
  }
  SubMemTable::Header h = sealed->table.ReadHeader();
  if (h.state != SubState::kImmutable) {
    return Status::Corruption("flush of a table that is not sealed");
  }

  FlushedTable ft;
  s = CopyOut(env_, sealed->table, h, sealed->index, &ft);
  if (!s.ok()) {
    return s;
  }
  const uint64_t copy_len = SubMemTable::kDataOffset + h.tail;
  copy_flushes_->Increment();
  metrics_.GetCounter("flush.copy_bytes")->fetch_add(copy_len);
  trace.AddArg("bytes", copy_len);
  trace.AddArg("keys", h.counter);

  // Publish the table in the zone, then recycle the pool slot. Any
  // failure before the zone publish must undo the copy — re-point the
  // index back at the (identical) pool-slot bytes and free the staged
  // region — so a retried flush starts from the same clean state.
  const uint64_t region = ft.region_offset, region_size = ft.region_size;
  auto unpublish = [&]() {
    sealed->index->SetDataBase(sealed->table.data_offset());
    env_->allocator()->Free(region, region_size);
  };
  if (fault::AnyActive()) {
    Status inj = fault::Inject("flush.copy.publish");
    if (!inj.ok()) {
      unpublish();
      return inj;
    }
  }
  s = zone_->AddTable(std::move(ft));
  if (!s.ok()) {
    unpublish();
    return s;
  }
  // The index is final: a sync request still queued for this table
  // must not read the recycled slot's next table against it.
  sealed->index->Freeze();
  uint64_t seen = flushed_hwm_.load(std::memory_order_relaxed);
  uint64_t table_max = sealed->index->max_sequence();
  while (table_max > seen &&
         !flushed_hwm_.compare_exchange_weak(seen, table_max)) {
  }
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    live_tables_.erase(
        std::remove(live_tables_.begin(), live_tables_.end(), sealed),
        live_tables_.end());
  }
  s = pool_->Release(sealed->table);
  if (!s.ok()) {
    // The data is already safe in the zone; a directory mismatch here
    // only loses the slot. Record it as a hard error (corruption).
    bg_errors_.RaiseHardError("pool.release", s);
    return s;
  }

  // Ask the index thread to fold the new table into the global skiplist
  // and to check the zone-to-L0 threshold.
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    compaction_requested_ = true;
    index_cv_.notify_one();
  }
  return Status::OK();
}

void DB::FlushThread() {
  trace_.SetThreadName("flush");
  std::unique_lock<std::mutex> lock(flush_mu_);
  while (true) {
    while (flush_queue_.empty() &&
           !shutting_down_.load(std::memory_order_acquire)) {
      flush_cv_.wait(lock);
    }
    if (flush_queue_.empty() &&
        shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    auto sealed = std::move(flush_queue_.front());
    flush_queue_.pop_front();
    flushes_in_flight_++;
    lock.unlock();
    // Transient failures back off and re-run the flush (CopyFlushOne
    // un-publishes on failure, so a retry is idempotent); hard failures
    // or an exhausted budget flip the DB to read-only. The sealed table
    // then stays in live_tables_, still serving reads from its pool slot.
    RetryStage("flush.copy", [&] { return CopyFlushOne(sealed); });
    lock.lock();
    flushes_in_flight_--;
    flush_done_cv_.notify_all();
  }
}

Status DB::FlushZoneToL0() {
  CACHEKV_FAIL_POINT("flush.zone_to_l0");
  OBS_SPAN(&metrics_, "flush.zone");
  std::vector<FlushedTable> snapshot = zone_->SnapshotTables();
  if (snapshot.empty()) {
    return Status::OK();
  }
  obs::TraceScope trace(&trace_, "flush.zone");
  trace.AddArg("tables", snapshot.size());
  trace.AddArg("bytes", zone_->TotalBytes());
  uint64_t snapshot_max_seq = 0;
  for (const FlushedTable& t : snapshot) {
    snapshot_max_seq = std::max(snapshot_max_seq, t.max_sequence);
  }
  // Pinned snapshots, captured at pass start (a pin created later
  // sequences above every entry in this stable table set, so it sees the
  // freshest versions — which the dedup keeps unconditionally).
  std::vector<SequenceNumber> pins = PinnedSnapshots();
  RetainedEntryFn on_retain;
  if (!pins.empty()) {
    on_retain = [this](const Slice& internal_key, const Slice& value) {
      snap_retained_bytes_->fetch_add(internal_key.size() + value.size());
    };
  }
  std::unique_ptr<Iterator> stream(
      zone_->NewL0Stream(snapshot, std::move(pins), std::move(on_retain)));
  // Publish the high-water mark before the data becomes invisible in the
  // zone, so readers never skip the LSM for entries that moved there.
  uint64_t seen = l0_hwm_.load(std::memory_order_relaxed);
  while (snapshot_max_seq > seen &&
         !l0_hwm_.compare_exchange_weak(seen, snapshot_max_seq)) {
  }
  Status s = engine_->WriteL0Tables(stream.get());
  if (!s.ok()) {
    return s;
  }
  stream.reset();
  zone_flushes_->Increment();
  return zone_->DropTables(snapshot);
}

void DB::RetryStage(const char* stage, const std::function<Status()>& run) {
  for (int attempt = 0;; attempt++) {
    Status s = run();
    if (s.ok() || shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    std::chrono::milliseconds backoff(0);
    if (bg_errors_.OnError(stage, s, attempt, &backoff) ==
        BackgroundErrorManager::Decision::kFail) {
      return;
    }
    std::this_thread::sleep_for(backoff);
  }
}

void DB::IndexThread() {
  trace_.SetThreadName("index");
  std::unique_lock<std::mutex> lock(index_mu_);
  while (true) {
    while (sync_queue_.empty() && !compaction_requested_ &&
           !shutting_down_.load(std::memory_order_acquire)) {
      index_cv_.wait(lock);
    }
    if (sync_queue_.empty() && !compaction_requested_ &&
        shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    if (!sync_queue_.empty()) {
      auto table = std::move(sync_queue_.front());
      sync_queue_.pop_front();
      index_work_in_flight_++;
      lock.unlock();
      table->sync_scheduled.store(false, std::memory_order_release);
      // Lazy index update (trigger 2), §III-B: batch-replay the appended
      // records into the sub-skiplist without blocking writers. Sync is
      // idempotent (replays from the last synced offset), so transient
      // failures simply back off and run it again.
      RetryStage("index.sync", [&]() -> Status {
        OBS_SPAN(&metrics_, "index.sync");
        obs::TraceScope sync_trace(&trace_, "index.sync");
        CACHEKV_FAIL_POINT("index.sync");
        return table->index->SyncWithTable(table->table);
      });
      index_syncs_->Increment();
      lock.lock();
      index_work_in_flight_--;
      index_done_cv_.notify_all();
      continue;
    }
    // Zone work: compaction of the sub-skiplists (§III-D) and the flush
    // to L0 once the staged bytes cross the threshold.
    compaction_requested_ = false;
    index_work_in_flight_++;
    lock.unlock();
    // The "zone.compact" span and trace event are emitted inside
    // FlushedZone::Compact(), which owns that stage.
    zone_->Compact();
    // Retry-safe: the zone keeps its tables until DropTables succeeds,
    // and the L0 high-water mark is published before the LSM write, so
    // re-running the flush after a failure never loses visibility.
    RetryStage("flush.zone", [&] {
      return zone_->TotalBytes() >= options_.imm_zone_flush_threshold
                 ? FlushZoneToL0()
                 : Status::OK();
    });
    lock.lock();
    index_work_in_flight_--;
    index_done_cv_.notify_all();
  }
}

obs::MetricsSnapshot DB::GetMetricsSnapshot() {
  // Mirror the device- and cache-level hardware counters into gauges so
  // one scrape carries the whole stack (engine spans + PMem media +
  // LLC). Gauges, not counters: the device owns the source of truth and
  // we overwrite with its current value on every snapshot.
  auto gauge = [this](std::string_view name, double value) {
    metrics_.GetGauge(name)->Set(value);
  };
  const PmemCounters& pc = env_->device()->counters();
  gauge("pmem.rmw_count", pc.rmw_count.load());
  gauge("pmem.media_bytes_written", pc.media_bytes_written.load());
  gauge("pmem.bytes_received", pc.bytes_received.load());
  gauge("pmem.nt_bytes", pc.nt_bytes_received.load());
  gauge("pmem.write_amplification", pc.WriteAmplification());
  gauge("pmem.write_hit_ratio", pc.WriteHitRatio());
  gauge("pmem.injected_ns", env_->latency()->total_injected_ns());
  const CacheStats& cs = env_->cache()->stats();
  gauge("cache.clwb_lines", cs.clwb_lines.load());
  gauge("cache.fences", cs.fences.load());
  gauge("cache.dirty_evictions", cs.dirty_evictions.load());
  return metrics_.Snapshot();
}

void DB::DumpMetrics(std::string* out) {
  JsonValue json;
  GetMetricsSnapshot().ToJson(&json);
  json.Write(out);
}

Status DB::WaitIdle() {
  // Timed waits throughout: the workers do not signal while sleeping in
  // a retry backoff, and the predicate must also observe a background
  // error raised by the other thread.
  {
    std::unique_lock<std::mutex> lock(flush_mu_);
    while ((!flush_queue_.empty() || flushes_in_flight_ > 0) &&
           !bg_errors_.read_only()) {
      flush_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  Status s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  {
    std::unique_lock<std::mutex> lock(index_mu_);
    while ((!sync_queue_.empty() || compaction_requested_ ||
            index_work_in_flight_ > 0) &&
           !bg_errors_.read_only()) {
      index_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  return engine_->WaitForCompactions();
}

Status DB::BackgroundError() {
  Status s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  return engine_->BackgroundError();
}

}  // namespace cachekv
