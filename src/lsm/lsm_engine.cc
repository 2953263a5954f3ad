#include "lsm/lsm_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "fault/fail_point.h"
#include "lsm/merger.h"
#include "pmem/meta_layout.h"

namespace cachekv {

LsmEngine::LsmEngine(PmemEnv* env, const LsmOptions& options,
                     uint64_t manifest_base, obs::MetricsRegistry* metrics,
                     obs::Tracer* trace)
    : env_(env),
      options_(options),
      metrics_(metrics),
      trace_(trace),
      manifest_(env, manifest_base, MetaLayout::kManifestSlotSize),
      compact_cursor_(options.num_levels, 0) {
  if (metrics_ != nullptr) {
    bloom_checks_ = metrics_->GetCounter("lsm.bloom_checks");
    bloom_negatives_ = metrics_->GetCounter("lsm.bloom_negatives");
    bloom_false_positives_ =
        metrics_->GetCounter("lsm.bloom_false_positives");
    snap_retained_bytes_ = metrics_->GetCounter("snap.retained_bytes");
  }
  auto v = std::make_shared<Version>();
  v->levels.resize(options_.num_levels);
  current_ = v;
}

LsmEngine::~LsmEngine() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    work_cv_.notify_all();
  }
  if (bg_thread_.joinable()) {
    bg_thread_.join();
  }
}

Status LsmEngine::Open(bool recover) {
  if (recover) {
    ManifestState state;
    Status s = manifest_.Recover(&state);
    if (s.ok()) {
      auto v = std::make_shared<Version>();
      v->levels.resize(options_.num_levels);
      if (static_cast<int>(state.levels.size()) > options_.num_levels) {
        return Status::Corruption("manifest has more levels than engine");
      }
      for (size_t l = 0; l < state.levels.size(); l++) {
        for (const FileMeta& meta : state.levels[l]) {
          Status rs = env_->allocator()->Reserve(meta.region_offset,
                                                 meta.region_size);
          if (!rs.ok()) {
            return rs;
          }
          TableRef table;
          rs = OpenTable(meta, &table);
          if (!rs.ok()) {
            return rs;
          }
          v->levels[l].push_back(std::move(table));
        }
      }
      // Restore L0 newest-first and L1+ sorted-by-smallest invariants.
      std::sort(v->levels[0].begin(), v->levels[0].end(),
                [](const TableRef& a, const TableRef& b) {
                  return a->meta.number > b->meta.number;
                });
      for (int l = 1; l < options_.num_levels; l++) {
        std::sort(v->levels[l].begin(), v->levels[l].end(),
                  [this](const TableRef& a, const TableRef& b) {
                    return icmp_.Compare(Slice(a->meta.smallest),
                                         Slice(b->meta.smallest)) < 0;
                  });
      }
      std::unique_lock<std::mutex> lock(mu_);
      current_ = v;
      next_file_number_ = state.next_file_number;
      manifest_epoch_ = state.epoch;
      last_sequence_.store(state.last_sequence,
                           std::memory_order_release);
    } else if (!s.IsNotFound()) {
      return s;
    }
  } else {
    manifest_.Clear();
  }
  if (options_.background_compaction && !bg_thread_.joinable()) {
    bg_thread_ = std::thread(&LsmEngine::BackgroundWork, this);
  }
  return Status::OK();
}

uint64_t LsmEngine::MaxBytesForLevel(int level) const {
  uint64_t limit = options_.base_level_bytes;
  for (int l = 1; l < level; l++) {
    limit *= static_cast<uint64_t>(options_.level_size_multiplier);
  }
  return limit;
}

void LsmEngine::EnsureLastSequenceAtLeast(SequenceNumber seq) {
  uint64_t cur = last_sequence_.load(std::memory_order_relaxed);
  while (seq > cur && !last_sequence_.compare_exchange_weak(
                          cur, seq, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

Status LsmEngine::OpenTable(const FileMeta& meta, TableRef* out) {
  std::unique_ptr<SSTableReader> reader;
  Status s = SSTableReader::Open(env_, meta.region_offset, meta.file_size,
                                 &reader);
  if (!s.ok()) {
    return s;
  }
  *out = std::make_shared<TableHandle>(env_, meta, std::move(reader));
  return Status::OK();
}

Status LsmEngine::BuildTables(Iterator* iter, std::vector<TableRef>* outputs,
                              bool is_compaction,
                              const std::vector<SequenceNumber>& snapshots) {
  std::unique_ptr<SSTableBuilder> builder;
  std::string last_user_key;
  bool has_last_user_key = false;
  // Sequence of the immediately-newer version of the current user key,
  // kept or dropped (the stratum bound of SnapshotInStratum).
  SequenceNumber prev_seq = kMaxSequenceNumber;

  auto finish_current = [&]() -> Status {
    if (builder == nullptr || builder->NumEntries() == 0) {
      builder.reset();
      return Status::OK();
    }
    Status s = builder->Finish();
    if (!s.ok()) {
      return s;
    }
    const std::string& contents = builder->contents();
    uint64_t region_size = AlignUp(contents.size(), kXPLineSize);
    uint64_t region_offset = 0;
    s = env_->allocator()->Allocate(region_size, &region_offset);
    if (!s.ok()) {
      return s;
    }
    // Copy-out to PMem in one large non-temporal write: the whole table
    // streams through the XPBuffer with no write amplification.
    env_->NtStore(region_offset, contents.data(), contents.size());
    env_->Sfence();

    FileMeta meta;
    {
      std::unique_lock<std::mutex> lock(mu_);
      meta.number = next_file_number_++;
    }
    meta.region_offset = region_offset;
    meta.file_size = contents.size();
    meta.region_size = region_size;
    meta.smallest = builder->smallest_key();
    meta.largest = builder->largest_key();
    builder.reset();
    TableRef table;
    s = OpenTable(meta, &table);
    if (!s.ok()) {
      env_->allocator()->Free(region_offset, region_size);
      return s;
    }
    outputs->push_back(std::move(table));
    return Status::OK();
  };

  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("bad internal key in flush stream");
    }
    EnsureLastSequenceAtLeast(parsed.sequence);

    if (is_compaction) {
      // The freshest version of a user key shadows everything older; the
      // merge stream yields equal user keys newest-first, so only the
      // first occurrence survives — unless a pinned snapshot falls
      // between an older version and its immediately-newer one, in which
      // case that snapshot still resolves the older version and it must
      // ride along (docs/SNAPSHOTS.md).
      if (has_last_user_key &&
          Slice(last_user_key) == parsed.user_key) {
        const bool retain =
            SnapshotInStratum(snapshots, parsed.sequence, prev_seq);
        prev_seq = parsed.sequence;
        if (!retain) {
          continue;
        }
        if (snap_retained_bytes_ != nullptr) {
          snap_retained_bytes_->fetch_add(iter->key().size() +
                                          iter->value().size());
        }
      } else {
        last_user_key.assign(parsed.user_key.data(),
                             parsed.user_key.size());
        has_last_user_key = true;
        prev_seq = parsed.sequence;
        // A freshest tombstone is kept even at the base level: per-core
        // tables reach L0 out of sequence order, so an older version of
        // the key may still be on its way from a memory component.
      }
    }

    // Never split two versions of the same user key across files.
    if (builder != nullptr &&
        builder->CurrentSizeEstimate() >= options_.target_file_size &&
        ExtractUserKey(Slice(builder->largest_key()))
                .compare(parsed.user_key) != 0) {
      Status s = finish_current();
      if (!s.ok()) {
        return s;
      }
    }
    if (builder == nullptr) {
      builder = std::make_unique<SSTableBuilder>(options_.table_options);
    }
    builder->Add(iter->key(), iter->value());
  }
  Status s = iter->status();
  if (!s.ok()) {
    return s;
  }
  return finish_current();
}

Status LsmEngine::InstallVersion(std::shared_ptr<Version> next,
                                 std::unique_lock<std::mutex>* lock) {
  assert(lock->owns_lock());
  (void)lock;
  ManifestState state;
  state.epoch = manifest_epoch_;
  state.next_file_number = next_file_number_;
  state.last_sequence = last_sequence_.load(std::memory_order_acquire);
  state.levels.resize(next->levels.size());
  for (size_t l = 0; l < next->levels.size(); l++) {
    for (const TableRef& t : next->levels[l]) {
      state.levels[l].push_back(t->meta);
    }
  }
  Status s = manifest_.Write(&state);
  if (!s.ok()) {
    return s;
  }
  manifest_epoch_ = state.epoch;
  current_ = std::move(next);
  return Status::OK();
}

Status LsmEngine::WriteL0Tables(Iterator* iter) {
  OBS_SPAN(metrics_, "lsm.write_l0");
  obs::TraceScope trace(trace_, "lsm.write_l0");
  CACHEKV_FAIL_POINT("lsm.write_l0");
  // Failure paths below drop `outputs`; TableHandle's destructor frees
  // the backing regions, so nothing not yet installed in a version leaks.
  std::vector<TableRef> outputs;
  Status s = BuildTables(iter, &outputs, /*is_compaction=*/false);
  if (!s.ok()) {
    return s;
  }
  if (outputs.empty()) {
    return Status::OK();
  }
  uint64_t output_bytes = 0;
  for (const TableRef& t : outputs) {
    output_bytes += t->meta.file_size;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("lsm.l0_bytes_written")->fetch_add(output_bytes);
  }
  trace.AddArg("tables", outputs.size());
  trace.AddArg("bytes", output_bytes);
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto next = std::make_shared<Version>(*current_);
    // Newest first: the files we just built carry the freshest data.
    std::sort(outputs.begin(), outputs.end(),
              [](const TableRef& a, const TableRef& b) {
                return a->meta.number > b->meta.number;
              });
    next->levels[0].insert(next->levels[0].begin(), outputs.begin(),
                           outputs.end());
    s = InstallVersion(std::move(next), &lock);
    if (!s.ok()) {
      return s;
    }
  }
  if (options_.background_compaction) {
    MaybeScheduleCompaction();
  } else {
    int level;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!NeedsCompaction(*current_, &level)) {
          break;
        }
      }
      s = CompactLevel(level);
      if (!s.ok()) {
        return s;
      }
    }
  }
  return Status::OK();
}

bool LsmEngine::NeedsCompaction(const Version& v, int* level) const {
  if (v.NumFiles(0) >= options_.l0_compaction_trigger) {
    *level = 0;
    return true;
  }
  for (int l = 1; l < options_.num_levels - 1; l++) {
    if (v.LevelBytes(l) > MaxBytesForLevel(l)) {
      *level = l;
      return true;
    }
  }
  return false;
}

void LsmEngine::MaybeScheduleCompaction() {
  std::unique_lock<std::mutex> lock(mu_);
  int level;
  if (!compaction_pending_ && NeedsCompaction(*current_, &level)) {
    compaction_pending_ = true;
    work_cv_.notify_one();
  }
}

void LsmEngine::BackgroundWork() {
  if (trace_ != nullptr) {
    trace_->SetThreadName("lsm-compaction");
  }
  std::unique_lock<std::mutex> lock(mu_);
  int attempt = 0;
  while (true) {
    while (!shutting_down_ && !compaction_pending_) {
      work_cv_.wait(lock);
    }
    if (shutting_down_) {
      return;
    }
    int level;
    if (!NeedsCompaction(*current_, &level)) {
      compaction_pending_ = false;
      attempt = 0;
      idle_cv_.notify_all();
      continue;
    }
    compaction_running_ = true;
    lock.unlock();
    Status s = CompactLevel(level);
    lock.lock();
    compaction_running_ = false;
    if (!s.ok()) {
      // Transient failures (I/O, allocator pressure) are retried with
      // capped exponential backoff; corruption-class failures and an
      // exhausted budget park the error for WaitForCompactions() /
      // BackgroundError().
      const bool transient = !s.IsCorruption() && !s.IsInvalidArgument() &&
                             !s.IsNotSupported();
      if (transient && attempt < options_.max_bg_retries) {
        if (metrics_ != nullptr) {
          metrics_->GetCounter("lsm.bg_retries")->Increment();
        }
        uint64_t ms = options_.bg_backoff_base_ms;
        for (int i = 0; i < attempt && ms < options_.bg_backoff_max_ms;
             i++) {
          ms *= 2;
        }
        if (ms > options_.bg_backoff_max_ms) ms = options_.bg_backoff_max_ms;
        attempt++;
        work_cv_.wait_for(lock, std::chrono::milliseconds(ms == 0 ? 1 : ms),
                          [this] { return shutting_down_; });
        continue;  // compaction_pending_ is still set
      }
      bg_error_ = s;
      compaction_pending_ = false;
      attempt = 0;
      idle_cv_.notify_all();
      continue;
    }
    attempt = 0;
    int next_level;
    compaction_pending_ = NeedsCompaction(*current_, &next_level);
    if (!compaction_pending_) {
      idle_cv_.notify_all();
    }
  }
}

Status LsmEngine::WaitForCompactions() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!options_.background_compaction) {
    return bg_error_;
  }
  // Kick the worker in case state changed without a schedule call.
  int level;
  if (NeedsCompaction(*current_, &level)) {
    compaction_pending_ = true;
    work_cv_.notify_one();
  }
  while (compaction_pending_ || compaction_running_) {
    idle_cv_.wait(lock);
  }
  return bg_error_;
}

Status LsmEngine::CompactLevel(int level) {
  OBS_SPAN(metrics_, "lsm.compact");
  obs::TraceScope trace(trace_, "lsm.compact");
  CACHEKV_FAIL_POINT("lsm.compact");
  trace.AddArg("level", static_cast<uint64_t>(level));
  if (metrics_ != nullptr) {
    metrics_->GetCounter("lsm.compactions")->Increment();
  }
  // Pinned snapshots, captured once at pass start. Safe against racing
  // pins: a snapshot taken after this point has a sequence >= the
  // engine's LastSequence(), which is >= every entry in the inputs, so
  // it sees the freshest version of each key — which the dedup keeps
  // unconditionally.
  std::vector<SequenceNumber> snapshots;
  if (snapshot_provider_) {
    snapshots = snapshot_provider_();
  }
  // Phase 1 (under lock): pick inputs from the current version.
  std::vector<TableRef> inputs_this, inputs_next;
  VersionRef base;
  {
    std::unique_lock<std::mutex> lock(mu_);
    base = current_;
    const auto& files = base->levels[level];
    if (files.empty()) {
      return Status::OK();
    }
    if (level == 0) {
      // All L0 files participate (they may mutually overlap).
      inputs_this = files;
    } else {
      // Round-robin pick one file.
      uint64_t idx = compact_cursor_[level] % files.size();
      compact_cursor_[level]++;
      inputs_this.push_back(files[idx]);
    }
    // Key range of the inputs (user keys).
    Slice smallest = ExtractUserKey(Slice(inputs_this[0]->meta.smallest));
    Slice largest = ExtractUserKey(Slice(inputs_this[0]->meta.largest));
    for (const TableRef& t : inputs_this) {
      Slice s = ExtractUserKey(Slice(t->meta.smallest));
      Slice l = ExtractUserKey(Slice(t->meta.largest));
      if (s.compare(smallest) < 0) smallest = s;
      if (l.compare(largest) > 0) largest = l;
    }
    if (level + 1 < options_.num_levels) {
      for (const TableRef& t : base->levels[level + 1]) {
        Slice s = ExtractUserKey(Slice(t->meta.smallest));
        Slice l = ExtractUserKey(Slice(t->meta.largest));
        if (l.compare(smallest) >= 0 && s.compare(largest) <= 0) {
          inputs_next.push_back(t);
        }
      }
    }
  }
  const int output_level = std::min(level + 1, options_.num_levels - 1);
  trace.AddArg("tables", inputs_this.size() + inputs_next.size());

  // Phase 2 (no lock): merge and write the outputs. Fresher sources
  // first: L0 files are newest-first already; the next level is older
  // than this level.
  std::vector<Iterator*> children;
  for (const TableRef& t : inputs_this) {
    children.push_back(t->reader->NewIterator());
  }
  for (const TableRef& t : inputs_next) {
    children.push_back(t->reader->NewIterator());
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp_, std::move(children)));
  std::vector<TableRef> outputs;
  Status s = BuildTables(merged.get(), &outputs, /*is_compaction=*/true,
                         snapshots);
  if (!s.ok()) {
    return s;
  }
  if (metrics_ != nullptr) {
    uint64_t compact_bytes = 0;
    for (const TableRef& t : outputs) {
      compact_bytes += t->meta.file_size;
    }
    metrics_->GetCounter("lsm.compact_bytes_written")
        ->fetch_add(compact_bytes);
  }

  // Phase 3 (under lock): splice the tree. The current version may have
  // gained new L0 files meanwhile; remove exactly the inputs by number.
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto next = std::make_shared<Version>(*current_);
    auto remove_inputs = [](std::vector<TableRef>* files,
                            const std::vector<TableRef>& inputs) {
      files->erase(
          std::remove_if(files->begin(), files->end(),
                         [&](const TableRef& t) {
                           for (const TableRef& in : inputs) {
                             if (in->meta.number == t->meta.number) {
                               return true;
                             }
                           }
                           return false;
                         }),
          files->end());
    };
    remove_inputs(&next->levels[level], inputs_this);
    remove_inputs(&next->levels[output_level], inputs_next);
    auto& out_files = next->levels[output_level];
    out_files.insert(out_files.end(), outputs.begin(), outputs.end());
    std::sort(out_files.begin(), out_files.end(),
              [this](const TableRef& a, const TableRef& b) {
                return icmp_.Compare(Slice(a->meta.smallest),
                                     Slice(b->meta.smallest)) < 0;
              });
    s = InstallVersion(std::move(next), &lock);
  }
  return s;
}

Status LsmEngine::Get(const Slice& user_key, SequenceNumber snapshot,
                      std::string* value, bool* deleted,
                      SequenceNumber* seq_out, ValueType* type_out) {
  *deleted = false;
  VersionRef v = CurrentVersion();
  std::string target;
  AppendInternalKey(&target, user_key, snapshot, kValueTypeForSeek);

  // Per-core sub-MemTables flush out of sequence order: a table holding
  // an old version of a key can reach L0 after a newer version of that
  // key was flushed, or even compacted to a deeper level. So no table
  // shadows another: every table that may hold the key is probed, and
  // the highest sequence answers.
  bool found = false;
  SequenceNumber best_seq = 0;
  ValueType best_type = kTypeValue;
  std::string candidate;
  auto check_table = [&](const TableRef& t) -> Status {
    // Range pre-filter on user keys.
    if (user_key.compare(ExtractUserKey(Slice(t->meta.smallest))) < 0 ||
        user_key.compare(ExtractUserKey(Slice(t->meta.largest))) > 0) {
      return Status::OK();
    }
    ParsedInternalKey parsed;
    std::string key_storage;
    bool bloom_negative = false;
    Status s = t->reader->InternalGet(Slice(target), &parsed, &key_storage,
                                      &candidate, &bloom_negative);
    if (bloom_checks_ != nullptr) {
      bloom_checks_->Increment();
      if (bloom_negative) {
        bloom_negatives_->Increment();
      } else if (s.IsNotFound()) {
        // The filter admitted the key but the table does not hold it.
        bloom_false_positives_->Increment();
      }
    }
    if (s.IsNotFound()) {
      return Status::OK();
    }
    if (s.ok() && (!found || parsed.sequence > best_seq)) {
      found = true;
      best_seq = parsed.sequence;
      best_type = parsed.type;
      value->swap(candidate);
    }
    return s;
  };

  for (const TableRef& t : v->levels[0]) {
    Status s = check_table(t);
    if (!s.ok()) {
      return s;
    }
  }
  // L1+: files are disjoint; binary search by range.
  for (size_t l = 1; l < v->levels.size(); l++) {
    const auto& files = v->levels[l];
    // First file whose largest user key >= user_key.
    size_t lo = 0, hi = files.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (ExtractUserKey(Slice(files[mid]->meta.largest))
              .compare(user_key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < files.size()) {
      Status s = check_table(files[lo]);
      if (!s.ok()) {
        return s;
      }
    }
  }
  if (!found) {
    return Status::NotFound("not in any table");
  }
  if (seq_out != nullptr) {
    *seq_out = best_seq;
  }
  if (best_type == kTypeDeletion) {
    *deleted = true;
    value->clear();
    return Status::NotFound("tombstone");
  }
  if (type_out != nullptr) {
    *type_out = best_type;
  }
  return Status::OK();
}

Iterator* LsmEngine::NewIterator() {
  VersionRef v = CurrentVersion();
  std::vector<Iterator*> children;
  for (const auto& level : v->levels) {
    for (const TableRef& t : level) {
      children.push_back(t->reader->NewIterator());
    }
  }
  // Keep the version alive as long as the iterator: wrap via a small
  // holder iterator.
  class VersionPinningIterator : public Iterator {
   public:
    VersionPinningIterator(Iterator* base, VersionRef version)
        : base_(base), version_(std::move(version)) {}
    bool Valid() const override { return base_->Valid(); }
    void SeekToFirst() override { base_->SeekToFirst(); }
    void Seek(const Slice& target) override { base_->Seek(target); }
    void Next() override { base_->Next(); }
    Slice key() const override { return base_->key(); }
    Slice value() const override { return base_->value(); }
    Status status() const override { return base_->status(); }

   private:
    std::unique_ptr<Iterator> base_;
    VersionRef version_;
  };
  return new VersionPinningIterator(
      NewMergingIterator(&icmp_, std::move(children)), v);
}

int LsmEngine::NumFiles(int level) const {
  VersionRef v = CurrentVersion();
  return v->NumFiles(level);
}

uint64_t LsmEngine::TotalTableBytes() const {
  VersionRef v = CurrentVersion();
  uint64_t total = 0;
  for (size_t l = 0; l < v->levels.size(); l++) {
    total += v->LevelBytes(static_cast<int>(l));
  }
  return total;
}

VersionRef LsmEngine::CurrentVersion() const {
  std::unique_lock<std::mutex> lock(mu_);
  return current_;
}

}  // namespace cachekv
