#include "lsm/merger.h"

#include <algorithm>

namespace cachekv {

namespace {

class MergingIterator : public Iterator {
 public:
  MergingIterator(const InternalKeyComparator* comparator,
                  std::vector<Iterator*> children)
      : comparator_(comparator), current_(nullptr) {
    children_.reserve(children.size());
    for (Iterator* child : children) {
      children_.emplace_back(child);
    }
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) {
      child->SeekToFirst();
    }
    FindSmallest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) {
      child->Seek(target);
    }
    FindSmallest();
  }

  void Next() override {
    current_->Next();
    FindSmallest();
  }

  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (child->Valid()) {
        if (smallest == nullptr ||
            comparator_->Compare(child->key(), smallest->key()) < 0) {
          smallest = child.get();
        }
      }
    }
    current_ = smallest;
  }

  const InternalKeyComparator* comparator_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_;
};

class DedupingIterator : public Iterator {
 public:
  DedupingIterator(Iterator* base, std::vector<SequenceNumber> snapshots,
                   RetainedEntryFn on_retain)
      : base_(base),
        snapshots_(std::move(snapshots)),
        on_retain_(std::move(on_retain)) {}

  bool Valid() const override { return base_->Valid(); }

  void SeekToFirst() override {
    base_->SeekToFirst();
    has_last_ = false;
    RememberCurrent();
  }

  void Seek(const Slice& target) override {
    base_->Seek(target);
    has_last_ = false;
    RememberCurrent();
  }

  void Next() override {
    while (true) {
      base_->Next();
      if (!base_->Valid()) {
        return;
      }
      Slice user_key = ExtractUserKey(base_->key());
      if (!has_last_ || Slice(last_user_key_) != user_key) {
        RememberCurrent();
        return;
      }
      // A superseded version survives when a pinned snapshot falls
      // between it and the immediately-newer version: that snapshot
      // still resolves this entry. prev_seq_ tracks the newer version
      // whether or not it was retained (dropping it proved no snapshot
      // lies in its stratum, so the visibility windows stay exact).
      SequenceNumber seq = ExtractTrailer(base_->key()) >> 8;
      bool retain = SnapshotInStratum(snapshots_, seq, prev_seq_);
      prev_seq_ = seq;
      if (retain) {
        if (on_retain_ != nullptr) {
          on_retain_(base_->key(), base_->value());
        }
        return;
      }
    }
  }

  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  void RememberCurrent() {
    if (base_->Valid()) {
      Slice user_key = ExtractUserKey(base_->key());
      last_user_key_.assign(user_key.data(), user_key.size());
      prev_seq_ = ExtractTrailer(base_->key()) >> 8;
      has_last_ = true;
    }
  }

  std::unique_ptr<Iterator> base_;
  std::vector<SequenceNumber> snapshots_;  // sorted ascending
  RetainedEntryFn on_retain_;
  std::string last_user_key_;
  SequenceNumber prev_seq_ = kMaxSequenceNumber;
  bool has_last_ = false;
};

class SnapshotFilterIterator : public Iterator {
 public:
  SnapshotFilterIterator(Iterator* base, SequenceNumber snapshot)
      : base_(base), snapshot_(snapshot) {}

  bool Valid() const override { return base_->Valid(); }

  void SeekToFirst() override {
    base_->SeekToFirst();
    SkipInvisible();
  }

  void Seek(const Slice& target) override {
    base_->Seek(target);
    SkipInvisible();
  }

  void Next() override {
    base_->Next();
    SkipInvisible();
  }

  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  void SkipInvisible() {
    while (base_->Valid() &&
           (ExtractTrailer(base_->key()) >> 8) > snapshot_) {
      base_->Next();
    }
  }

  std::unique_ptr<Iterator> base_;
  const SequenceNumber snapshot_;
};

class UserKeyIterator : public Iterator {
 public:
  UserKeyIterator(Iterator* base, ValueResolverFn resolver)
      : base_(base), resolver_(std::move(resolver)) {}

  bool Valid() const override {
    return resolve_status_.ok() && base_->Valid();
  }

  void SeekToFirst() override {
    base_->SeekToFirst();
    SkipTombstones();
  }

  void Seek(const Slice& user_key) override {
    std::string target;
    AppendInternalKey(&target, user_key, kMaxSequenceNumber,
                      kValueTypeForSeek);
    base_->Seek(Slice(target));
    SkipTombstones();
  }

  void Next() override {
    base_->Next();
    SkipTombstones();
  }

  Slice key() const override { return ExtractUserKey(base_->key()); }
  Slice value() const override {
    return resolved_ ? Slice(resolved_value_) : base_->value();
  }
  Status status() const override {
    return resolve_status_.ok() ? base_->status() : resolve_status_;
  }

 private:
  void SkipTombstones() {
    resolved_ = false;
    while (base_->Valid()) {
      ParsedInternalKey parsed;
      if (ParseInternalKey(base_->key(), &parsed) &&
          parsed.type != kTypeDeletion) {
        if (parsed.type == kTypeValuePointer && resolver_ != nullptr) {
          resolve_status_ = resolver_(base_->key(), base_->value(),
                                      &resolved_value_);
          resolved_ = resolve_status_.ok();
        }
        return;
      }
      base_->Next();
    }
  }

  std::unique_ptr<Iterator> base_;
  ValueResolverFn resolver_;
  std::string resolved_value_;
  bool resolved_ = false;
  Status resolve_status_;
};

}  // namespace

bool SnapshotInStratum(const std::vector<SequenceNumber>& snapshots,
                       SequenceNumber seq, SequenceNumber prev_seq) {
  // First pinned snapshot at or above this version's sequence; it pins
  // the version iff it also predates the immediately-newer version.
  auto it = std::lower_bound(snapshots.begin(), snapshots.end(), seq);
  return it != snapshots.end() && *it < prev_seq;
}

Iterator* NewDedupingIterator(Iterator* base,
                              std::vector<SequenceNumber> snapshots,
                              RetainedEntryFn on_retain) {
  return new DedupingIterator(base, std::move(snapshots),
                              std::move(on_retain));
}

Iterator* NewSnapshotFilterIterator(Iterator* base,
                                    SequenceNumber snapshot) {
  return new SnapshotFilterIterator(base, snapshot);
}

Iterator* NewUserKeyIterator(Iterator* base, ValueResolverFn resolver) {
  return new UserKeyIterator(base, std::move(resolver));
}

Iterator* NewMergingIterator(const InternalKeyComparator* comparator,
                             std::vector<Iterator*> children) {
  if (children.empty()) {
    return NewEmptyIterator();
  }
  if (children.size() == 1) {
    return children[0];
  }
  return new MergingIterator(comparator, std::move(children));
}

}  // namespace cachekv
