#ifndef CACHEKV_TESTS_TEST_UTIL_H_
#define CACHEKV_TESTS_TEST_UTIL_H_

// Helpers shared by the test suites.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "vlog/vlog_gc.h"

namespace cachekv {

/// Concatenates strings and integers: Cat("k", 7, "-", 2) is "k7-2".
/// Tests build keys and values with it instead of
/// `"k" + std::to_string(i)`, whose inlined string insert GCC 12 at -O3
/// misreports under -Wrestrict.
inline void AppendPart(std::string* out, std::string_view part) {
  out->append(part);
}
inline void AppendPart(std::string* out, std::integral auto part) {
  out->append(std::to_string(part));
}
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (AppendPart(&out, parts), ...);
  return out;
}

/// Calls `gc->CollectOnce()` on its own thread every `pause` until
/// destroyed, so each segment is collected soon after it seals: the GC
/// of a device under space pressure, without filling one.
class GcCollectorThread {
 public:
  explicit GcCollectorThread(VlogGc* gc, std::chrono::milliseconds pause =
                                             std::chrono::milliseconds(1))
      : thread_([this, gc, pause] {
          while (!stop_.load(std::memory_order_acquire)) {
            gc->CollectOnce();
            std::this_thread::sleep_for(pause);
          }
        }) {}
  ~GcCollectorThread() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// An in-memory run of entries kept in internal-key order: the sorted
/// stream a memory component hands to LsmEngine::WriteL0Tables and to
/// the merging iterators.
class SortedRun {
 public:
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value) {
    std::string key;
    AppendInternalKey(&key, user_key, seq, type);
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), key,
        [](const std::string& k, const Entry& e) {
          return InternalKeyComparator().Compare(k, e.first) < 0;
        });
    entries_.insert(pos, Entry(std::move(key), value.ToString()));
  }

  /// The run must outlive the iterator and take no Add meanwhile.
  Iterator* NewIterator() const { return new Iter(&entries_); }

 private:
  using Entry = std::pair<std::string, std::string>;

  class Iter : public Iterator {
   public:
    explicit Iter(const std::vector<Entry>* entries)
        : entries_(entries), pos_(entries->size()) {}

    bool Valid() const override { return pos_ < entries_->size(); }
    void SeekToFirst() override { pos_ = 0; }
    void Seek(const Slice& target) override {
      pos_ = std::lower_bound(entries_->begin(), entries_->end(), target,
                              [](const Entry& e, const Slice& t) {
                                return InternalKeyComparator().Compare(
                                           e.first, t) < 0;
                              }) -
             entries_->begin();
    }
    void Next() override { pos_++; }
    Slice key() const override { return (*entries_)[pos_].first; }
    Slice value() const override { return (*entries_)[pos_].second; }
    Status status() const override { return Status::OK(); }

   private:
    const std::vector<Entry>* entries_;
    size_t pos_;
  };

  std::vector<Entry> entries_;
};

}  // namespace cachekv

#endif  // CACHEKV_TESTS_TEST_UTIL_H_
