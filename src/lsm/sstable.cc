#include "lsm/sstable.h"

#include <cassert>

#include "util/coding.h"
#include "util/hash.h"

namespace cachekv {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset) && GetVarint64(input, &size)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  filter_handle.EncodeTo(dst);
  index_handle.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);
  PutFixed64(dst, kMagic);
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint64_t magic = DecodeFixed64(magic_ptr);
  if (magic != kMagic) {
    return Status::Corruption("bad table magic number");
  }
  Slice handles(input->data(), kEncodedLength - 8);
  Status s = filter_handle.DecodeFrom(&handles);
  if (s.ok()) {
    s = index_handle.DecodeFrom(&handles);
  }
  return s;
}

SSTableBuilder::SSTableBuilder(const SSTableOptions& options)
    : options_(options),
      bloom_(options.bloom_bits_per_key),
      data_block_(options.restart_interval),
      index_block_(1) {}

void SSTableBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!finished_);
  if (num_entries_ == 0) {
    smallest_key_.assign(internal_key.data(), internal_key.size());
  }
  largest_key_.assign(internal_key.data(), internal_key.size());

  if (pending_index_entry_) {
    // First key of a new block: emit the previous block's index entry.
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(pending_index_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  user_keys_.push_back(ExtractUserKey(internal_key).ToString());
  data_block_.Add(internal_key, value);
  num_entries_++;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void SSTableBuilder::FlushDataBlock() {
  if (data_block_.empty()) {
    return;
  }
  Slice raw = data_block_.Finish();
  pending_handle_.offset = buffer_.size();
  pending_handle_.size = raw.size();
  buffer_.append(raw.data(), raw.size());
  // Per-block checksum, verified on every read.
  PutFixed32(&buffer_, Checksum(raw.data(), raw.size()));
  data_block_.Reset();
  pending_index_key_ = largest_key_;
  pending_index_entry_ = true;
}

Status SSTableBuilder::Finish() {
  assert(!finished_);
  FlushDataBlock();
  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(pending_index_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }
  finished_ = true;

  Footer footer;

  // Bloom filter over all user keys.
  {
    std::vector<Slice> key_slices;
    key_slices.reserve(user_keys_.size());
    for (const auto& k : user_keys_) {
      key_slices.emplace_back(k);
    }
    std::string filter;
    bloom_.CreateFilter(key_slices, &filter);
    footer.filter_handle.offset = buffer_.size();
    footer.filter_handle.size = filter.size();
    buffer_.append(filter);
    PutFixed32(&buffer_, Checksum(filter.data(), filter.size()));
  }

  // Index block.
  {
    Slice raw = index_block_.Finish();
    footer.index_handle.offset = buffer_.size();
    footer.index_handle.size = raw.size();
    buffer_.append(raw.data(), raw.size());
    PutFixed32(&buffer_, Checksum(raw.data(), raw.size()));
  }

  footer.EncodeTo(&buffer_);
  return Status::OK();
}

uint64_t SSTableBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + data_block_.CurrentSizeEstimate() +
         index_block_.CurrentSizeEstimate() + user_keys_.size() * 2 +
         Footer::kEncodedLength;
}

SSTableReader::SSTableReader(PmemEnv* env, uint64_t region_offset,
                             uint64_t size)
    : env_(env), region_offset_(region_offset), size_(size), bloom_(10) {}

Status SSTableReader::ReadBlockContents(const BlockHandle& handle,
                                        std::string* contents) const {
  if (handle.offset + handle.size + 4 > size_) {
    return Status::Corruption("block handle out of table bounds");
  }
  contents->resize(handle.size);
  env_->Load(region_offset_ + handle.offset, contents->data(), handle.size);
  char crc_buf[4];
  env_->Load(region_offset_ + handle.offset + handle.size, crc_buf, 4);
  if (Checksum(contents->data(), contents->size()) !=
      DecodeFixed32(crc_buf)) {
    return Status::Corruption("block checksum mismatch");
  }
  return Status::OK();
}

Status SSTableReader::Open(PmemEnv* env, uint64_t region_offset,
                           uint64_t size,
                           std::unique_ptr<SSTableReader>* reader) {
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("table too short for footer");
  }
  std::unique_ptr<SSTableReader> t(
      new SSTableReader(env, region_offset, size));

  std::string footer_bytes(Footer::kEncodedLength, '\0');
  env->Load(region_offset + size - Footer::kEncodedLength,
            footer_bytes.data(), Footer::kEncodedLength);
  Slice footer_input(footer_bytes);
  Footer footer;
  Status s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) {
    return s;
  }

  std::string index_contents;
  s = t->ReadBlockContents(footer.index_handle, &index_contents);
  if (!s.ok()) {
    return s;
  }
  t->index_block_ = std::make_unique<Block>(std::move(index_contents));

  s = t->ReadBlockContents(footer.filter_handle, &t->filter_data_);
  if (!s.ok()) {
    return s;
  }

  *reader = std::move(t);
  return Status::OK();
}

Status SSTableReader::InternalGet(const Slice& internal_key,
                                  ParsedInternalKey* parsed,
                                  std::string* key_storage,
                                  std::string* value,
                                  bool* bloom_negative) {
  if (bloom_negative != nullptr) {
    *bloom_negative = false;
  }
  const Slice user_key = ExtractUserKey(internal_key);
  if (!bloom_.KeyMayMatch(user_key, Slice(filter_data_))) {
    if (bloom_negative != nullptr) {
      *bloom_negative = true;
    }
    return Status::NotFound("bloom miss");
  }

  std::unique_ptr<Iterator> index_iter(
      index_block_->NewIterator(&comparator_));
  index_iter->Seek(internal_key);
  if (!index_iter->Valid()) {
    return Status::NotFound("past last block");
  }
  BlockHandle handle;
  Slice handle_value = index_iter->value();
  Status s = handle.DecodeFrom(&handle_value);
  if (!s.ok()) {
    return s;
  }
  std::string block_contents;
  s = ReadBlockContents(handle, &block_contents);
  if (!s.ok()) {
    return s;
  }
  Block block(std::move(block_contents));
  std::unique_ptr<Iterator> block_iter(block.NewIterator(&comparator_));
  block_iter->Seek(internal_key);
  if (!block_iter->Valid()) {
    return Status::NotFound("not in block");
  }
  ParsedInternalKey found;
  if (!ParseInternalKey(block_iter->key(), &found)) {
    return Status::Corruption("bad internal key in table");
  }
  if (found.user_key != user_key) {
    return Status::NotFound("different user key");
  }
  key_storage->assign(block_iter->key().data(), block_iter->key().size());
  if (!ParseInternalKey(Slice(*key_storage), parsed)) {
    return Status::Corruption("bad internal key in table");
  }
  value->assign(block_iter->value().data(), block_iter->value().size());
  return Status::OK();
}

// Two-level iterator: walks the index block and lazily opens data blocks.
class SSTableReader::TableIterator : public Iterator {
 public:
  explicit TableIterator(const SSTableReader* table)
      : table_(table),
        index_iter_(table->index_block_->NewIterator(&table->comparator_)) {}

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (block_iter_ != nullptr) {
      block_iter_->SeekToFirst();
    }
    SkipEmptyBlocksForward();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (block_iter_ != nullptr) {
      block_iter_->Seek(target);
    }
    SkipEmptyBlocksForward();
  }

  void Next() override {
    assert(Valid());
    block_iter_->Next();
    SkipEmptyBlocksForward();
  }

  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }

  Status status() const override {
    if (!status_.ok()) return status_;
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (block_iter_ != nullptr && !block_iter_->status().ok()) {
      return block_iter_->status();
    }
    return Status::OK();
  }

 private:
  void InitDataBlock() {
    block_.reset();
    block_iter_.reset();
    if (!index_iter_->Valid()) {
      return;
    }
    BlockHandle handle;
    Slice handle_value = index_iter_->value();
    Status s = handle.DecodeFrom(&handle_value);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    std::string contents;
    s = table_->ReadBlockContents(handle, &contents);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    block_ = std::make_unique<Block>(std::move(contents));
    block_iter_.reset(block_->NewIterator(&table_->comparator_));
  }

  void SkipEmptyBlocksForward() {
    while (block_iter_ == nullptr || !block_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        block_.reset();
        block_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (block_iter_ != nullptr) {
        block_iter_->SeekToFirst();
      }
    }
  }

  const SSTableReader* table_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Block> block_;
  std::unique_ptr<Iterator> block_iter_;
  Status status_;
};

Iterator* SSTableReader::NewIterator() const {
  return new TableIterator(this);
}

}  // namespace cachekv
