#include "index/pmem_bptree.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "util/coding.h"

namespace cachekv {

PmemBPlusTree::PmemBPlusTree(PmemEnv* env, uint64_t region_offset,
                             uint64_t region_size, FlushMode flush_mode)
    : env_(env),
      region_offset_(region_offset),
      region_size_(region_size),
      flush_mode_(flush_mode),
      cursor_(region_offset) {
  // root_ keeps its 0 initializer if the region cannot hold one node.
  Status s = AllocateNode(/*is_leaf=*/true, &root_);
  assert(s.ok());
  (void)s;
}

void PmemBPlusTree::MaybeFlush(uint64_t offset, uint64_t len) {
  if (flush_mode_ == FlushMode::kFlushEveryWrite) {
    env_->Clwb(offset, len);
    env_->Sfence();
  }
}

Status PmemBPlusTree::AllocateNode(bool is_leaf, uint64_t* offset) {
  if (cursor_ + kNodeSize > region_offset_ + region_size_) {
    return Status::OutOfSpace("bptree region full");
  }
  *offset = cursor_;
  cursor_ += kNodeSize;
  NodeRef node;
  node.offset = *offset;
  node.is_leaf = is_leaf;
  node.count = 0;
  node.next = 0;
  StoreHeader(node);
  return Status::OK();
}

PmemBPlusTree::NodeRef PmemBPlusTree::LoadHeader(uint64_t offset) const {
  char buf[kHeaderSize];
  env_->Load(offset, buf, kHeaderSize);
  NodeRef node;
  node.offset = offset;
  node.is_leaf = DecodeFixed32(buf) != 0;
  node.count = DecodeFixed32(buf + 4);
  node.next = DecodeFixed64(buf + 8);
  return node;
}

void PmemBPlusTree::StoreHeader(const NodeRef& node) {
  char buf[kHeaderSize];
  EncodeFixed32(buf, node.is_leaf ? 1 : 0);
  EncodeFixed32(buf + 4, node.count);
  EncodeFixed64(buf + 8, node.next);
  env_->Store(node.offset, buf, kHeaderSize);
  MaybeFlush(node.offset, kHeaderSize);
}

std::string PmemBPlusTree::LoadSlotKey(uint64_t node_offset,
                                       int slot) const {
  char buf[kMaxKeyLen];
  env_->Load(node_offset + kHeaderSize + slot * kSlotSize, buf,
             kMaxKeyLen);
  uint8_t len = static_cast<uint8_t>(buf[0]);
  assert(len < kMaxKeyLen);
  return std::string(buf + 1, len);
}

uint64_t PmemBPlusTree::LoadSlotValue(uint64_t node_offset,
                                      int slot) const {
  return env_->Load64(node_offset + kHeaderSize + slot * kSlotSize +
                      kMaxKeyLen);
}

void PmemBPlusTree::StoreSlot(uint64_t node_offset, int slot,
                              const Slice& key, uint64_t value) {
  char buf[kSlotSize];
  buf[0] = static_cast<char>(key.size());
  memcpy(buf + 1, key.data(), key.size());
  memset(buf + 1 + key.size(), 0, kMaxKeyLen - 1 - key.size());
  EncodeFixed64(buf + kMaxKeyLen, value);
  env_->Store(node_offset + kHeaderSize + slot * kSlotSize, buf,
              kSlotSize);
  MaybeFlush(node_offset + kHeaderSize + slot * kSlotSize, kSlotSize);
}

int PmemBPlusTree::LowerBound(const NodeRef& node,
                              const Slice& target) const {
  int lo = 0, hi = static_cast<int>(node.count);
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    std::string k = LoadSlotKey(node.offset, mid);
    if (Slice(k).compare(target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status PmemBPlusTree::Insert(const Slice& key, uint64_t locator,
                             uint64_t* previous, bool* replaced) {
  if (key.size() >= kMaxKeyLen) {
    return Status::NotSupported("bptree keys limited to 39 bytes");
  }
  if (replaced != nullptr) {
    *replaced = false;
  }
  uint64_t split_off = 0;
  std::string split_key;
  Status s = InsertRecursive(root_, key, locator, &split_off, &split_key,
                             previous, replaced);
  if (!s.ok()) {
    return s;
  }
  if (split_off != 0) {
    // Root split: grow the tree.
    uint64_t new_root;
    s = AllocateNode(/*is_leaf=*/false, &new_root);
    if (!s.ok()) {
      return s;
    }
    NodeRef root = LoadHeader(new_root);
    root.is_leaf = false;
    root.count = 1;
    root.next = root_;  // leftmost child
    StoreHeader(root);
    StoreSlot(new_root, 0, Slice(split_key), split_off);
    root_ = new_root;
    height_++;
  }
  return Status::OK();
}

Status PmemBPlusTree::InsertRecursive(uint64_t node_offset,
                                      const Slice& key, uint64_t locator,
                                      uint64_t* split_off,
                                      std::string* split_key,
                                      uint64_t* previous, bool* replaced) {
  *split_off = 0;
  NodeRef node = LoadHeader(node_offset);

  if (!node.is_leaf) {
    int idx = LowerBound(node, key);
    // Child to descend into: entries hold the smallest key of their
    // child; keys < entry[0].key go to the leftmost child (header.next).
    uint64_t child;
    if (idx < static_cast<int>(node.count) &&
        LoadSlotKey(node.offset, idx) == key.ToString()) {
      child = LoadSlotValue(node.offset, idx);
    } else if (idx == 0) {
      child = node.next;
    } else {
      child = LoadSlotValue(node.offset, idx - 1);
    }
    uint64_t child_split = 0;
    std::string child_split_key;
    Status s = InsertRecursive(child, key, locator, &child_split,
                               &child_split_key, previous, replaced);
    if (!s.ok() || child_split == 0) {
      return s;
    }
    // Insert the new child pointer at position `pos`.
    int pos = LowerBound(node, Slice(child_split_key));
    if (static_cast<int>(node.count) < kMaxEntries) {
      for (int i = static_cast<int>(node.count) - 1; i >= pos; i--) {
        StoreSlot(node.offset, i + 1, Slice(LoadSlotKey(node.offset, i)),
                  LoadSlotValue(node.offset, i));
      }
      StoreSlot(node.offset, pos, Slice(child_split_key), child_split);
      node.count++;
      StoreHeader(node);
      return Status::OK();
    }
    // Split this internal node. Gather entries (including the new one).
    std::vector<std::pair<std::string, uint64_t>> entries;
    entries.reserve(node.count + 1);
    for (int i = 0; i < static_cast<int>(node.count); i++) {
      entries.emplace_back(LoadSlotKey(node.offset, i),
                           LoadSlotValue(node.offset, i));
    }
    entries.emplace(entries.begin() + pos, child_split_key, child_split);
    const int mid = static_cast<int>(entries.size()) / 2;
    // entries[mid] is promoted: its key becomes the split key, its child
    // becomes the new right node's leftmost child.
    uint64_t right_off;
    s = AllocateNode(/*is_leaf=*/false, &right_off);
    if (!s.ok()) {
      return s;
    }
    NodeRef right = LoadHeader(right_off);
    right.is_leaf = false;
    right.next = entries[mid].second;
    right.count = static_cast<uint32_t>(entries.size() - mid - 1);
    for (size_t i = mid + 1; i < entries.size(); i++) {
      StoreSlot(right_off, static_cast<int>(i - mid - 1),
                Slice(entries[i].first), entries[i].second);
    }
    StoreHeader(right);
    node.count = static_cast<uint32_t>(mid);
    for (int i = 0; i < mid; i++) {
      StoreSlot(node.offset, i, Slice(entries[i].first),
                entries[i].second);
    }
    StoreHeader(node);
    *split_off = right_off;
    *split_key = entries[mid].first;
    return Status::OK();
  }

  // Leaf.
  int idx = LowerBound(node, key);
  if (idx < static_cast<int>(node.count) &&
      LoadSlotKey(node.offset, idx) == key.ToString()) {
    if (previous != nullptr) {
      *previous = LoadSlotValue(node.offset, idx);
    }
    if (replaced != nullptr) {
      *replaced = true;
    }
    StoreSlot(node.offset, idx, key, locator);  // update in place
    return Status::OK();
  }
  if (static_cast<int>(node.count) < kMaxEntries) {
    for (int i = static_cast<int>(node.count) - 1; i >= idx; i--) {
      StoreSlot(node.offset, i + 1, Slice(LoadSlotKey(node.offset, i)),
                LoadSlotValue(node.offset, i));
    }
    StoreSlot(node.offset, idx, key, locator);
    node.count++;
    StoreHeader(node);
    num_entries_++;
    return Status::OK();
  }
  // Split the leaf.
  std::vector<std::pair<std::string, uint64_t>> entries;
  entries.reserve(node.count + 1);
  for (int i = 0; i < static_cast<int>(node.count); i++) {
    entries.emplace_back(LoadSlotKey(node.offset, i),
                         LoadSlotValue(node.offset, i));
  }
  entries.emplace(entries.begin() + idx, key.ToString(), locator);
  const int mid = static_cast<int>(entries.size()) / 2;
  uint64_t right_off;
  Status s = AllocateNode(/*is_leaf=*/true, &right_off);
  if (!s.ok()) {
    return s;
  }
  NodeRef right = LoadHeader(right_off);
  right.is_leaf = true;
  right.next = node.next;
  right.count = static_cast<uint32_t>(entries.size() - mid);
  for (size_t i = mid; i < entries.size(); i++) {
    StoreSlot(right_off, static_cast<int>(i - mid),
              Slice(entries[i].first), entries[i].second);
  }
  StoreHeader(right);
  node.count = static_cast<uint32_t>(mid);
  node.next = right_off;
  for (int i = 0; i < mid; i++) {
    StoreSlot(node.offset, i, Slice(entries[i].first), entries[i].second);
  }
  StoreHeader(node);
  num_entries_++;
  *split_off = right_off;
  *split_key = entries[mid].first;
  return Status::OK();
}

Status PmemBPlusTree::Get(const Slice& key, uint64_t* locator) const {
  if (key.size() >= kMaxKeyLen) {
    return Status::NotSupported("bptree keys limited to 39 bytes");
  }
  uint64_t offset = root_;
  while (true) {
    NodeRef node = LoadHeader(offset);
    int idx = LowerBound(node, key);
    if (node.is_leaf) {
      if (idx < static_cast<int>(node.count) &&
          LoadSlotKey(node.offset, idx) == key.ToString()) {
        *locator = LoadSlotValue(node.offset, idx);
        return Status::OK();
      }
      return Status::NotFound("key not in bptree");
    }
    if (idx < static_cast<int>(node.count) &&
        LoadSlotKey(node.offset, idx) == key.ToString()) {
      offset = LoadSlotValue(node.offset, idx);
    } else if (idx == 0) {
      offset = node.next;
    } else {
      offset = LoadSlotValue(node.offset, idx - 1);
    }
  }
}

Status PmemBPlusTree::Delete(const Slice& key, uint64_t* previous) {
  if (key.size() >= kMaxKeyLen) {
    return Status::NotSupported("bptree keys limited to 39 bytes");
  }
  // Descend to the leaf holding the key.
  uint64_t offset = root_;
  while (true) {
    NodeRef node = LoadHeader(offset);
    int idx = LowerBound(node, key);
    if (node.is_leaf) {
      if (idx >= static_cast<int>(node.count) ||
          LoadSlotKey(node.offset, idx) != key.ToString()) {
        return Status::NotFound("key not in bptree");
      }
      if (previous != nullptr) {
        *previous = LoadSlotValue(node.offset, idx);
      }
      for (int i = idx; i + 1 < static_cast<int>(node.count); i++) {
        StoreSlot(node.offset, i, Slice(LoadSlotKey(node.offset, i + 1)),
                  LoadSlotValue(node.offset, i + 1));
      }
      node.count--;
      StoreHeader(node);
      num_entries_--;
      return Status::OK();
    }
    if (idx < static_cast<int>(node.count) &&
        LoadSlotKey(node.offset, idx) == key.ToString()) {
      offset = LoadSlotValue(node.offset, idx);
    } else if (idx == 0) {
      offset = node.next;
    } else {
      offset = LoadSlotValue(node.offset, idx - 1);
    }
  }
}

void PmemBPlusTree::Scan(
    const std::function<void(const Slice&, uint64_t)>& fn) const {
  // Walk down to the leftmost leaf, then follow the leaf chain.
  uint64_t offset = root_;
  while (true) {
    NodeRef node = LoadHeader(offset);
    if (node.is_leaf) {
      break;
    }
    offset = node.next;  // leftmost child
  }
  while (offset != 0) {
    NodeRef leaf = LoadHeader(offset);
    for (int i = 0; i < static_cast<int>(leaf.count); i++) {
      std::string k = LoadSlotKey(offset, i);
      fn(Slice(k), LoadSlotValue(offset, i));
    }
    offset = leaf.next;
  }
}

}  // namespace cachekv
