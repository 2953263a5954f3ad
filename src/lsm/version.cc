#include "lsm/version.h"

#include "fault/fail_point.h"
#include "util/coding.h"
#include "util/hash.h"

namespace cachekv {

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& t : levels[level]) {
    total += t->meta.file_size;
  }
  return total;
}

ManifestWriter::ManifestWriter(PmemEnv* env, uint64_t base,
                               uint64_t slot_size)
    : env_(env), base_(base), slot_size_(slot_size) {}

void ManifestWriter::Encode(const ManifestState& state, std::string* out) {
  std::string body;
  PutFixed64(&body, state.epoch);
  PutFixed64(&body, state.next_file_number);
  PutFixed64(&body, state.last_sequence);
  PutFixed32(&body, static_cast<uint32_t>(state.levels.size()));
  for (const auto& level : state.levels) {
    PutFixed32(&body, static_cast<uint32_t>(level.size()));
    for (const FileMeta& f : level) {
      PutFixed64(&body, f.number);
      PutFixed64(&body, f.region_offset);
      PutFixed64(&body, f.file_size);
      PutFixed64(&body, f.region_size);
      PutLengthPrefixedSlice(&body, Slice(f.smallest));
      PutLengthPrefixedSlice(&body, Slice(f.largest));
    }
  }
  // Slot layout: fixed32 body_len, fixed32 crc, body.
  out->clear();
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  PutFixed32(out, Checksum(body.data(), body.size()));
  out->append(body);
}

Status ManifestWriter::Decode(const Slice& input, ManifestState* state) {
  Slice in = input;
  uint64_t num_levels32;
  if (in.size() < 28) {
    return Status::Corruption("manifest too short");
  }
  state->epoch = DecodeFixed64(in.data());
  state->next_file_number = DecodeFixed64(in.data() + 8);
  state->last_sequence = DecodeFixed64(in.data() + 16);
  num_levels32 = DecodeFixed32(in.data() + 24);
  in.remove_prefix(28);
  if (num_levels32 > 64) {
    return Status::Corruption("manifest: implausible level count");
  }
  state->levels.clear();
  state->levels.resize(num_levels32);
  for (uint64_t l = 0; l < num_levels32; l++) {
    if (in.size() < 4) {
      return Status::Corruption("manifest: truncated level header");
    }
    uint32_t count = DecodeFixed32(in.data());
    in.remove_prefix(4);
    for (uint32_t i = 0; i < count; i++) {
      if (in.size() < 32) {
        return Status::Corruption("manifest: truncated file record");
      }
      FileMeta f;
      f.number = DecodeFixed64(in.data());
      f.region_offset = DecodeFixed64(in.data() + 8);
      f.file_size = DecodeFixed64(in.data() + 16);
      f.region_size = DecodeFixed64(in.data() + 24);
      in.remove_prefix(32);
      Slice smallest, largest;
      if (!GetLengthPrefixedSlice(&in, &smallest) ||
          !GetLengthPrefixedSlice(&in, &largest)) {
        return Status::Corruption("manifest: truncated file keys");
      }
      f.smallest = smallest.ToString();
      f.largest = largest.ToString();
      state->levels[l].push_back(std::move(f));
    }
  }
  return Status::OK();
}

Status ManifestWriter::Write(ManifestState* state) {
  state->epoch++;
  std::string encoded;
  Encode(*state, &encoded);
  if (encoded.size() > slot_size_) {
    state->epoch--;
    return Status::OutOfSpace("manifest exceeds slot size");
  }
  const uint64_t slot_base = base_ + (state->epoch % 2) * slot_size_;
  if (fault::AnyActive()) {
    fault::InjectResult inj = fault::Evaluate("lsm.manifest");
    if (inj.torn) {
      // Torn A/B slot write: persist only an XPLine-aligned prefix, then
      // report the failure. The epoch rolls back so a retry (or the next
      // install) rewrites this same slot and never overwrites the last
      // fully-written one; recovery falls back to that older slot.
      uint64_t keep = (encoded.size() * (inj.rand % fault::kTearDenom)) /
                      fault::kTearDenom;
      keep -= keep % kXPLineSize;
      if (keep > 0) {
        env_->NtStore(slot_base, encoded.data(), keep);
        env_->Sfence();
      }
      state->epoch--;
      return inj.status;
    }
    if (!inj.status.ok()) {
      state->epoch--;
      return inj.status;
    }
  }
  env_->NtStore(slot_base, encoded.data(), encoded.size());
  env_->Sfence();
  return Status::OK();
}

Status ManifestWriter::ReadSlot(int slot, ManifestState* state) {
  const uint64_t slot_base = base_ + static_cast<uint64_t>(slot) *
                                          slot_size_;
  char header[8];
  env_->Load(slot_base, header, sizeof(header));
  const uint32_t body_len = DecodeFixed32(header);
  const uint32_t crc = DecodeFixed32(header + 4);
  if (body_len == 0 || body_len > slot_size_ - 8) {
    return Status::NotFound("empty manifest slot");
  }
  std::string body(body_len, '\0');
  env_->Load(slot_base + 8, body.data(), body_len);
  if (Checksum(body.data(), body.size()) != crc) {
    return Status::Corruption("manifest slot crc mismatch");
  }
  return Decode(Slice(body), state);
}

Status ManifestWriter::Recover(ManifestState* state) {
  ManifestState a, b;
  Status sa = ReadSlot(0, &a);
  Status sb = ReadSlot(1, &b);
  if (!sa.ok() && !sb.ok()) {
    return Status::NotFound("no valid manifest");
  }
  if (sa.ok() && (!sb.ok() || a.epoch > b.epoch)) {
    *state = std::move(a);
  } else {
    *state = std::move(b);
  }
  return Status::OK();
}

void ManifestWriter::Clear() {
  char zero[8] = {0};
  env_->NtStore(base_, zero, sizeof(zero));
  env_->NtStore(base_ + slot_size_, zero, sizeof(zero));
  env_->Sfence();
}

}  // namespace cachekv
