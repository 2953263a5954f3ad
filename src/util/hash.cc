#include "util/hash.h"

#include <cstring>

#include "util/coding.h"

namespace cachekv {

uint32_t Hash(const char* data, size_t n, uint32_t seed) {
  // Similar to murmur hash (LevelDB's util/hash.cc).
  const uint32_t m = 0xc6a4a793;
  const uint32_t r = 24;
  const char* limit = data + n;
  uint32_t h = seed ^ (static_cast<uint32_t>(n) * m);

  while (data + 4 <= limit) {
    uint32_t w = DecodeFixed32(data);
    data += 4;
    h += w;
    h *= m;
    h ^= (h >> 16);
  }

  switch (limit - data) {
    case 3:
      h += static_cast<uint8_t>(data[2]) << 16;
      [[fallthrough]];
    case 2:
      h += static_cast<uint8_t>(data[1]) << 8;
      [[fallthrough]];
    case 1:
      h += static_cast<uint8_t>(data[0]);
      h *= m;
      h ^= (h >> r);
      break;
  }
  return h;
}

uint32_t Checksum(const char* data, size_t n) {
  return Hash(data, n, 0xdb97531);
}

uint64_t Hash64(const char* data, size_t n, uint64_t seed) {
  const uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; i++) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= kPrime;
  }
  return Mix64(h);
}

}  // namespace cachekv
