#ifndef CACHEKV_UTIL_HASH_H_
#define CACHEKV_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace cachekv {

/// 32-bit hash of data[0, n-1] (LevelDB's murmur-like hash). Used by the
/// bloom filter and by workload sharding helpers.
uint32_t Hash(const char* data, size_t n, uint32_t seed);

/// Checksum of data[0, n-1] guarding persisted records: value-log
/// records, manifest blocks, SSTable blocks and flushed-zone runs.
uint32_t Checksum(const char* data, size_t n);

/// 64-bit avalanche hash of data[0, n-1] (FNV-1a core + splitmix finisher).
/// Used by the YCSB key scrambler.
uint64_t Hash64(const char* data, size_t n, uint64_t seed);

/// Finalizer that maps a 64-bit integer to a well-mixed 64-bit integer
/// (splitmix64 finisher).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cachekv

#endif  // CACHEKV_UTIL_HASH_H_
