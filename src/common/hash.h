// Hash combinators shared by hash-join keys, memo tables, the
// dictionary's string index, and the database's cache-key fingerprints.
#ifndef XJOIN_COMMON_HASH_H_
#define XJOIN_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace xjoin {

/// Mixes `value` into `seed` (boost::hash_combine-style with a 64-bit
/// golden-ratio constant and extra avalanche).
inline size_t HashCombine(size_t seed, size_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  return seed;
}

/// Hashes a byte string eight bytes at a time: the length seeds the
/// state, each little-endian word is folded in by multiply and rotate,
/// and the murmur3 finalizer avalanches the result, so every input bit
/// reaches every output bit. The value is for in-memory tables only; it
/// differs between byte orders.
inline uint64_t StringHash(std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * 0xff51afd7ed558ccdULL);
  auto fold = [&h](uint64_t word) {
    h ^= word * 0xbf58476d1ce4e5b9ULL;
    h = ((h << 27) | (h >> 37)) * 0x94d049bb133111ebULL;
  };
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    fold(word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    fold(word);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Mixes a byte string into `seed`: StringHash, then one HashCombine so
/// the string's position in a combinator chain matters.
inline size_t HashBytes(size_t seed, std::string_view bytes) {
  return HashCombine(seed, static_cast<size_t>(StringHash(bytes)));
}

/// Fixed-width (16-digit) lowercase-hex rendering of a hash, for
/// embedding fingerprints in string cache keys. Widened to 64 bits so
/// the rendering is identical on 32-bit size_t platforms.
inline std::string HashToHex(size_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace xjoin

#endif  // XJOIN_COMMON_HASH_H_
