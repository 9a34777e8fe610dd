// FNV-1a (64-bit): the one non-cryptographic hash behind stage keys, cache
// checks, netlist digests and run fingerprints.
//
// Three feeding conventions are in use, and each is pinned by golden
// fingerprints, so each keeps its own entry point:
//   - mix_bytes: raw bytes, one xor-multiply per byte (textbook FNV-1a);
//   - mix_le64:  a 64-bit value as its 8 little-endian bytes;
//   - mix_word:  a whole 64-bit word in one xor-multiply.
// These are the only places the FNV prime and offset basis may appear; a CI
// step rejects copies elsewhere in src/ and tests/.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace hermes::fnv {

inline constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kPrime = 1099511628211ULL;

/// Folds every byte of `bytes` (any range of char-sized values) into `hash`.
template <typename Bytes>
constexpr std::uint64_t mix_bytes(std::uint64_t hash, const Bytes& bytes) {
  for (const auto byte : bytes) {
    hash = (hash ^ static_cast<std::uint8_t>(byte)) * kPrime;
  }
  return hash;
}

/// Folds `value` into `hash` as 8 little-endian bytes.
constexpr std::uint64_t mix_le64(std::uint64_t hash, std::uint64_t value) {
  return mix_bytes(hash, bytes::le<8>(value));
}

/// Folds `value` into `hash` as one word.
constexpr std::uint64_t mix_word(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kPrime;
}

}  // namespace hermes::fnv
