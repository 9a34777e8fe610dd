// FNV-1a (64-bit): the one non-cryptographic hash behind stage keys, cache
// checks, netlist digests and run fingerprints.
//
// Three feeding conventions are pinned by golden fingerprints, so each keeps
// its own entry point:
//   - mix_bytes: raw bytes, one xor-multiply per byte (textbook FNV-1a);
//   - mix_le64:  a 64-bit value as its 8 little-endian bytes;
//   - mix_word:  a whole 64-bit word in one xor-multiply.
// A fourth is not pinned and is used only for in-memory integrity checks,
// whose values are never stored or compared across runs:
//   - mix_words: a byte image folded a little-endian word at a time.
// These are the only places the FNV prime and offset basis may appear; a CI
// step rejects copies elsewhere in src/ and tests/.
#pragma once

#include <cstdint>
#include <span>

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

/// Folds `bytes` into `hash` a word at a time: each whole 8-byte word, read
/// little-endian, goes in through mix_word and is followed by the high half
/// of the running hash, also through mix_word; the 0-7 tail bytes go through
/// mix_bytes. A multiply only carries a difference upward: with the word
/// alone, a flip of bit 63 leaves exactly bit 63 different, and a bit-63
/// flip in any later word cancels it. Folding the high half back in spreads
/// every difference over the whole word, so no flip pattern leaves the same
/// difference whatever the state for a later word to cancel. Every step is a
/// bijection of the running hash, so a change confined to one word or to the
/// tail is always detected.
inline std::uint64_t mix_words(std::uint64_t hash,
                               std::span<const std::uint8_t> bytes) {
  bytes::Reader words(bytes);
  while (words.remaining() >= 8) {
    hash = mix_word(hash, words.u64());
    hash = mix_word(hash, hash >> 32);
  }
  return mix_bytes(hash, words.raw(words.remaining()));
}

}  // namespace hermes::fnv
