// Shared soak-test fingerprint vocabulary.
//
// Every run-twice soak family in the repo witnesses determinism the same
// way: FNV-1a accumulation over the 64-bit words of a run's outcome. The
// helper used to be copy-pasted per soak file; this header is the single
// definition, so a family added in one soak cannot drift from the others'
// hashing.
#pragma once

#include <cstdint>

#include "common/fnv.hpp"

namespace hermes::soak {

/// FNV-1a accumulation over 64-bit words: the outcome fingerprint.
inline std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return fnv::mix_word(hash, value);
}

inline constexpr std::uint64_t kFnvBasis = fnv::kOffsetBasis;

}  // namespace hermes::soak
