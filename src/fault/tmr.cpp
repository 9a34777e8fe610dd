#include "fault/tmr.hpp"

#include <cassert>

namespace hermes::fault {

VoteResult vote_bitwise(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  VoteResult result;
  result.value = (a & b) | (a & c) | (b & c);
  result.corrected = (a != result.value) || (b != result.value) || (c != result.value);
  return result;
}

VoteResult vote_word(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  VoteResult result;
  if (a == b || a == c) {
    result.value = a;
    result.corrected = !(a == b && a == c);
  } else if (b == c) {
    result.value = b;
    result.corrected = true;
  } else {
    result.value = a;
    result.unrecoverable = true;
  }
  return result;
}

TmrScrubStats vote_images(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b,
                          std::span<const std::uint8_t> c,
                          std::span<std::uint8_t> out) {
  assert(a.size() == b.size() && b.size() == c.size() &&
         c.size() == out.size());
  TmrScrubStats stats;
  stats.words = a.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const VoteResult vote = vote_bitwise(a[i], b[i], c[i]);
    out[i] = static_cast<std::uint8_t>(vote.value);
    if (vote.corrected) ++stats.corrected_words;
  }
  return stats;
}

}  // namespace hermes::fault
