#include "fault/tmr.hpp"

#include <bit>
#include <cassert>
#include <cstring>

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
  // Eight byte-words per step: the majority is bitwise, and a byte counts as
  // corrected when any replica's byte differs from the voted one.
  constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
  std::size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    std::uint64_t x = 0, y = 0, z = 0;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    std::memcpy(&z, c.data() + i, 8);
    const std::uint64_t v = (x & y) | (x & z) | (y & z);
    std::memcpy(out.data() + i, &v, 8);
    std::uint64_t differ = (x ^ v) | (y ^ v) | (z ^ v);
    differ |= differ >> 4;  // fold each byte onto its low bit
    differ |= differ >> 2;
    differ |= differ >> 1;
    stats.corrected_words +=
        static_cast<std::size_t>(std::popcount(differ & kLowBits));
  }
  for (; i < a.size(); ++i) {
    const VoteResult vote = vote_bitwise(a[i], b[i], c[i]);
    out[i] = static_cast<std::uint8_t>(vote.value);
    if (vote.corrected) ++stats.corrected_words;
  }
  return stats;
}

}  // namespace hermes::fault
