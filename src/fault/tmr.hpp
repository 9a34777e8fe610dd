// Triple modular redundancy primitives.
//
// Used in two places mirroring the paper: (1) the NG-ULTRA fabric hardening
// model, and (2) BL1's "basic redundancy for software components stored in
// Flash (either through TMR or through sequential accesses to multiple
// hardware Flash components)" (HERMES, Sec. IV).
#pragma once

#include <cstdint>
#include <span>

namespace hermes::fault {

/// Result of a majority vote over three replicas.
struct VoteResult {
  std::uint64_t value = 0;
  bool corrected = false;     ///< replicas disagreed but majority existed
  bool unrecoverable = false; ///< all three replicas disagree (word-level vote)
};

/// Bitwise 2-of-3 majority vote. Always produces a value; `corrected` is set
/// if any replica disagreed with the majority on any bit. Bitwise voting
/// never fails: each bit independently has a majority.
VoteResult vote_bitwise(std::uint64_t a, std::uint64_t b, std::uint64_t c);

/// Word-level vote: the value held by at least two replicas wins; if all
/// three differ the result is flagged unrecoverable (value = replica a).
VoteResult vote_word(std::uint64_t a, std::uint64_t b, std::uint64_t c);

/// Statistics of voting across a whole memory image.
struct TmrScrubStats {
  std::size_t words = 0;
  std::size_t corrected_words = 0;
  std::size_t unrecoverable_words = 0;
};

/// Votes three equally-sized byte images (e.g. three flash copies of a boot
/// image) into `out`, of the same size, using bitwise voting per 8-bit word.
/// `out` may be the same span as `a` (the vote then runs in place).
TmrScrubStats vote_images(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b,
                          std::span<const std::uint8_t> c,
                          std::span<std::uint8_t> out);

}  // namespace hermes::fault
