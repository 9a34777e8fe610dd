// Tests for the radiation-hardening substrate: TMR, SECDED EDAC, SEU
// injection, scrubbed memories.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "fault/edac.hpp"
#include "fault/scrub_memory.hpp"
#include "fault/seu.hpp"
#include "fault/tmr.hpp"

namespace hermes::fault {
namespace {

TEST(Tmr, BitwiseVoteMajority) {
  const VoteResult clean = vote_bitwise(0xAB, 0xAB, 0xAB);
  EXPECT_EQ(clean.value, 0xABu);
  EXPECT_FALSE(clean.corrected);

  const VoteResult one_bad = vote_bitwise(0xAB, 0xAB, 0x00);
  EXPECT_EQ(one_bad.value, 0xABu);
  EXPECT_TRUE(one_bad.corrected);

  // Independent single-bit hits in different replicas still vote clean.
  const VoteResult scattered = vote_bitwise(0xAB ^ 0x01, 0xAB ^ 0x10, 0xAB);
  EXPECT_EQ(scattered.value, 0xABu);
  EXPECT_TRUE(scattered.corrected);
}

TEST(Tmr, WordVoteUnrecoverable) {
  const VoteResult ok = vote_word(1, 2, 1);
  EXPECT_EQ(ok.value, 1u);
  EXPECT_TRUE(ok.corrected);
  const VoteResult bad = vote_word(1, 2, 3);
  EXPECT_TRUE(bad.unrecoverable);
}

TEST(Tmr, ImageVoting) {
  std::vector<std::uint8_t> a = {1, 2, 3, 4}, b = a, c = a;
  b[1] ^= 0xFF;  // corrupt one replica
  c[3] ^= 0x01;
  std::vector<std::uint8_t> out(a.size());
  const TmrScrubStats stats = vote_images(a, b, c, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(stats.corrected_words, 2u);
  EXPECT_EQ(stats.unrecoverable_words, 0u);
}

TEST(Edac, RoundTripCleanWords) {
  for (std::uint32_t v : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu, 0x80000001u}) {
    std::uint32_t decoded = 0;
    EXPECT_EQ(edac_decode(edac_encode(v), decoded), EdacStatus::kClean);
    EXPECT_EQ(decoded, v);
  }
}

// Property: every single-bit flip in the 39-bit codeword is corrected.
class EdacSingleBit : public ::testing::TestWithParam<unsigned> {};

TEST_P(EdacSingleBit, Corrected) {
  const unsigned bit = GetParam();
  const std::uint32_t data = 0xC0FFEE42u;
  const std::uint64_t codeword = edac_encode(data) ^ (1ULL << bit);
  std::uint32_t decoded = 0;
  EXPECT_EQ(edac_decode(codeword, decoded), EdacStatus::kCorrected);
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(AllCodewordBits, EdacSingleBit,
                         ::testing::Range(0u, kEdacCodewordBits));

TEST(Edac, DoubleErrorsDetected) {
  Rng rng(11);
  const std::uint32_t data = 0x12345678u;
  const std::uint64_t clean = edac_encode(data);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned b1 = static_cast<unsigned>(rng.next_below(kEdacCodewordBits));
    unsigned b2 = static_cast<unsigned>(rng.next_below(kEdacCodewordBits));
    if (b1 == b2) continue;
    std::uint32_t decoded = 0;
    EXPECT_EQ(edac_decode(clean ^ (1ULL << b1) ^ (1ULL << b2), decoded),
              EdacStatus::kDoubleError)
        << "bits " << b1 << "," << b2;
  }
}

TEST(Edac, ZeroEncodesToZero) {
  // ScrubMemory relies on this: zeroed raw storage already holds valid
  // codewords of 0, so a fresh EDAC memory scrubs clean.
  EXPECT_EQ(edac_encode(0), 0u);
  ScrubMemory memory(256, Protection::kEdac);
  const ScrubReport report = memory.scrub();
  EXPECT_EQ(report.corrected, 0u);
  EXPECT_EQ(report.detected_uncorrectable, 0u);
  EXPECT_EQ(report.silent_corruptions, 0u);
}

// ---------------------------------------------------------------------------
// Differential checks of the table-driven codec and the word-wide image vote
// against the bit- and byte-level code they replaced, kept here as the
// reference.
// ---------------------------------------------------------------------------

struct RefEdac {
  std::array<unsigned, kEdacDataBits> data_position{};
  std::array<std::uint64_t, 6> parity_mask{};
  std::uint64_t all_positions = 0;

  RefEdac() {
    unsigned index = 0;
    for (unsigned pos = 1; pos <= 38; ++pos) {
      all_positions |= 1ULL << pos;
      if ((pos & (pos - 1)) != 0) data_position[index++] = pos;
    }
    for (unsigned p = 0; p < 6; ++p) {
      for (unsigned pos = 1; pos <= 38; ++pos) {
        if (pos & (1u << p)) parity_mask[p] |= 1ULL << pos;
      }
    }
  }

  static bool odd(std::uint64_t v) { return std::popcount(v) & 1; }

  std::uint64_t encode(std::uint32_t data) const {
    std::uint64_t word = 0;
    for (unsigned i = 0; i < kEdacDataBits; ++i) {
      word |= static_cast<std::uint64_t>((data >> i) & 1u) << data_position[i];
    }
    for (unsigned p = 0; p < 6; ++p) {
      if (odd(word & parity_mask[p])) word |= 1ULL << (1u << p);
    }
    if (odd(word & all_positions)) word |= 1ULL;
    return word;
  }

  unsigned syndrome(std::uint64_t codeword) const {
    unsigned s = 0;
    for (unsigned p = 0; p < 6; ++p) {
      if (odd(codeword & parity_mask[p])) s |= 1u << p;
    }
    return s;
  }

  EdacStatus decode(std::uint64_t codeword, std::uint32_t& data_out) const {
    const unsigned s = syndrome(codeword);
    const bool overall = odd(codeword & (all_positions | 1ULL));
    EdacStatus status = EdacStatus::kClean;
    if (s != 0 && overall) {
      codeword ^= 1ULL << s;
      status = EdacStatus::kCorrected;
    } else if (s != 0 && !overall) {
      return EdacStatus::kDoubleError;
    } else if (s == 0 && overall) {
      status = EdacStatus::kCorrected;
    }
    std::uint32_t data = 0;
    for (unsigned i = 0; i < kEdacDataBits; ++i) {
      data |= static_cast<std::uint32_t>((codeword >> data_position[i]) & 1u) << i;
    }
    data_out = data;
    return status;
  }
};

/// Decodes `codeword` with both codecs and reports any disagreement; data is
/// compared unless the word is a detected double error.
::testing::AssertionResult decodes_like_reference(const RefEdac& ref,
                                                  std::uint64_t codeword) {
  std::uint32_t want = 0x5A5A5A5A, got = 0x5A5A5A5A;
  const EdacStatus want_status = ref.decode(codeword, want);
  const EdacStatus got_status = edac_decode(codeword, got);
  if (want_status != got_status ||
      (want_status != EdacStatus::kDoubleError && want != got)) {
    return ::testing::AssertionFailure()
           << "codeword 0x" << std::hex << codeword << ": status "
           << static_cast<int>(got_status) << " data 0x" << got
           << ", reference status " << static_cast<int>(want_status)
           << " data 0x" << want;
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::uint32_t> seeded_data_words(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint32_t> words = {0u, 0xFFFFFFFFu, 0x80000001u, 0xC0FFEE42u};
  Rng rng(seed);
  while (words.size() < n) words.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  return words;
}

TEST(EdacDifferential, EncodeAndEveryOneAndTwoBitFlipMatchReference) {
  const RefEdac ref;
  for (const std::uint32_t data : seeded_data_words(21, 48)) {
    const std::uint64_t clean = edac_encode(data);
    ASSERT_EQ(clean, ref.encode(data)) << std::hex << data;
    ASSERT_TRUE(decodes_like_reference(ref, clean));
    for (unsigned b1 = 0; b1 < kEdacCodewordBits; ++b1) {
      ASSERT_TRUE(decodes_like_reference(ref, clean ^ (1ULL << b1)));
      for (unsigned b2 = b1 + 1; b2 < kEdacCodewordBits; ++b2) {
        ASSERT_TRUE(
            decodes_like_reference(ref, clean ^ (1ULL << b1) ^ (1ULL << b2)));
      }
    }
  }
  Rng rng(22);
  for (int trial = 0; trial < 100000; ++trial) {
    const auto data = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_EQ(edac_encode(data), ref.encode(data)) << std::hex << data;
  }
}

TEST(EdacDifferential, HighBitsAndEverySyndromeMatchReference) {
  const RefEdac ref;
  // Bits 39..63 lie outside the codeword; both codecs must ignore them.
  Rng rng(23);
  for (int trial = 0; trial < 200000; ++trial) {
    ASSERT_TRUE(decodes_like_reference(ref, rng.next_u64()));
  }
  // Every syndrome 0..63 with either overall parity, over clean codewords
  // with and without junk above bit 38. Syndromes 39..63 name no codeword
  // position: s = 32 ^ (s - 32) flips positions 32 and s - 32.
  std::array<unsigned, 2> seen_overall{};
  std::array<bool, 64> seen{};
  for (const std::uint32_t data : seeded_data_words(24, 16)) {
    for (const std::uint64_t junk : {0ULL, 0xFFFFFF8000000000ULL,
                                     rng.next_u64() & ~((1ULL << 39) - 1)}) {
      const std::uint64_t clean = edac_encode(data) | junk;
      for (unsigned s = 0; s < 64; ++s) {
        std::uint64_t flips = 0;
        if (s >= 1 && s <= 38) {
          flips = 1ULL << s;
        } else if (s > 38) {
          flips = (1ULL << 32) | (1ULL << (s - 32));
        }
        for (const std::uint64_t overall : {0ULL, 1ULL}) {
          const std::uint64_t codeword = clean ^ flips ^ overall;
          ASSERT_EQ(ref.syndrome(codeword), s);
          seen[s] = true;
          ++seen_overall[RefEdac::odd(codeword & ((1ULL << 39) - 1))];
          ASSERT_TRUE(decodes_like_reference(ref, codeword));
        }
      }
    }
  }
  for (unsigned s = 0; s < 64; ++s) EXPECT_TRUE(seen[s]) << "syndrome " << s;
  EXPECT_GT(seen_overall[0], 0u);
  EXPECT_GT(seen_overall[1], 0u);
}

TEST(TmrDifferential, ImageVoteMatchesPerByteVote) {
  Rng rng(31);
  std::vector<std::uint8_t> a(80), b(80), c(80), out(80), want(80);
  for (std::size_t length = 0; length <= 67; ++length) {
    for (std::size_t skew = 0; skew < 8; ++skew) {
      for (int trial = 0; trial < 4; ++trial) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = b[i] = c[i] = static_cast<std::uint8_t>(rng.next_u64());
        }
        // Seeded damage: scattered bit flips and whole-byte rot, sometimes
        // in two replicas at the same byte (the vote then follows them).
        const std::size_t hits = rng.next_below(1 + length / 2);
        for (std::size_t h = 0; h < hits; ++h) {
          const std::size_t at = skew + rng.next_below(length);
          std::vector<std::uint8_t>& victim =
              rng.next_below(3) == 0 ? a : (rng.next_below(2) ? b : c);
          victim[at] ^= rng.next_bool(0.5)
                            ? static_cast<std::uint8_t>(1u << rng.next_below(8))
                            : static_cast<std::uint8_t>(rng.next_u64());
        }
        std::size_t want_corrected = 0;
        for (std::size_t i = skew; i < skew + length; ++i) {
          const VoteResult vote = vote_bitwise(a[i], b[i], c[i]);
          want[i] = static_cast<std::uint8_t>(vote.value);
          want_corrected += vote.corrected ? 1 : 0;
        }
        const auto window = [&](std::vector<std::uint8_t>& v) {
          return std::span(v).subspan(skew, length);
        };
        const TmrScrubStats stats =
            vote_images(window(a), window(b), window(c), window(out));
        ASSERT_EQ(stats.words, length);
        ASSERT_EQ(stats.corrected_words, want_corrected)
            << "length " << length << " skew " << skew;
        ASSERT_TRUE(std::equal(want.begin() + skew, want.begin() + skew + length,
                               out.begin() + skew))
            << "length " << length << " skew " << skew;
        // In place, as FlashBank::read runs it.
        const TmrScrubStats in_place =
            vote_images(window(a), window(b), window(c), window(a));
        ASSERT_EQ(in_place.corrected_words, want_corrected);
        ASSERT_TRUE(std::equal(want.begin() + skew, want.begin() + skew + length,
                               a.begin() + skew));
      }
    }
  }
}

TEST(Seu, DrawRespectsRate) {
  Rng rng(3);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.5;
  config.bits_per_word = 32;
  const auto upsets = draw_upsets(config, 10000, rng);
  // Expect roughly 5000 hits; allow a wide band.
  EXPECT_GT(upsets.size(), 4000u);
  EXPECT_LT(upsets.size(), 6000u);
  for (const Upset& upset : upsets) {
    EXPECT_LT(upset.bit_index, 32u);
    EXPECT_LT(upset.word_index, 10000u);
  }
}

TEST(Seu, ZeroRateProducesNothing) {
  Rng rng(3);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.0;
  EXPECT_TRUE(draw_upsets(config, 1000, rng).empty());
}

TEST(Seu, ApplyFlipsExactBits) {
  std::vector<std::uint64_t> words = {0, 0, 0};
  apply_upsets(words, {{0, 3}, {2, 0}, {2, 0}});
  EXPECT_EQ(words[0], 8u);
  EXPECT_EQ(words[1], 0u);
  EXPECT_EQ(words[2], 0u);  // double flip cancels
}

TEST(ScrubMemory, ReadBackThroughAllSchemes) {
  for (Protection p : {Protection::kNone, Protection::kEdac, Protection::kTmr}) {
    ScrubMemory memory(64, p);
    for (std::size_t i = 0; i < 64; ++i) {
      memory.write(i, static_cast<std::uint32_t>(i * 2654435761u));
    }
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(memory.read(i), static_cast<std::uint32_t>(i * 2654435761u))
          << to_string(p) << " index " << i;
    }
  }
}

TEST(ScrubMemory, UnprotectedSuffersSilentCorruption) {
  ScrubMemory memory(4096, Protection::kNone);
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory.write(i, 0xA5A5A5A5u);
  }
  Rng rng(5);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.01;
  const ScrubReport report = memory.inject_and_scrub(config, rng);
  EXPECT_GT(report.injected_upsets, 0u);
  EXPECT_EQ(report.corrected, 0u);
  EXPECT_GT(report.silent_corruptions, 0u);
}

TEST(ScrubMemory, EdacMasksSingleUpsets) {
  ScrubMemory memory(4096, Protection::kEdac);
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory.write(i, static_cast<std::uint32_t>(i));
  }
  Rng rng(6);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.01;  // ~1 bit/word max at this rate
  const ScrubReport report = memory.inject_and_scrub(config, rng);
  EXPECT_GT(report.injected_upsets, 0u);
  EXPECT_EQ(report.silent_corruptions, 0u);
  EXPECT_GE(report.corrected, report.injected_upsets -
                                  report.detected_uncorrectable * 2);
  // All data still correct through the read path.
  for (std::size_t i = 0; i < memory.size(); ++i) {
    if (report.detected_uncorrectable == 0) {
      EXPECT_EQ(memory.read(i), static_cast<std::uint32_t>(i));
    }
  }
}

TEST(ScrubMemory, TmrMasksSingleUpsetsPerReplica) {
  ScrubMemory memory(4096, Protection::kTmr);
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory.write(i, 0xDEADBEEFu);
  }
  Rng rng(7);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.02;
  const ScrubReport report = memory.inject_and_scrub(config, rng);
  EXPECT_GT(report.injected_upsets, 0u);
  EXPECT_EQ(report.silent_corruptions, 0u);
  for (std::size_t i = 0; i < memory.size(); ++i) {
    EXPECT_EQ(memory.read(i), 0xDEADBEEFu);
  }
}

// Parameterized scrub-interval property: repeated scrubbing keeps protected
// memories clean at moderate rates because corrections are rewritten.
class ScrubCampaign : public ::testing::TestWithParam<Protection> {};

TEST_P(ScrubCampaign, TenIntervalsNoSilentCorruption) {
  if (GetParam() == Protection::kNone) GTEST_SKIP();
  ScrubMemory memory(1024, GetParam());
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory.write(i, static_cast<std::uint32_t>(i ^ 0x5555AAAAu));
  }
  Rng rng(8);
  SeuCampaignConfig config;
  config.upset_probability_per_word = 0.005;
  std::size_t silent = 0;
  for (int interval = 0; interval < 10; ++interval) {
    silent += memory.inject_and_scrub(config, rng).silent_corruptions;
  }
  EXPECT_EQ(silent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ScrubCampaign,
                         ::testing::Values(Protection::kNone, Protection::kEdac,
                                           Protection::kTmr));

}  // namespace
}  // namespace hermes::fault
