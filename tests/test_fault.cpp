// Tests for the radiation-hardening substrate: TMR, SECDED EDAC, SEU
// injection, scrubbed memories.
#include <gtest/gtest.h>

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
