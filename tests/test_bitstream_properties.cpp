// Property tests for the bitstream wire format: the integrity argument of
// the eFPGA programming path rests on "any corrupted image is rejected
// before programming", so this file checks it exhaustively — every single
// bit of a packed image flipped one at a time (header, payloads, frame
// CRCs, global CRC), truncation at every byte boundary, and magic
// mismatches — across tile-column counts 1..4. A seeded loop then reseals
// the global CRC after each mutation, so the frame walk itself is tested.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc.hpp"
#include "common/rng.hpp"
#include "nxmap/bitstream.hpp"

namespace hermes::nx {
namespace {

// Deterministic synthetic image with `columns` frames of varying sizes,
// built through the same low-level packer BL1's input comes from.
std::vector<BitstreamFrame> synthetic_frames(unsigned columns) {
  std::vector<BitstreamFrame> frames;
  for (unsigned c = 0; c < columns; ++c) {
    BitstreamFrame frame;
    frame.column = 3 * c + 1;  // sparse column ids, like a real placement
    const std::size_t words = 2 + (c * 3) % 5;
    for (std::size_t w = 0; w < words; ++w) {
      frame.words.push_back(
          static_cast<std::uint32_t>((w + 1) * 2654435761u ^ (c << 16)));
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<std::uint8_t> synthetic_image(unsigned columns) {
  return pack_raw_bitstream(/*device_id=*/0x30301u, synthetic_frames(columns));
}

TEST(BitstreamProperties, RoundTripThroughParse) {
  for (unsigned columns = 1; columns <= 4; ++columns) {
    const std::vector<BitstreamFrame> frames = synthetic_frames(columns);
    const std::vector<std::uint8_t> image = synthetic_image(columns);

    auto info = verify_bitstream(image);
    ASSERT_TRUE(info.ok()) << info.status().to_string();
    EXPECT_EQ(info.value().device_id, 0x30301u);
    EXPECT_EQ(info.value().frames, columns);
    EXPECT_EQ(info.value().bytes, image.size());

    auto parsed = parse_bitstream(image);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_EQ(parsed.value().frames.size(), columns);
    for (unsigned c = 0; c < columns; ++c) {
      const BitstreamFrame& got = parsed.value().frames[c];
      EXPECT_EQ(got.column, frames[c].column);
      EXPECT_EQ(got.words, frames[c].words);
      EXPECT_EQ(got.crc, frame_crc(got.column, got.words));
      // The frame's offset/bytes must address exactly its image slice.
      EXPECT_GE(got.offset, kBitstreamHeaderBytes);
      EXPECT_LE(got.offset + got.bytes, image.size());
      EXPECT_EQ(got.bytes, 8 + 4 * got.words.size() + 4);
    }
  }
}

TEST(BitstreamProperties, EverySingleBitFlipIsRejected) {
  for (unsigned columns = 1; columns <= 4; ++columns) {
    std::vector<std::uint8_t> image = synthetic_image(columns);
    for (std::size_t byte = 0; byte < image.size(); ++byte) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        image[byte] ^= static_cast<std::uint8_t>(1u << bit);
        auto info = verify_bitstream(image);
        EXPECT_FALSE(info.ok())
            << "flip accepted at byte " << byte << " bit " << bit << " of a "
            << columns << "-column image";
        // parse_bitstream must never hand out frames from a corrupt image.
        EXPECT_FALSE(parse_bitstream(image).ok());
        image[byte] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    ASSERT_TRUE(verify_bitstream(image).ok()) << "restore failed";
  }
}

TEST(BitstreamProperties, EveryTruncationIsRejected) {
  for (unsigned columns = 1; columns <= 4; ++columns) {
    const std::vector<std::uint8_t> image = synthetic_image(columns);
    for (std::size_t len = 0; len < image.size(); ++len) {
      const std::span<const std::uint8_t> prefix(image.data(), len);
      EXPECT_FALSE(verify_bitstream(prefix).ok())
          << "truncation to " << len << " of " << image.size()
          << " bytes accepted";
      EXPECT_FALSE(parse_bitstream(prefix).ok());
    }
  }
}

TEST(BitstreamProperties, MagicMismatchIsRejected) {
  std::vector<std::uint8_t> image = synthetic_image(2);
  // Any wrong magic word — not just single-bit-adjacent ones — must fail.
  const std::uint32_t wrong[] = {0, ~kBitstreamMagic, kBitstreamMagic + 1,
                                 0x4E583032u /* "NX02" */};
  for (std::uint32_t value : wrong) {
    for (unsigned b = 0; b < 4; ++b) {
      image[b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    EXPECT_FALSE(verify_bitstream(image).ok());
  }
}

TEST(BitstreamProperties, EmptyFrameListStillVerifies) {
  // A header-only image (no frames) is well-formed; programming it is a
  // policy question for the caller, but the format round-trips.
  const std::vector<std::uint8_t> image = pack_raw_bitstream(0x1234, {});
  auto info = verify_bitstream(image);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().frames, 0u);
  auto parsed = parse_bitstream(image);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().frames.empty());
  EXPECT_EQ(parsed.value().total_words(), 0u);
}

/// Rewrites the global CRC trailer so a mutated image reaches the frame walk.
void reseal(std::vector<std::uint8_t>& image) {
  if (image.size() < 4) return;
  const std::uint32_t crc = crc32(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// The exhaustive tests above never reseal the global CRC, so a mutation that
// keeps every frame CRC intact (bytes between the last frame and the
// trailer, a frame count that leaves frames unread) never reached the frame
// walk. Here every mutation is resealed; each image the decoder accepts must
// be the one pack_raw_bitstream writes for its parse.
TEST(BitstreamProperties, ResealedMutationsRoundTripOrAreRejected) {
  Rng rng(20);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> image =
        synthetic_image(static_cast<unsigned>(rng.next_below(5)));
    switch (rng.next_below(4)) {
      case 0: {  // bytes inserted ahead of the trailer
        const std::uint64_t extra = 1 + rng.next_below(8);
        image.insert(image.end() - 4, extra,
                     static_cast<std::uint8_t>(rng.next_below(256)));
        break;
      }
      case 1: {  // a frame-count lie
        const auto count = static_cast<std::uint32_t>(rng.next_below(6));
        for (int i = 0; i < 4; ++i) {
          image[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
        }
        break;
      }
      case 2: {  // one to three bit flips ahead of the trailer
        const std::uint64_t flips = 1 + rng.next_below(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          image[rng.next_below(image.size() - 4)] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      default:  // truncation anywhere
        image.resize(rng.next_below(image.size()));
        break;
    }
    reseal(image);
    const auto parsed = parse_bitstream(image);
    EXPECT_EQ(verify_bitstream(image).ok(), parsed.ok()) << "trial " << trial;
    if (!parsed.ok()) continue;
    ++accepted;
    ASSERT_EQ(pack_raw_bitstream(parsed.value().device_id,
                                 parsed.value().frames),
              image)
        << "trial " << trial;
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace hermes::nx
