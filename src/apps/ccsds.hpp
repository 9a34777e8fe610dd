// CCSDS TM transfer framing (CCSDS 132.0-B / packet telemetry style).
//
// The paper's opening motivation: "low bandwidth communication links between
// spacecraft and Earth require sensor data to be preprocessed and compressed
// before transmission". The compression half lives in compress.hpp; this is
// the transmission half: fixed-length TM transfer frames with a primary
// header (spacecraft id, virtual channel, master/VC frame counters), a data
// field fed from a byte stream, and a Frame Error Control Field (CRC-16).
// A decoder validates FECF + counter continuity and reassembles the stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"

namespace hermes::apps {

struct TmFrameConfig {
  std::uint16_t spacecraft_id = 0x1AB;  ///< 10 bits
  std::uint8_t virtual_channel = 0;     ///< 3 bits
  std::size_t frame_length = 256;       ///< total octets incl. header + FECF
};

inline constexpr std::size_t kTmPrimaryHeaderBytes = 6;
inline constexpr std::size_t kTmFecfBytes = 2;

/// Splits `payload` into consecutive TM frames (the last frame is padded
/// with the CCSDS idle pattern 0x55). Frame counters continue across calls
/// through `master_count` / `vc_count` (wrap at 256 like the 8-bit fields).
/// kInvalidArgument, with the counters untouched, when `frame_length` leaves
/// no data field.
Result<std::vector<std::vector<std::uint8_t>>> tm_frame_stream(
    std::span<const std::uint8_t> payload, const TmFrameConfig& config,
    std::uint8_t& master_count, std::uint8_t& vc_count);

struct TmFrameInfo {
  std::uint16_t spacecraft_id = 0;
  std::uint8_t virtual_channel = 0;
  std::uint8_t master_count = 0;
  std::uint8_t vc_count = 0;
  std::vector<std::uint8_t> data;  ///< data field (padding included)
};

/// Validates one frame (length, FECF, and the header fields the encoder
/// always writes as zero) and extracts header + data field.
/// kInvalidArgument when `config.frame_length` leaves no data field.
Result<TmFrameInfo> tm_decode_frame(std::span<const std::uint8_t> frame,
                                    const TmFrameConfig& config);

/// Decodes a frame sequence: checks per-frame FECF and VC counter
/// continuity; returns the concatenated data fields (padding NOT stripped —
/// the application layer above owns the payload length).
Result<std::vector<std::uint8_t>> tm_decode_stream(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const TmFrameConfig& config);

}  // namespace hermes::apps
