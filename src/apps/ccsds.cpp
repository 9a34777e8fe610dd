#include "apps/ccsds.hpp"

#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::apps {
namespace {

constexpr std::uint8_t kIdlePattern = 0x55;

/// A frame must have room for a data field after its header and FECF.
Status check_frame_length(const TmFrameConfig& config) {
  if (config.frame_length <= kTmPrimaryHeaderBytes + kTmFecfBytes) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        format("frame length %zu leaves no data field", config.frame_length));
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<std::vector<std::uint8_t>>> tm_frame_stream(
    std::span<const std::uint8_t> payload, const TmFrameConfig& config,
    std::uint8_t& master_count, std::uint8_t& vc_count) {
  if (Status status = check_frame_length(config); !status.ok()) return status;
  std::vector<std::vector<std::uint8_t>> frames;
  const std::size_t data_bytes =
      config.frame_length - kTmPrimaryHeaderBytes - kTmFecfBytes;
  std::size_t offset = 0;
  do {
    std::vector<std::uint8_t> frame;
    frame.reserve(config.frame_length);
    // Primary header: version(2)=00 | SCID(10) | VCID(3) | OCF flag(1) = 16 bits.
    const std::uint16_t word0 =
        static_cast<std::uint16_t>((config.spacecraft_id & 0x3FF) << 4 |
                                   (config.virtual_channel & 0x7) << 1);
    frame.push_back(static_cast<std::uint8_t>(word0 >> 8));
    frame.push_back(static_cast<std::uint8_t>(word0));
    frame.push_back(master_count);
    frame.push_back(vc_count);
    // Data field status: sync flag 0, first-header-pointer unused here.
    frame.push_back(0x00);
    frame.push_back(0x00);
    ++master_count;  // natural 8-bit wraparound
    ++vc_count;

    for (std::size_t i = 0; i < data_bytes; ++i) {
      frame.push_back(offset + i < payload.size() ? payload[offset + i]
                                                  : kIdlePattern);
    }
    offset += data_bytes;

    const std::uint16_t fecf = crc16_ccitt(frame);
    frame.push_back(static_cast<std::uint8_t>(fecf >> 8));
    frame.push_back(static_cast<std::uint8_t>(fecf));
    frames.push_back(std::move(frame));
  } while (offset < payload.size());
  return frames;
}

Result<TmFrameInfo> tm_decode_frame(std::span<const std::uint8_t> frame,
                                    const TmFrameConfig& config) {
  if (Status status = check_frame_length(config); !status.ok()) return status;
  if (frame.size() != config.frame_length) {
    return Status::Error(ErrorCode::kIntegrityError,
                         format("frame length %zu, expected %zu", frame.size(),
                                config.frame_length));
  }
  const std::uint16_t fecf =
      static_cast<std::uint16_t>(frame[frame.size() - 2] << 8 |
                                 frame[frame.size() - 1]);
  if (crc16_ccitt(frame.subspan(0, frame.size() - 2)) != fecf) {
    return Status::Error(ErrorCode::kIntegrityError, "FECF mismatch");
  }
  TmFrameInfo info;
  const std::uint16_t word0 =
      static_cast<std::uint16_t>(frame[0] << 8 | frame[1]);
  if ((word0 >> 14) != 0) {
    return Status::Error(ErrorCode::kIntegrityError, "bad TM version");
  }
  // The encoder writes neither an OCF nor a data field status: a frame that
  // carries one would not re-encode to the same bytes.
  if ((word0 & 1) != 0) {
    return Status::Error(ErrorCode::kIntegrityError, "unexpected OCF flag");
  }
  if (frame[4] != 0 || frame[5] != 0) {
    return Status::Error(ErrorCode::kIntegrityError,
                         "non-zero data field status");
  }
  info.spacecraft_id = (word0 >> 4) & 0x3FF;
  info.virtual_channel = (word0 >> 1) & 0x7;
  info.master_count = frame[2];
  info.vc_count = frame[3];
  info.data.assign(frame.begin() + kTmPrimaryHeaderBytes,
                   frame.end() - kTmFecfBytes);
  return info;
}

Result<std::vector<std::uint8_t>> tm_decode_stream(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const TmFrameConfig& config) {
  std::vector<std::uint8_t> payload;
  bool have_previous = false;
  std::uint8_t expected_vc = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto info = tm_decode_frame(frames[i], config);
    if (!info.ok()) {
      return Status::Error(info.status().code(),
                           format("frame %zu: %s", i,
                                  info.status().message().c_str()));
    }
    if (info.value().spacecraft_id != config.spacecraft_id ||
        info.value().virtual_channel != config.virtual_channel) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("frame %zu: foreign SCID/VCID", i));
    }
    if (have_previous &&
        info.value().vc_count != static_cast<std::uint8_t>(expected_vc)) {
      return Status::Error(
          ErrorCode::kIntegrityError,
          format("frame %zu: VC counter gap (got %u, expected %u) — frame "
                 "loss detected", i, info.value().vc_count, expected_vc));
    }
    expected_vc = static_cast<std::uint8_t>(info.value().vc_count + 1);
    have_previous = true;
    payload.insert(payload.end(), info.value().data.begin(),
                   info.value().data.end());
  }
  return payload;
}

}  // namespace hermes::apps
