#include "nxmap/bitstream.hpp"

#include <map>

#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::nx {
namespace {

constexpr std::size_t kCrcBytes = 4;

/// The one decoder behind verify_bitstream and parse_bitstream: checks the
/// magic and the global CRC, then walks every frame and its CRC. The walk
/// must end exactly at the global CRC trailer. Decoded frames are appended
/// to `frames` when it is non-null.
Result<BitstreamInfo> decode(std::span<const std::uint8_t> image,
                             std::vector<BitstreamFrame>* frames) {
  if (image.size() < kBitstreamHeaderBytes + kCrcBytes) {
    return Status::Error(ErrorCode::kIntegrityError, "bitstream truncated");
  }
  const std::span<const std::uint8_t> body =
      image.first(image.size() - kCrcBytes);
  bytes::Reader walk(body);
  if (walk.u32() != kBitstreamMagic) {
    return Status::Error(ErrorCode::kIntegrityError, "bad bitstream magic");
  }
  if (crc32(body) != bytes::Reader(image.subspan(body.size())).u32()) {
    return Status::Error(ErrorCode::kIntegrityError, "global CRC mismatch");
  }
  BitstreamInfo info;
  info.device_id = walk.u32();
  info.frames = walk.u32();
  for (unsigned f = 0; f < info.frames; ++f) {
    const std::size_t start = walk.consumed();
    const std::uint32_t column = walk.u32();
    const std::uint32_t words = walk.u32();
    bytes::Reader payload(walk.raw(static_cast<std::size_t>(words) * 4));
    const std::size_t covered = walk.consumed() - start;
    const std::uint32_t crc = walk.u32();
    if (walk.failed()) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("frame %u truncated", f));
    }
    if (crc32(body.subspan(start, covered)) != crc) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("frame %u CRC mismatch", f));
    }
    if (frames == nullptr) continue;
    BitstreamFrame& frame = frames->emplace_back();
    frame.column = column;
    frame.words.resize(words);
    for (std::uint32_t& word : frame.words) word = payload.u32();
    frame.crc = crc;
    frame.offset = start;
    frame.bytes = walk.consumed() - start;
  }
  if (walk.remaining() != 0) {
    return Status::Error(ErrorCode::kIntegrityError,
                         "bytes between the last frame and the global CRC");
  }
  info.bytes = image.size();
  return info;
}

std::uint32_t device_id_of(const NxDevice& device) {
  return crc32(device.name.data(), device.name.size());
}

}  // namespace

std::size_t ParsedBitstream::total_words() const {
  std::size_t total = 0;
  for (const BitstreamFrame& frame : frames) total += frame.words.size();
  return total;
}

std::uint32_t frame_crc(std::uint32_t column,
                        std::span<const std::uint32_t> words) {
  Crc32 crc;
  crc.update(bytes::le<4>(column));
  crc.update(bytes::le<4>(static_cast<std::uint32_t>(words.size())));
  for (std::uint32_t word : words) crc.update(bytes::le<4>(word));
  return crc.value();
}

std::vector<std::uint8_t> pack_raw_bitstream(
    std::uint32_t device_id, std::span<const BitstreamFrame> frames) {
  std::vector<std::uint8_t> out;
  bytes::Writer w(out);
  w.u32(kBitstreamMagic);
  w.u32(device_id);
  w.u32(static_cast<std::uint32_t>(frames.size()));
  for (const BitstreamFrame& frame : frames) {
    const std::size_t start = out.size();
    w.u32(frame.column);
    w.u32(static_cast<std::uint32_t>(frame.words.size()));
    for (std::uint32_t word : frame.words) w.u32(word);
    // The frame CRC covers exactly the bytes just written: frame_crc's input.
    w.u32(crc32(std::span(out).subspan(start)));
  }
  w.u32(crc32(out.data(), out.size()));
  return out;
}

std::vector<std::uint8_t> pack_bitstream(const hw::Module& module,
                                         const MappedDesign& design,
                                         const Placement& placement,
                                         const NxDevice& device) {
  // Group instance configuration words by tile column.
  std::map<unsigned, std::vector<std::uint32_t>> columns;
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    const MappedInstance& inst = design.instances[i];
    const auto [x, y] =
        i < placement.location.size() ? placement.location[i]
                                      : std::pair<unsigned, unsigned>{0, 0};
    // Deterministic "configuration word" per instance: identity + geometry.
    std::uint32_t word = static_cast<std::uint32_t>(inst.kind) << 28;
    word |= (y & 0x3FFu) << 18;
    word |= (inst.luts & 0xFFu) << 10;
    word |= static_cast<std::uint32_t>(i) & 0x3FFu;
    columns[x].push_back(word);
    // LUT truth-table payload: one word per LUT.
    if (inst.cell_index != SIZE_MAX) {
      const hw::Cell& cell = module.cells()[inst.cell_index];
      const std::uint32_t mask =
          crc32(&cell.kind, sizeof cell.kind) ^ static_cast<std::uint32_t>(i);
      for (unsigned l = 0; l < inst.luts; ++l) {
        columns[x].push_back(mask + l);
      }
    }
  }

  std::vector<BitstreamFrame> frames;
  frames.reserve(columns.size());
  for (auto& [col, words] : columns) {
    BitstreamFrame frame;
    frame.column = col;
    frame.words = std::move(words);
    frames.push_back(std::move(frame));
  }
  return pack_raw_bitstream(device_id_of(device), frames);
}

Result<BitstreamInfo> verify_bitstream(std::span<const std::uint8_t> image) {
  return decode(image, nullptr);
}

Result<ParsedBitstream> parse_bitstream(std::span<const std::uint8_t> image) {
  ParsedBitstream parsed;
  auto info = decode(image, &parsed.frames);
  if (!info.ok()) return info.status();
  parsed.device_id = info.value().device_id;
  return parsed;
}

}  // namespace hermes::nx
