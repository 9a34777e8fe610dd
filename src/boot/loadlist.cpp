#include "boot/loadlist.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::boot {
namespace {

constexpr std::size_t kHeaderBytes = 4 + 4;  ///< magic, entry count
constexpr std::size_t kNameBytes = 16;
constexpr std::size_t kEntryBytes = 1 + kNameBytes + 8 + 8 + 8 + 32;
constexpr std::size_t kCrcBytes = 4;

std::size_t image_bytes(std::uint32_t count) {
  return kHeaderBytes + static_cast<std::size_t>(count) * kEntryBytes +
         kCrcBytes;
}

}  // namespace

const char* to_string(LoadKind kind) {
  switch (kind) {
    case LoadKind::kSoftware: return "software";
    case LoadKind::kBitstream: return "bitstream";
    case LoadKind::kBl2: return "bl2";
  }
  return "?";
}

std::vector<std::uint8_t> serialize(const LoadList& list) {
  std::vector<std::uint8_t> out;
  bytes::Writer w(out);
  w.u32(kLoadListMagic);
  w.u32(static_cast<std::uint32_t>(list.entries.size()));
  for (const LoadEntry& entry : list.entries) {
    w.u8(static_cast<std::uint8_t>(entry.kind));
    w.padded(entry.name, kNameBytes);
    w.u64(entry.source_offset);
    w.u64(entry.size);
    w.u64(entry.dest_addr);
    w.raw(entry.digest);
  }
  w.u32(crc32(out.data(), out.size()));
  return out;
}

Result<LoadList> parse_load_list(std::span<const std::uint8_t> data) {
  bytes::Reader r(data);
  const std::uint32_t magic = r.u32();
  const std::uint32_t count = r.u32();
  if (r.failed() || magic != kLoadListMagic) {
    return Status::Error(ErrorCode::kIntegrityError, "bad load-list header");
  }
  if (image_bytes(count) != data.size()) {
    return Status::Error(ErrorCode::kIntegrityError,
                         format("load list size inconsistent (%u entries)", count));
  }
  const std::span<const std::uint8_t> body = data.first(data.size() - kCrcBytes);
  if (crc32(body) != bytes::Reader(data.subspan(body.size())).u32()) {
    return Status::Error(ErrorCode::kIntegrityError, "load-list CRC mismatch");
  }
  LoadList list;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t kind = r.u8();
    if (kind < 1 || kind > 3) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("entry %u: bad kind %u", i, kind));
    }
    // A name is up to 15 bytes, zero-padded to 16: anything after the
    // terminator would be dropped here and the image would not round-trip.
    std::optional<std::string> name = r.padded(kNameBytes);
    if (!name) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("entry %u: name field not zero-padded", i));
    }
    LoadEntry& entry = list.entries.emplace_back();
    entry.kind = static_cast<LoadKind>(kind);
    entry.name = std::move(*name);
    entry.source_offset = r.u64();
    entry.size = r.u64();
    entry.dest_addr = r.u64();
    const std::span<const std::uint8_t> digest = r.raw(entry.digest.size());
    std::copy(digest.begin(), digest.end(), entry.digest.begin());
  }
  return list;
}

Result<LoadList> parse_load_list_slot(std::span<const std::uint8_t> slot) {
  bytes::Reader r(slot);
  const bool framed = r.u32() == kLoadListMagic;
  const std::size_t extent = image_bytes(r.u32());
  return parse_load_list(framed && !r.failed() && extent <= slot.size()
                             ? slot.first(extent)
                             : slot);
}

LoadEntry make_entry(LoadKind kind, std::string name,
                     std::span<const std::uint8_t> image,
                     std::uint64_t source_offset, std::uint64_t dest_addr) {
  LoadEntry entry;
  entry.kind = kind;
  entry.name = std::move(name);
  entry.source_offset = source_offset;
  entry.size = image.size();
  entry.dest_addr = dest_addr;
  entry.digest = sha256(image);
  return entry;
}

}  // namespace hermes::boot
