#include "boot/loadlist.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::boot {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t o) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(d[o + i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(std::span<const std::uint8_t> d, std::size_t o) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(d[o + i]) << (8 * i);
  return v;
}

constexpr std::size_t kEntryBytes = 1 + 16 + 8 + 8 + 8 + 32;

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
  put_u32(out, kLoadListMagic);
  put_u32(out, static_cast<std::uint32_t>(list.entries.size()));
  for (const LoadEntry& entry : list.entries) {
    out.push_back(static_cast<std::uint8_t>(entry.kind));
    char name[16] = {0};
    for (std::size_t i = 0; i < entry.name.size() && i < 15; ++i) {
      name[i] = entry.name[i];
    }
    out.insert(out.end(), name, name + 16);
    put_u64(out, entry.source_offset);
    put_u64(out, entry.size);
    put_u64(out, entry.dest_addr);
    out.insert(out.end(), entry.digest.begin(), entry.digest.end());
  }
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

Result<LoadList> parse_load_list(std::span<const std::uint8_t> data) {
  if (data.size() < 12) {
    return Status::Error(ErrorCode::kIntegrityError, "load list truncated");
  }
  if (get_u32(data, 0) != kLoadListMagic) {
    return Status::Error(ErrorCode::kIntegrityError, "bad load-list magic");
  }
  const std::uint32_t crc = get_u32(data, data.size() - 4);
  if (crc32(data.data(), data.size() - 4) != crc) {
    return Status::Error(ErrorCode::kIntegrityError, "load-list CRC mismatch");
  }
  const std::uint32_t count = get_u32(data, 4);
  if (8 + static_cast<std::size_t>(count) * kEntryBytes + 4 != data.size()) {
    return Status::Error(ErrorCode::kIntegrityError,
                         format("load list size inconsistent (%u entries)", count));
  }
  LoadList list;
  std::size_t offset = 8;
  for (std::uint32_t i = 0; i < count; ++i) {
    LoadEntry entry;
    const std::uint8_t kind = data[offset];
    if (kind < 1 || kind > 3) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("entry %u: bad kind %u", i, kind));
    }
    entry.kind = static_cast<LoadKind>(kind);
    // A name is up to 15 bytes, zero-padded to 16: anything after the
    // terminator would be dropped here and the image would not round-trip.
    const char* name = reinterpret_cast<const char*>(data.data() + offset + 1);
    const std::size_t name_length = strnlen(name, 15);
    if (std::any_of(name + name_length, name + 16,
                    [](char c) { return c != 0; })) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("entry %u: name field not zero-padded", i));
    }
    entry.name.assign(name, name_length);
    entry.source_offset = get_u64(data, offset + 17);
    entry.size = get_u64(data, offset + 25);
    entry.dest_addr = get_u64(data, offset + 33);
    for (int b = 0; b < 32; ++b) entry.digest[b] = data[offset + 41 + b];
    list.entries.push_back(std::move(entry));
    offset += kEntryBytes;
  }
  return list;
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
