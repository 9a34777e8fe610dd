// Load-list format.
//
// BL1 processes "a load list ... describing a set of application software to
// be deployed to memory, and bitstream to be programmed in the eFPGA matrix"
// with "management of integrity of deployed software" (HERMES, Sec. IV).
// The binary format carries per-entry SHA-256 digests and a CRC-32-protected
// header, so a corrupted list or image is always detected before deployment.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sha256.hpp"
#include "common/status.hpp"

namespace hermes::boot {

enum class LoadKind : std::uint8_t {
  kSoftware = 1,   ///< image copied to a RAM destination
  kBitstream = 2,  ///< image programmed into the eFPGA matrix
  kBl2 = 3,        ///< next boot stage (branched to after deployment)
};

const char* to_string(LoadKind kind);

struct LoadEntry {
  LoadKind kind = LoadKind::kSoftware;
  std::string name;             ///< <= 15 chars; SpaceWire object name too
  std::uint64_t source_offset = 0;  ///< byte offset in flash (flash boot)
  std::uint64_t size = 0;
  std::uint64_t dest_addr = 0;  ///< RAM destination (software / BL2)
  Sha256Digest digest{};        ///< integrity reference
};

struct LoadList {
  std::vector<LoadEntry> entries;
};

inline constexpr std::uint32_t kLoadListMagic = 0x4C4F4144;  // "LOAD"

/// Serializes with a CRC-32 trailer.
std::vector<std::uint8_t> serialize(const LoadList& list);

/// Parses + CRC-checks an exact image: `data` must end at the CRC trailer.
Result<LoadList> parse_load_list(std::span<const std::uint8_t> data);

/// Parses the load list at the start of a fixed-size slot (BL1's flash
/// window): the extent the header describes is decoded exactly and the rest
/// of the slot is ignored.
Result<LoadList> parse_load_list_slot(std::span<const std::uint8_t> slot);

/// Convenience: builds an entry with the digest of `image` filled in.
LoadEntry make_entry(LoadKind kind, std::string name,
                     std::span<const std::uint8_t> image,
                     std::uint64_t source_offset, std::uint64_t dest_addr);

}  // namespace hermes::boot
