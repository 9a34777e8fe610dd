// Boot flash device model.
//
// BL1 manages "basic redundancy for software components stored in Flash
// (either through TMR or through sequential accesses to multiple hardware
// Flash components)" (HERMES, Sec. IV). The model provides byte-accurate
// NOR-flash-like devices with read timing and radiation bit-flip injection,
// plus a redundant bank (1 or 3 devices) with TMR-voted reads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cow_memory.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"

namespace hermes::boot {

struct FlashTiming {
  unsigned setup_cycles = 12;    ///< per-command overhead
  unsigned cycles_per_word = 4;  ///< 32-bit word read
};

/// One flash device. The array is erased (0xFF) at construction and stored
/// in copy-on-write pages, so only the pages ever programmed or hit by a bit
/// flip take memory. Bytes past the end of the device read as 0xFF and
/// programming them has no effect.
class FlashDevice {
 public:
  explicit FlashDevice(std::size_t bytes, FlashTiming timing = {})
      : store_(bytes, 0xFF), timing_(timing) {}

  [[nodiscard]] std::size_t size() const { return store_.size(); }

  void program(std::uint64_t addr, std::span<const std::uint8_t> data);
  /// Reads bytes; returns consumed device cycles.
  std::uint64_t read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Radiation: flips `count` random bits anywhere in the array.
  void inject_bitflips(std::size_t count, Rng& rng);

  [[nodiscard]] std::uint8_t peek(std::uint64_t addr) const {
    std::uint8_t byte = 0xFF;
    (void)read(addr, std::span(&byte, 1));
    return byte;
  }

 private:
  CowMemory store_;
  FlashTiming timing_;
};

/// A bank of 1 or 3 flash devices storing identical images. Reads from a
/// 3-device bank are bitwise TMR-voted; corrections are counted.
class FlashBank {
 public:
  /// `replicas` must be 1 or 3.
  FlashBank(std::size_t bytes, unsigned replicas, FlashTiming timing = {});

  /// Registers this bank's injection points ("flash.rot.replica" rots one
  /// TMR copy's read data — the vote masks it; "flash.rot.voted" rots the
  /// post-vote data — only an integrity check above can catch it).
  void attach_injector(fault::FaultInjector* injector);

  [[nodiscard]] unsigned replicas() const {
    return static_cast<unsigned>(devices_.size());
  }
  [[nodiscard]] std::size_t size() const { return devices_[0].size(); }

  /// Programs all replicas.
  void program(std::uint64_t addr, std::span<const std::uint8_t> data);

  struct ReadResult {
    std::uint64_t cycles = 0;
    std::uint64_t corrected_bytes = 0;  ///< TMR vote disagreements fixed
  };
  ReadResult read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Reads one replica without voting — the BL1 per-copy recovery scan uses
  /// this to find an intact image when the bitwise vote itself is poisoned.
  std::uint64_t read_replica(unsigned index, std::uint64_t addr,
                             std::span<std::uint8_t> out) const {
    return devices_.at(index).read(addr, out);
  }

  FlashDevice& device(unsigned index) { return devices_.at(index); }

 private:
  std::vector<FlashDevice> devices_;
  fault::FaultInjector* injector_ = nullptr;
  fault::PointId pt_rot_replica_ = fault::kNoFaultPoint;
  fault::PointId pt_rot_voted_ = fault::kNoFaultPoint;
};

}  // namespace hermes::boot
