// The NG-ULTRA boot chain: BL0 (eROM) -> BL1 (field-loadable) -> BL2/app.
//
// Reproduces the sequence of paper Fig. 5 and the BL1 functional list of
// Sec. IV: master-CPU initialization, mandatory hardware bring-up (PLLs,
// DDR, flash, SpaceWire, TCM), MPU configuration, load-list management from
// flash or SpaceWire, integrity management of deployed software (SHA-256),
// eFPGA matrix programming (integrity-checked bitstream), flash TMR
// redundancy, and generation of a boot report for the next stage.
#pragma once

#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "boot/flash.hpp"
#include "boot/loadlist.hpp"
#include "boot/soc.hpp"
#include "boot/spacewire.hpp"
#include "common/status.hpp"

namespace hermes::boot {

#define HERMES_BOOT_SOURCES(X)                                                \
  X(kFlash, "flash") X(kSpaceWire, "spacewire")
HERMES_ENUM(BootSource, std::uint8_t, HERMES_BOOT_SOURCES)

#define HERMES_BOOT_STAGES(X)                                                 \
  X(kBl0, "BL0") X(kBl1, "BL1") X(kBl2, "BL2") X(kApplication, "application")
HERMES_ENUM(BootStage, std::uint8_t, HERMES_BOOT_STAGES)

/// Flash layout used by the reference configuration.
struct FlashLayout {
  static constexpr std::uint64_t kBl1Header = 0x0000;     ///< magic/size/crc
  static constexpr std::uint64_t kBl1Image = 0x0100;
  static constexpr std::uint64_t kLoadList = 0x1'0000;    ///< 64 KiB
  static constexpr std::uint64_t kImages = 0x2'0000;      ///< payload area
};

inline constexpr std::uint32_t kBl1Magic = 0x424C3148;  // "BL1H"

struct BootOptions {
  BootSource bl1_source = BootSource::kFlash;
  BootSource loadlist_source = BootSource::kFlash;
  /// On an integrity failure from flash, retry once and then fall back to
  /// fetching the object over SpaceWire.
  bool spacewire_fallback = true;
};

/// One executed boot step, for the report.
struct StepRecord {
  std::string name;
  bool ok = true;
  std::uint64_t cycles = 0;
  std::string detail;
};

/// "Generation of a BL1 boot report made available for next-stage software".
/// Besides the in-memory struct, BL1 serializes a compact binary form into
/// SRAM at kBootReportAddr (CRC-protected) so BL2/application code can read
/// it after the handoff.
struct BootReport {
  std::vector<StepRecord> steps;
  std::uint64_t total_cycles = 0;
  std::uint64_t flash_corrected_bytes = 0;  ///< TMR vote corrections
  std::uint64_t spw_crc_errors = 0;
  std::uint64_t integrity_retries = 0;
  std::uint64_t spw_fallbacks = 0;  ///< flash gave up -> SpaceWire recovery
  std::uint64_t efpga_frame_rewrites = 0;  ///< programming-path readback saves
  std::uint64_t efpga_scrub_corrections = 0;  ///< config-memory words healed
  [[nodiscard]] std::string render() const;

  /// Binary serialization (magic + counters + per-step records + CRC-32).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
};

inline constexpr std::uint32_t kBootReportMagic = 0x42525054;  // "BRPT"
/// Fixed location of the serialized report: the top 4 KiB of SRAM — memory
/// BL1 owns, clear of any load-list deployment destination in DDR.
inline constexpr std::uint64_t kBootReportAddr =
    MemoryMap::kSramBase + MemoryMap::kSramSize - 0x1000;

/// Parses + CRC-checks an exact serialized boot report: `data` must end at
/// the CRC trailer.
Result<BootReport> parse_boot_report(std::span<const std::uint8_t> data);

/// Parses the report at the start of a fixed-size slot, as next-stage
/// software does after the BL2 handoff with the 4 KiB at kBootReportAddr:
/// the extent the header describes is decoded exactly and the rest of the
/// slot is ignored.
Result<BootReport> parse_boot_report_slot(std::span<const std::uint8_t> slot);

struct BootResult {
  BootStage reached = BootStage::kBl0;
  Status status;
  BootReport report;
  std::uint64_t bl0_cycles = 0;
  std::uint64_t bl1_cycles = 0;
  std::uint64_t bl2_cycles = 0;
};

/// The test/bench environment: devices the chain runs against.
struct BootEnvironment {
  Soc soc;
  FlashBank flash;
  SpaceWireLink spacewire;

  explicit BootEnvironment(unsigned flash_replicas = 3,
                           double spw_bit_error_rate = 0.0)
      : flash(2 * 1024 * 1024, flash_replicas),
        spacewire(SpwTiming{}, spw_bit_error_rate) {}

  /// Wires one injector into every boot-chain device, including the eFPGA
  /// configuration port.
  void attach_injector(fault::FaultInjector* injector) {
    flash.attach_injector(injector);
    spacewire.attach_injector(injector);
    soc.attach_injector(injector);
  }
};

/// Stages a bootable configuration: writes the BL1 image, load list and all
/// payload images into flash (at FlashLayout offsets) and hosts the same
/// objects on the SpaceWire endpoint. `images` must be parallel to
/// `list.entries` (entry.source_offset/size/digest are filled in here).
void stage_boot_media(BootEnvironment& env,
                      std::span<const std::uint8_t> bl1_image, LoadList& list,
                      const std::vector<std::vector<std::uint8_t>>& images);

/// Runs BL0 -> BL1 -> BL2. Returns how far the chain got and why it
/// stopped; a corrupted image is never deployed or branched to.
BootResult run_boot_chain(BootEnvironment& env, const BootOptions& options = {});

}  // namespace hermes::boot
