#include "boot/bl.hpp"

#include <array>
#include <sstream>

#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::boot {
namespace {

/// Boot report layout: magic, step count, the u64 counters below; per step
/// a zero-padded name, an ok byte and a u64 cycle count; a CRC-32 trailer.
constexpr std::uint64_t BootReport::*kCounters[] = {
    &BootReport::total_cycles,   &BootReport::flash_corrected_bytes,
    &BootReport::spw_crc_errors, &BootReport::integrity_retries,
    &BootReport::spw_fallbacks,  &BootReport::efpga_frame_rewrites,
    &BootReport::efpga_scrub_corrections};
constexpr std::size_t kStepNameBytes = 24;
constexpr std::size_t kCrcBytes = 4;

std::size_t report_bytes(std::uint32_t steps) {
  return 4 + 4 + std::size(kCounters) * 8 +
         static_cast<std::size_t>(steps) * (kStepNameBytes + 1 + 8) +
         kCrcBytes;
}

constexpr std::size_t kBl1HeaderBytes = 4 + 4 + 4;  ///< see Bl1Header

/// BL1 reads the load list from a fixed-size flash slot.
constexpr std::size_t kLoadListSlotBytes = 8 * 1024;

/// Step cycle budgets (reference values for the NG-ULTRA bring-up).
constexpr std::uint64_t kCyclesInitCpu0 = 500;
constexpr std::uint64_t kCyclesInitPll = 2'000;
constexpr std::uint64_t kCyclesInitDdr = 8'000;
constexpr std::uint64_t kCyclesInitFlashCtrl = 1'000;
constexpr std::uint64_t kCyclesInitSpw = 1'500;
constexpr std::uint64_t kCyclesInitTcm = 300;
constexpr std::uint64_t kCyclesInitMpu = 200;
constexpr std::uint64_t kCyclesPerShaByte = 1;  ///< software SHA-256 ~1 B/cycle

}  // namespace

std::vector<std::uint8_t> BootReport::serialize() const {
  std::vector<std::uint8_t> out;
  bytes::Writer w(out);
  w.u32(kBootReportMagic);
  w.u32(static_cast<std::uint32_t>(steps.size()));
  for (auto counter : kCounters) w.u64(this->*counter);
  for (const StepRecord& step : steps) {
    w.padded(step.name, kStepNameBytes);
    w.u8(step.ok ? 1 : 0);
    w.u64(step.cycles);
  }
  w.u32(crc32(out.data(), out.size()));
  return out;
}

Result<BootReport> parse_boot_report(std::span<const std::uint8_t> data) {
  bytes::Reader r(data);
  const std::uint32_t magic = r.u32();
  const std::uint32_t count = r.u32();
  if (r.failed() || magic != kBootReportMagic) {
    return Status::Error(ErrorCode::kIntegrityError, "bad boot-report header");
  }
  if (data.size() != report_bytes(count)) {
    return Status::Error(ErrorCode::kIntegrityError,
                         format("boot report size inconsistent (%u steps)",
                                count));
  }
  const std::span<const std::uint8_t> body = data.first(data.size() - kCrcBytes);
  if (crc32(body) != bytes::Reader(data.subspan(body.size())).u32()) {
    return Status::Error(ErrorCode::kIntegrityError, "boot-report CRC mismatch");
  }
  BootReport report;
  for (auto counter : kCounters) report.*counter = r.u64();
  for (std::uint32_t i = 0; i < count; ++i) {
    // As in the load list: bytes after a name's terminator, or an ok byte
    // other than 0/1, would be lost on decode and the image not round-trip.
    std::optional<std::string> name = r.padded(kStepNameBytes);
    const std::uint8_t ok = r.u8();
    if (!name || ok > 1) {
      return Status::Error(ErrorCode::kIntegrityError,
                           format("step %u: name or ok byte not canonical", i));
    }
    report.steps.push_back({std::move(*name), ok == 1, r.u64(), {}});
  }
  return report;
}

Result<BootReport> parse_boot_report_slot(std::span<const std::uint8_t> slot) {
  bytes::Reader r(slot);
  const bool framed = r.u32() == kBootReportMagic;
  const std::size_t extent = report_bytes(r.u32());
  return parse_boot_report(framed && !r.failed() && extent <= slot.size()
                               ? slot.first(extent)
                               : slot);
}

std::string BootReport::render() const {
  std::ostringstream out;
  out << "=== BL1 boot report ===\n";
  for (const StepRecord& step : steps) {
    out << format("  [%s] %-28s %8llu cycles", step.ok ? "OK" : "FAIL",
                  step.name.c_str(),
                  static_cast<unsigned long long>(step.cycles));
    if (!step.detail.empty()) out << "  " << step.detail;
    out << '\n';
  }
  out << format("  total %llu cycles; flash TMR corrections %llu B; "
                "SpW CRC errors %llu; integrity retries %llu; "
                "SpW fallbacks %llu\n",
                static_cast<unsigned long long>(total_cycles),
                static_cast<unsigned long long>(flash_corrected_bytes),
                static_cast<unsigned long long>(spw_crc_errors),
                static_cast<unsigned long long>(integrity_retries),
                static_cast<unsigned long long>(spw_fallbacks));
  out << format("  eFPGA frame re-writes %llu; config scrub corrections %llu\n",
                static_cast<unsigned long long>(efpga_frame_rewrites),
                static_cast<unsigned long long>(efpga_scrub_corrections));
  return out.str();
}

void stage_boot_media(BootEnvironment& env,
                      std::span<const std::uint8_t> bl1_image, LoadList& list,
                      const std::vector<std::vector<std::uint8_t>>& images) {
  std::vector<std::uint8_t> framed;
  bytes::Writer w(framed);
  w.u32(kBl1Magic);
  w.u32(static_cast<std::uint32_t>(bl1_image.size()));
  w.u32(crc32(bl1_image));
  env.flash.program(FlashLayout::kBl1Header, framed);
  env.flash.program(FlashLayout::kBl1Image, bl1_image);

  // SpaceWire hosts the BL1 image with the same header+image framing.
  w.raw(bl1_image);
  env.spacewire.host_object("bl1", framed);

  // Payload images at increasing offsets.
  std::uint64_t offset = FlashLayout::kImages;
  for (std::size_t i = 0; i < list.entries.size() && i < images.size(); ++i) {
    LoadEntry& entry = list.entries[i];
    entry.source_offset = offset;
    entry.size = images[i].size();
    entry.digest = sha256(images[i]);
    env.flash.program(offset, images[i]);
    env.spacewire.host_object(entry.name, images[i]);
    offset += (images[i].size() + 255) & ~255ULL;
  }

  const std::vector<std::uint8_t> list_bytes = serialize(list);
  env.flash.program(FlashLayout::kLoadList, list_bytes);
  env.spacewire.host_object("loadlist", list_bytes);
}

namespace {

/// A TMR-voted flash read: its cycles are charged, its corrections reported.
void read_flash(BootEnvironment& env, BootReport& report, std::uint64_t addr,
                std::span<std::uint8_t> out) {
  const FlashBank::ReadResult r = env.flash.read(addr, out);
  env.soc.charge(r.cycles);
  report.flash_corrected_bytes += r.corrected_bytes;
}

/// A SpaceWire object fetch with its cycles charged.
Result<std::vector<std::uint8_t>> fetch_spw(BootEnvironment& env,
                                            std::string_view name) {
  std::uint64_t cycles = 0;
  auto fetched = env.spacewire.fetch(name, cycles);
  env.soc.charge(cycles);
  return fetched;
}

/// The BL1 header (magic, image size, image CRC-32) frames the image on
/// flash and on SpaceWire alike, so BL0 checks both sources with it.
struct Bl1Header {
  std::uint32_t magic = 0;
  std::uint32_t size = 0;
  std::uint32_t crc = 0;
};

Result<Bl1Header> read_bl1_header(bytes::Reader& r) {
  const Bl1Header header{r.u32(), r.u32(), r.u32()};
  if (r.failed() || header.magic != kBl1Magic || header.size == 0 ||
      header.size > MemoryMap::kSramSize) {
    return Status::Error(ErrorCode::kIntegrityError,
                         "BL1 header bad (magic or implausible size)");
  }
  return header;
}

/// Checks the image against its header's CRC and copies it to SRAM.
Status load_bl1(Soc& soc, const Bl1Header& header,
                std::span<const std::uint8_t> image) {
  if (crc32(image) != header.crc) {
    return Status::Error(ErrorCode::kIntegrityError, "BL1 image CRC mismatch");
  }
  return soc.write_bytes(MemoryMap::kSramBase, image);
}

/// BL0: hard-coded eROM loader (developed in DAHLIA; modeled here because
/// the chain cannot run without it). Fetches BL1 from flash or SpaceWire,
/// checks its CRC, "copies it to SRAM" and branches.
Status run_bl0(BootEnvironment& env, const BootOptions& options,
               BootResult& result) {
  const std::uint64_t start_cycles = env.soc.cycles;
  env.soc.cpu0_initialized = true;  // minimal eROM setup
  env.soc.charge(kCyclesInitCpu0 / 2);

  auto try_flash = [&]() -> Status {
    std::array<std::uint8_t, kBl1HeaderBytes> raw;
    read_flash(env, result.report, FlashLayout::kBl1Header, raw);
    bytes::Reader r(raw);
    const auto header = read_bl1_header(r);
    if (!header.ok()) return header.status();
    std::vector<std::uint8_t> image(header.value().size);
    read_flash(env, result.report, FlashLayout::kBl1Image, image);
    return load_bl1(env.soc, header.value(), image);
  };

  auto try_spacewire = [&]() -> Status {
    auto fetched = fetch_spw(env, "bl1");
    if (!fetched.ok()) return fetched.status();
    bytes::Reader r(fetched.value());
    const auto header = read_bl1_header(r);
    if (!header.ok()) return header.status();
    const std::span<const std::uint8_t> image = r.raw(header.value().size);
    if (r.failed() || r.remaining() != 0) {
      return Status::Error(ErrorCode::kIntegrityError,
                           "remote BL1 size does not match its header");
    }
    return load_bl1(env.soc, header.value(), image);
  };

  Status status;
  if (options.bl1_source == BootSource::kFlash) {
    status = try_flash();
    if (!status.ok() && options.spacewire_fallback) {
      ++result.report.spw_fallbacks;
      status = try_spacewire();
    }
  } else {
    status = try_spacewire();
    if (!status.ok() && options.spacewire_fallback) {
      status = try_flash();
    }
  }
  result.bl0_cycles = env.soc.cycles - start_cycles;
  return status;
}

/// BL1 main: hardware bring-up, load-list processing, boot report. Returns
/// the load list it verified and deployed, for the BL2 handoff.
Result<LoadList> run_bl1(BootEnvironment& env, const BootOptions& options,
                         BootResult& result) {
  const std::uint64_t start_cycles = env.soc.cycles;
  BootReport& report = result.report;

  auto step = [&](const char* name, std::uint64_t cycles, Status status,
                  std::string detail = {}) {
    env.soc.charge(cycles);
    report.steps.push_back({name, status.ok(), cycles,
                            status.ok() ? std::move(detail)
                                        : status.to_string()});
    return status;
  };

  // --- mandatory hardware initialization (Fig. 5 / Sec. IV list) ---
  env.soc.cpu0_initialized = true;
  step("init_cpu0_regs_caches_exc", kCyclesInitCpu0, Status::Ok());
  env.soc.pll_locked = true;
  step("init_clock_plls", kCyclesInitPll, Status::Ok());
  env.soc.ddr_ready = true;
  step("init_ddr_controller", kCyclesInitDdr, Status::Ok());
  env.soc.flash_ready = true;
  step("init_flash_controller", kCyclesInitFlashCtrl, Status::Ok());
  env.soc.spw_ready = true;
  step("init_spacewire_controller", kCyclesInitSpw, Status::Ok());
  env.soc.tcm_enabled = true;
  step("init_tightly_coupled_memories", kCyclesInitTcm, Status::Ok());

  env.soc.mpu = {
      {MemoryMap::kTcmBase, MemoryMap::kTcmSize, true},
      {MemoryMap::kSramBase, MemoryMap::kSramSize, true},
      {MemoryMap::kDdrBase, env.soc.ddr_size(), true},
  };
  env.soc.mpu_enabled = true;
  step("init_mpu", kCyclesInitMpu, Status::Ok(),
       format("%zu regions", env.soc.mpu.size()));

  // --- load-list acquisition ---
  auto acquire = [&]() -> Result<LoadList> {
    if (options.loadlist_source == BootSource::kSpaceWire) {
      auto fetched = fetch_spw(env, "loadlist");
      if (!fetched.ok()) return fetched.status();
      return parse_load_list(fetched.value());
    }
    std::vector<std::uint8_t> slot(kLoadListSlotBytes);
    read_flash(env, report, FlashLayout::kLoadList, slot);
    return parse_load_list_slot(slot);
  };
  Result<LoadList> parsed = acquire();
  if (!parsed.ok() && options.loadlist_source == BootSource::kFlash &&
      options.spacewire_fallback) {
    ++report.integrity_retries;
    ++report.spw_fallbacks;
    auto fetched = fetch_spw(env, "loadlist");
    if (fetched.ok()) parsed = parse_load_list(fetched.value());
  }
  if (!parsed.ok()) {
    step("acquire_load_list", 0, parsed.status());
    return parsed.status();
  }
  LoadList list = parsed.take();
  step("acquire_load_list", 0, Status::Ok(),
       format("%zu entries via %s", list.entries.size(),
              to_string(options.loadlist_source)));

  // --- entry deployment with integrity management ---
  for (const LoadEntry& entry : list.entries) {
    auto fetch_image = [&](bool via_spw) -> Result<std::vector<std::uint8_t>> {
      if (via_spw) return fetch_spw(env, entry.name);
      std::vector<std::uint8_t> image(entry.size);
      read_flash(env, report, entry.source_offset, image);
      return image;
    };

    bool via_spw = options.loadlist_source == BootSource::kSpaceWire;
    auto image = fetch_image(via_spw);
    // Integrity check: SHA-256 against the load-list digest.
    auto verify = [&](const std::vector<std::uint8_t>& data) {
      env.soc.charge(data.size() * kCyclesPerShaByte);
      return data.size() == entry.size && sha256(data) == entry.digest;
    };
    bool ok = image.ok() && verify(image.value());
    if (!ok) {
      // Recovery ladder: voted re-read (TMR may fix transients), then a
      // per-replica digest scan (finds an intact copy when the voted stream
      // itself is rotten), then SpaceWire. Every rung lands in the report.
      ++report.integrity_retries;
      image = fetch_image(via_spw);
      ok = image.ok() && verify(image.value());
      if (ok) {
        step(("recover " + entry.name).c_str(), 0, Status::Ok(),
             "voted flash re-read");
      }
      if (!ok && !via_spw) {
        for (unsigned r = 0; r < env.flash.replicas() && !ok; ++r) {
          ++report.integrity_retries;
          std::vector<std::uint8_t> copy(entry.size);
          env.soc.charge(env.flash.read_replica(r, entry.source_offset, copy));
          if (verify(copy)) {
            image = std::move(copy);
            ok = true;
            step(("recover " + entry.name).c_str(), 0, Status::Ok(),
                 format("replica %u digest scan", r));
          }
        }
      }
      if (!ok && options.spacewire_fallback && !via_spw) {
        ++report.integrity_retries;
        ++report.spw_fallbacks;
        image = fetch_image(true);
        ok = image.ok() && verify(image.value());
        if (ok) {
          step(("recover " + entry.name).c_str(), 0, Status::Ok(),
               "SpaceWire fallback");
        }
      }
    }
    if (!ok) {
      const Status failure =
          Status::Error(ErrorCode::kIntegrityError,
                        format("image '%s' failed integrity verification",
                               entry.name.c_str()));
      step(("deploy " + entry.name).c_str(), 0, failure);
      return failure;  // a corrupted image is never deployed
    }

    Status deploy;
    switch (entry.kind) {
      case LoadKind::kBitstream:
        deploy = env.soc.program_efpga(image.value());
        break;
      case LoadKind::kSoftware:
      case LoadKind::kBl2:
        deploy = env.soc.write_bytes(entry.dest_addr, image.value());
        // Copy cost: ~4 bytes/cycle.
        env.soc.charge(entry.size / 4);
        break;
    }
    step(("deploy " + entry.name).c_str(), 0, deploy,
         format("%s, %llu bytes -> 0x%llx", to_string(entry.kind),
                static_cast<unsigned long long>(entry.size),
                static_cast<unsigned long long>(entry.dest_addr)));
    if (!deploy.ok()) return deploy;
  }

  // --- configuration-memory scrub (only when a bitstream was deployed) ---
  // One readback/scrub pass over the programmed eFPGA frames: single-bit
  // config-memory upsets are corrected, uncorrectable words force a frame
  // re-program from the retained configuration. Mission software re-runs
  // this periodically; BL1 runs the first pass before the handoff.
  if (env.soc.efpga_programmed) {
    // scrub_efpga charges its own cycles; the step records 0 extra.
    const std::uint64_t healed = env.soc.scrub_efpga();
    const EfpgaStats& efpga = env.soc.efpga_stats();
    step("scrub_efpga", 0, Status::Ok(),
         format("%llu words healed, %llu frames reprogrammed",
                static_cast<unsigned long long>(healed),
                static_cast<unsigned long long>(efpga.frames_reprogrammed)));
  }
  report.efpga_frame_rewrites = env.soc.efpga_stats().frame_rewrites +
                                env.soc.efpga_stats().header_rewrites;
  report.efpga_scrub_corrections = env.soc.efpga_stats().scrub_corrected +
                                   env.soc.efpga_stats().frames_reprogrammed;

  result.bl1_cycles = env.soc.cycles - start_cycles;
  report.spw_crc_errors = env.spacewire.crc_errors_detected();
  return list;
}

/// BL2 / application stage: verify the branch target exists and release the
/// remaining cores ("deploy itself on all the available processor cores").
Status run_bl2(BootEnvironment& env, const LoadList& list, BootResult& result) {
  const std::uint64_t start_cycles = env.soc.cycles;
  const LoadEntry* bl2 = nullptr;
  for (const LoadEntry& entry : list.entries) {
    if (entry.kind == LoadKind::kBl2) bl2 = &entry;
  }
  if (!bl2) {
    return Status::Error(ErrorCode::kNotFound, "no BL2 entry in the load list");
  }
  // Re-hash the deployed bytes: the branch target must be exactly what the
  // load list promised.
  std::vector<std::uint8_t> deployed(bl2->size);
  Status read = env.soc.read_bytes(bl2->dest_addr, deployed);
  if (!read.ok()) return read;
  env.soc.charge(deployed.size() * kCyclesPerShaByte);
  if (sha256(deployed) != bl2->digest) {
    return Status::Error(ErrorCode::kIntegrityError,
                         "BL2 bytes in memory do not match the manifest");
  }
  env.soc.cores_released = hv::kNumCores;
  env.soc.charge(4 * kCyclesInitCpu0);
  result.bl2_cycles = env.soc.cycles - start_cycles;
  return Status::Ok();
}

}  // namespace

BootResult run_boot_chain(BootEnvironment& env, const BootOptions& options) {
  BootResult result;

  result.status = run_bl0(env, options, result);
  if (!result.status.ok()) {
    result.report.total_cycles = env.soc.cycles;
    return result;
  }
  result.reached = BootStage::kBl1;

  const Result<LoadList> list = run_bl1(env, options, result);
  result.status = list.status();
  result.report.total_cycles = env.soc.cycles;
  if (!result.status.ok()) return result;
  result.reached = BootStage::kBl2;

  // "Generation of a BL1 boot report made available for next-stage
  // software": serialize it into SRAM at the published address.
  const std::vector<std::uint8_t> serialized = result.report.serialize();
  (void)env.soc.write_bytes(kBootReportAddr, serialized);

  result.status = run_bl2(env, list.value(), result);
  result.report.total_cycles = env.soc.cycles;
  if (result.status.ok()) result.reached = BootStage::kApplication;
  return result;
}

}  // namespace hermes::boot
