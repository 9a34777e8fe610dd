#include "boot/bl.hpp"

#include <cstring>
#include <sstream>

#include "common/crc.hpp"
#include "common/strings.hpp"

namespace hermes::boot {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
std::uint32_t get_u32(std::span<const std::uint8_t> d, std::size_t o) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(d[o + i]) << (8 * i);
  return v;
}

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
  auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(out, kBootReportMagic);
  put_u32(out, static_cast<std::uint32_t>(steps.size()));
  put_u64(total_cycles);
  put_u64(flash_corrected_bytes);
  put_u64(spw_crc_errors);
  put_u64(integrity_retries);
  put_u64(spw_fallbacks);
  put_u64(efpga_frame_rewrites);
  put_u64(efpga_scrub_corrections);
  for (const StepRecord& step : steps) {
    char name[24] = {0};
    for (std::size_t i = 0; i < step.name.size() && i < 23; ++i) {
      name[i] = step.name[i];
    }
    out.insert(out.end(), name, name + 24);
    out.push_back(step.ok ? 1 : 0);
    put_u64(step.cycles);
  }
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

Result<BootReport> parse_boot_report(std::span<const std::uint8_t> data) {
  auto get_u64 = [&data](std::size_t o) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[o + i]) << (8 * i);
    return v;
  };
  if (data.size() < 68) {
    return Status::Error(ErrorCode::kIntegrityError, "boot report truncated");
  }
  if (get_u32(data, 0) != kBootReportMagic) {
    return Status::Error(ErrorCode::kIntegrityError, "bad boot-report magic");
  }
  const std::uint32_t count = get_u32(data, 4);
  const std::size_t expected = 64 + static_cast<std::size_t>(count) * 33 + 4;
  if (data.size() < expected) {
    return Status::Error(ErrorCode::kIntegrityError, "boot report truncated");
  }
  if (crc32(data.data(), expected - 4) != get_u32(data, expected - 4)) {
    return Status::Error(ErrorCode::kIntegrityError, "boot-report CRC mismatch");
  }
  BootReport report;
  report.total_cycles = get_u64(8);
  report.flash_corrected_bytes = get_u64(16);
  report.spw_crc_errors = get_u64(24);
  report.integrity_retries = get_u64(32);
  report.spw_fallbacks = get_u64(40);
  report.efpga_frame_rewrites = get_u64(48);
  report.efpga_scrub_corrections = get_u64(56);
  std::size_t offset = 64;
  for (std::uint32_t i = 0; i < count; ++i) {
    StepRecord step;
    const char* name = reinterpret_cast<const char*>(data.data() + offset);
    step.name.assign(name, strnlen(name, 23));
    step.ok = data[offset + 24] != 0;
    step.cycles = get_u64(offset + 25);
    report.steps.push_back(std::move(step));
    offset += 33;
  }
  return report;
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
  // BL1 header: magic, size, crc over the image.
  std::vector<std::uint8_t> header;
  put_u32(header, kBl1Magic);
  put_u32(header, static_cast<std::uint32_t>(bl1_image.size()));
  put_u32(header, crc32(bl1_image));
  env.flash.program(FlashLayout::kBl1Header, header);
  env.flash.program(FlashLayout::kBl1Image, bl1_image);

  // SpaceWire hosts the BL1 image with the same header+image framing.
  std::vector<std::uint8_t> spw_bl1 = header;
  spw_bl1.insert(spw_bl1.end(), bl1_image.begin(), bl1_image.end());
  env.spacewire.host_object("bl1", spw_bl1);

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

/// BL0: hard-coded eROM loader (developed in DAHLIA; modeled here because
/// the chain cannot run without it). Fetches BL1 from flash or SpaceWire,
/// checks its CRC, "copies it to SRAM" and branches.
Status run_bl0(BootEnvironment& env, const BootOptions& options,
               BootResult& result) {
  const std::uint64_t start_cycles = env.soc.cycles;
  env.soc.cpu0_initialized = true;  // minimal eROM setup
  env.soc.charge(kCyclesInitCpu0 / 2);

  auto try_flash = [&]() -> Status {
    std::uint8_t header[12];
    const FlashBank::ReadResult h =
        env.flash.read(FlashLayout::kBl1Header, header);
    env.soc.charge(h.cycles);
    result.report.flash_corrected_bytes += h.corrected_bytes;
    if (get_u32(header, 0) != kBl1Magic) {
      return Status::Error(ErrorCode::kIntegrityError, "BL1 header magic bad");
    }
    const std::uint32_t size = get_u32(header, 4);
    const std::uint32_t crc = get_u32(header, 8);
    if (size == 0 || size > MemoryMap::kSramSize) {
      return Status::Error(ErrorCode::kIntegrityError, "BL1 size implausible");
    }
    std::vector<std::uint8_t> image(size);
    const FlashBank::ReadResult r = env.flash.read(FlashLayout::kBl1Image, image);
    env.soc.charge(r.cycles);
    result.report.flash_corrected_bytes += r.corrected_bytes;
    if (crc32(image.data(), image.size()) != crc) {
      return Status::Error(ErrorCode::kIntegrityError, "BL1 image CRC mismatch");
    }
    return env.soc.write_bytes(MemoryMap::kSramBase, image);
  };

  auto try_spacewire = [&]() -> Status {
    std::uint64_t cycles = 0;
    auto fetched = env.spacewire.fetch("bl1", cycles);
    env.soc.charge(cycles);
    if (!fetched.ok()) return fetched.status();
    const auto& data = fetched.value();
    if (data.size() < 12 || get_u32(data, 0) != kBl1Magic) {
      return Status::Error(ErrorCode::kIntegrityError, "remote BL1 header bad");
    }
    const std::uint32_t size = get_u32(data, 4);
    const std::uint32_t crc = get_u32(data, 8);
    if (data.size() < 12 + size) {
      return Status::Error(ErrorCode::kIntegrityError, "remote BL1 truncated");
    }
    std::vector<std::uint8_t> image(data.begin() + 12, data.begin() + 12 + size);
    if (crc32(image.data(), image.size()) != crc) {
      return Status::Error(ErrorCode::kIntegrityError, "remote BL1 CRC mismatch");
    }
    return env.soc.write_bytes(MemoryMap::kSramBase, image);
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

/// BL1 main: hardware bring-up, load-list processing, boot report.
Status run_bl1(BootEnvironment& env, const BootOptions& options,
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
  std::vector<std::uint8_t> list_bytes;
  Status acquire_status;
  if (options.loadlist_source == BootSource::kFlash) {
    // The list size is unknown a priori: read a generous window; parse
    // validates the exact layout. (Real BL1 reads a fixed-size slot.)
    list_bytes.resize(8 * 1024);
    const FlashBank::ReadResult r =
        env.flash.read(FlashLayout::kLoadList, list_bytes);
    env.soc.charge(r.cycles);
    report.flash_corrected_bytes += r.corrected_bytes;
    // Trim to the self-described size: magic+count header.
    if (list_bytes.size() >= 8 && get_u32(list_bytes, 0) == kLoadListMagic) {
      const std::uint32_t count = get_u32(list_bytes, 4);
      const std::size_t expected = 8 + static_cast<std::size_t>(count) * 73 + 4;
      if (expected <= list_bytes.size()) list_bytes.resize(expected);
    }
    acquire_status = Status::Ok();
  } else {
    std::uint64_t cycles = 0;
    auto fetched = env.spacewire.fetch("loadlist", cycles);
    env.soc.charge(cycles);
    if (fetched.ok()) {
      list_bytes = fetched.take();
      acquire_status = Status::Ok();
    } else {
      acquire_status = fetched.status();
    }
  }
  auto parsed = acquire_status.ok()
                    ? parse_load_list(list_bytes)
                    : Result<LoadList>(acquire_status);
  if (!parsed.ok() && options.loadlist_source == BootSource::kFlash &&
      options.spacewire_fallback) {
    ++report.integrity_retries;
    ++report.spw_fallbacks;
    std::uint64_t cycles = 0;
    auto fetched = env.spacewire.fetch("loadlist", cycles);
    env.soc.charge(cycles);
    if (fetched.ok()) parsed = parse_load_list(fetched.value());
  }
  if (!parsed.ok()) {
    step("acquire_load_list", 0, parsed.status());
    return parsed.status();
  }
  const LoadList list = parsed.take();
  step("acquire_load_list", 0, Status::Ok(),
       format("%zu entries via %s", list.entries.size(),
              to_string(options.loadlist_source)));

  // --- entry deployment with integrity management ---
  for (const LoadEntry& entry : list.entries) {
    auto fetch_image = [&](bool via_spw) -> Result<std::vector<std::uint8_t>> {
      if (!via_spw) {
        std::vector<std::uint8_t> image(entry.size);
        const FlashBank::ReadResult r = env.flash.read(entry.source_offset, image);
        env.soc.charge(r.cycles);
        report.flash_corrected_bytes += r.corrected_bytes;
        return image;
      }
      std::uint64_t cycles = 0;
      auto fetched = env.spacewire.fetch(entry.name, cycles);
      env.soc.charge(cycles);
      return fetched;
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
  return Status::Ok();
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

  result.status = run_bl1(env, options, result);
  result.report.total_cycles = env.soc.cycles;
  if (!result.status.ok()) return result;
  result.reached = BootStage::kBl2;

  // "Generation of a BL1 boot report made available for next-stage
  // software": serialize it into DDR at the published address.
  const std::vector<std::uint8_t> serialized = result.report.serialize();
  (void)env.soc.write_bytes(kBootReportAddr, serialized);

  // Re-acquire the (already verified) list for the BL2 handoff check.
  std::vector<std::uint8_t> list_bytes(8 * 1024);
  env.flash.read(FlashLayout::kLoadList, list_bytes);
  if (list_bytes.size() >= 8 && get_u32(list_bytes, 0) == kLoadListMagic) {
    const std::uint32_t count = get_u32(list_bytes, 4);
    const std::size_t expected = 8 + static_cast<std::size_t>(count) * 73 + 4;
    if (expected <= list_bytes.size()) list_bytes.resize(expected);
  }
  auto list = parse_load_list(list_bytes);
  if (list.ok()) {
    result.status = run_bl2(env, list.value(), result);
  } else {
    // SpaceWire-only configurations keep the list remote.
    std::uint64_t cycles = 0;
    auto fetched = env.spacewire.fetch("loadlist", cycles);
    env.soc.charge(cycles);
    if (fetched.ok()) {
      auto remote = parse_load_list(fetched.value());
      result.status = remote.ok() ? run_bl2(env, remote.value(), result)
                                  : remote.status();
    } else {
      result.status = fetched.status();
    }
  }
  result.report.total_cycles = env.soc.cycles;
  if (result.status.ok()) result.reached = BootStage::kApplication;
  return result;
}

}  // namespace hermes::boot
