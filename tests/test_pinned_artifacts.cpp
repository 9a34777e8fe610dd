// Absolute artifact pins. Every other determinism gate compares two runs of
// the same tree, so a refactor that changes what the flow produces would
// still pass them. These constants must only change together with a
// deliberate, documented change to the generated hardware or to the compile
// service's key derivation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "boot/bl.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "hls/flow.hpp"
#include "nxmap/bitstream.hpp"
#include "nxmap/flow.hpp"
#include "svc/service.hpp"

namespace hermes {
namespace {

TEST(PinnedArtifacts, CatalogNetlistDigests) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"sobel", 0x68a97a6774a6ce02ULL},
      {"fir", 0x4357a30ea46b6217ULL},
      {"dense_relu", 0xc342da6e149effb9ULL},
      {"matmul", 0x1fce7eab60c0142bULL},
      {"histogram", 0x915402a21fde9007ULL},
  };
  const std::vector<apps::KernelSpec> kernels = apps::all_kernels();
  ASSERT_EQ(kernels.size(), expected.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    ASSERT_EQ(kernels[k].name, expected[k].first);
    hls::FlowOptions options;
    options.top = kernels[k].name;
    auto flow = hls::run_flow(kernels[k].source, options);
    ASSERT_TRUE(flow.ok()) << kernels[k].name;
    EXPECT_EQ(flow.value().fsmd.module.digest(), expected[k].second)
        << kernels[k].name;
  }
}

// Pins the backend's output (techmap, placement, packing) the netlist
// digests above cannot see: a change that moves a catalog bitstream must
// re-capture its digest and say why.
TEST(PinnedArtifacts, CatalogBitstreamDigests) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"sobel", 0x4962e06434449211ULL},
      {"fir", 0x6dfc8dfa13f8d1e4ULL},
      {"dense_relu", 0xf274028ccc8127abULL},
      {"matmul", 0x1f2f3a965928ebdaULL},
      {"histogram", 0x6c22f20f63dcfb99ULL},
  };
  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  const std::vector<apps::KernelSpec> kernels = apps::all_kernels();
  ASSERT_EQ(kernels.size(), expected.size());
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    ASSERT_EQ(kernels[k].name, expected[k].first);
    hls::FlowOptions options;
    options.top = kernels[k].name;
    auto flow = hls::run_flow(kernels[k].source, options);
    ASSERT_TRUE(flow.ok()) << kernels[k].name;
    auto backend = nx::run_backend(flow.value().fsmd.module, device);
    ASSERT_TRUE(backend.ok()) << kernels[k].name;
    EXPECT_EQ(fnv::mix_bytes(fnv::kOffsetBasis, backend.value().bitstream),
              expected[k].second)
        << kernels[k].name;
  }
}

TEST(PinnedArtifacts, ServiceStageKeys) {
  const apps::KernelSpec spec = apps::fir_kernel(4, 16);
  svc::CompileRequest request;
  request.source = spec.source;
  request.flow.top = spec.name;
  request.flow.constraints.clock_period_ns = 8.0;
  request.backend.place.seed = 3;

  svc::ServiceOptions options;
  options.sweep.ops = {ir::Op::kAdd, ir::Op::kMul};
  options.sweep.widths = {8, 32};
  svc::CompileService service(options);
  const std::vector<svc::CompileOutcome> outcomes = service.run({request});
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.to_string();

  const std::uint64_t expected[] = {
      0x38ee0fe052376defULL,  // characterize
      0xdafb6c8a3f87b991ULL,  // schedule
      0xe8ea88bafa7df8edULL,  // map
      0x22d329b7e6d3a326ULL,  // bitstream
  };
  const std::vector<svc::StageTrace>& stages = outcomes[0].stages;
  ASSERT_EQ(stages.size(), std::size(expected));
  for (std::size_t s = 0; s < stages.size(); ++s) {
    EXPECT_EQ(stages[s].stage, static_cast<svc::Stage>(s));
    EXPECT_EQ(stages[s].key, expected[s]) << svc::to_string(stages[s].stage);
  }
}

// Pins the boot-path wire formats: a fixed load list, and the boot reports of
// fault-free boots from flash and from SpaceWire. A codec change must leave
// every byte (and every charged cycle the reports carry) in place.
TEST(PinnedArtifacts, BootFormatDigests) {
  auto image = [](std::size_t bytes, std::uint8_t seed) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      out[i] = static_cast<std::uint8_t>(seed + i * 7);
    }
    return out;
  };

  boot::LoadList fixed;
  fixed.entries.push_back(boot::make_entry(boot::LoadKind::kSoftware, "app",
                                           image(777, 3), 0x2'0000,
                                           boot::MemoryMap::kDdrBase));
  fixed.entries.push_back(boot::make_entry(boot::LoadKind::kBitstream, "fpga",
                                           image(96, 5), 0x2'0400, 0));
  fixed.entries.push_back(boot::make_entry(boot::LoadKind::kBl2, "bl2",
                                           image(64, 9), 0x2'0500,
                                           boot::MemoryMap::kDdrBase + 0x1000));
  EXPECT_EQ(fnv::mix_bytes(fnv::kOffsetBasis, boot::serialize(fixed)),
            0xcb912af433a24134ULL);

  auto boot_report_digest = [&](boot::BootSource source) {
    boot::BootEnvironment env;
    boot::LoadList list;
    boot::LoadEntry sw;
    sw.kind = boot::LoadKind::kSoftware;
    sw.name = "payload";
    sw.dest_addr = boot::MemoryMap::kDdrBase + 0x1000;
    boot::LoadEntry bl2;
    bl2.kind = boot::LoadKind::kBl2;
    bl2.name = "bl2";
    bl2.dest_addr = boot::MemoryMap::kDdrBase;
    list.entries = {sw, bl2};
    boot::stage_boot_media(env, image(4096, 0x11), list,
                           {image(2048, 0x22), image(1024, 0x33)});
    boot::BootOptions options;
    options.bl1_source = source;
    options.loadlist_source = source;
    const boot::BootResult result = boot::run_boot_chain(env, options);
    EXPECT_EQ(result.reached, boot::BootStage::kApplication);
    return fnv::mix_bytes(fnv::kOffsetBasis, result.report.serialize());
  };
  EXPECT_EQ(boot_report_digest(boot::BootSource::kFlash),
            0x23d6761bb7e901a9ULL);
  EXPECT_EQ(boot_report_digest(boot::BootSource::kSpaceWire),
            0xf04b698560ada80fULL);
}

// Pins faulted boots end to end: seeded fault plans over the flash,
// SpaceWire and eFPGA-programming points, flash radiation on one replica,
// then two configuration scrub passes. The digest covers each boot's report
// bytes (cycles, TMR corrections, retries, fallbacks), the decoded eFPGA
// configuration and every EfpgaStats counter, so a codec, vote, hash or
// flash-store rewrite that moves one correction or one RNG draw fails here.
TEST(PinnedArtifacts, FaultedBootDigests) {
  constexpr std::string_view kPoints[] = {
      "flash.rot.replica",         "flash.rot.voted",
      "spw.frame.corrupt",         "spw.frame.drop",
      "efpga.prog.header.corrupt", "efpga.prog.frame.corrupt",
      "efpga.prog.frame.drop",     "efpga.config.rot"};
  auto image = [](std::size_t bytes, std::uint8_t seed) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      out[i] = static_cast<std::uint8_t>(seed + i * 13 + (i >> 7));
    }
    return out;
  };
  std::vector<nx::BitstreamFrame> frames(8);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].column = static_cast<std::uint32_t>(f);
    for (std::size_t w = 0; w < 24 + 5 * f; ++w) {
      frames[f].words.push_back(
          static_cast<std::uint32_t>((f << 20) ^ (w * 0x9E3779B9u)));
    }
  }
  const std::vector<std::uint8_t> bitstream =
      nx::pack_raw_bitstream(/*device_id=*/0xB007, frames);

  std::uint64_t digest = fnv::kOffsetBasis;
  std::uint64_t flash_corrected = 0, scrub_corrected = 0, booted = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    fault::FaultInjector injector(fault::make_random_plan(seed, kPoints));
    boot::BootEnvironment env;
    env.attach_injector(&injector);
    boot::LoadList list;
    list.entries.resize(3);
    list.entries[0].kind = boot::LoadKind::kBitstream;
    list.entries[0].name = "fabric";
    list.entries[1].kind = boot::LoadKind::kSoftware;
    list.entries[1].name = "payload";
    list.entries[1].dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
    list.entries[2].kind = boot::LoadKind::kBl2;
    list.entries[2].name = "bl2";
    list.entries[2].dest_addr = boot::MemoryMap::kDdrBase;
    boot::stage_boot_media(env, image(2048 + 8 * seed, 0x41), list,
                           {bitstream, image(12288 + 3 * seed, 0x52),
                            image(3072, 0x63)});
    Rng rng(seed);
    env.flash.device(static_cast<unsigned>(seed % 3)).inject_bitflips(256, rng);

    const boot::BootResult result = boot::run_boot_chain(env);
    for (int pass = 0; pass < 2; ++pass) (void)env.soc.scrub_efpga();

    digest = fnv::mix_bytes(digest, result.report.serialize());
    digest = fnv::mix_word(digest, static_cast<std::uint64_t>(result.reached));
    digest = fnv::mix_word(digest, env.soc.efpga_config_digest());
    const boot::EfpgaStats& stats = env.soc.efpga_stats();
    for (const std::uint64_t counter :
         {stats.frames_programmed, stats.frame_crc_mismatches,
          stats.frame_rewrites, stats.header_rewrites, stats.prog_failures,
          stats.scrub_passes, stats.scrub_corrected, stats.scrub_uncorrectable,
          stats.frames_reprogrammed, stats.scrub_silent}) {
      digest = fnv::mix_word(digest, counter);
    }
    digest = fnv::mix_word(digest, injector.total_fires());
    flash_corrected += result.report.flash_corrected_bytes;
    scrub_corrected += stats.scrub_corrected;
    booted += result.status.ok() ? 1 : 0;
  }
  EXPECT_EQ(flash_corrected, 157u);
  EXPECT_EQ(scrub_corrected, 15u);
  EXPECT_EQ(booted, 25u);
  EXPECT_EQ(digest, 0x82ee2219c27ee19fULL);
}

}  // namespace
}  // namespace hermes
