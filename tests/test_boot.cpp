// Tests for the boot substrate: flash TMR, SpaceWire protocol, load list,
// SoC bring-up rules, and the BL0 -> BL1 -> BL2 chain with fault injection.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "boot/bl.hpp"
#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/rng.hpp"
#include "fault/tmr.hpp"
#include "hls/flow.hpp"
#include "nxmap/flow.hpp"

namespace hermes::boot {
namespace {

std::vector<std::uint8_t> pattern_image(std::size_t bytes, std::uint8_t seed) {
  std::vector<std::uint8_t> image(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    image[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return image;
}

/// A minimal staged environment: BL1 image + one software image + BL2.
struct Staged {
  BootEnvironment env;
  LoadList list;
  std::vector<std::vector<std::uint8_t>> images;

  explicit Staged(unsigned flash_replicas = 3, double ber = 0.0)
      : env(flash_replicas, ber) {
    const auto bl1 = pattern_image(4096, 0x11);
    images = {pattern_image(2048, 0x22), pattern_image(1024, 0x33)};
    LoadEntry sw;
    sw.kind = LoadKind::kSoftware;
    sw.name = "payload";
    sw.dest_addr = MemoryMap::kDdrBase + 0x1000;
    LoadEntry bl2;
    bl2.kind = LoadKind::kBl2;
    bl2.name = "bl2";
    bl2.dest_addr = MemoryMap::kDdrBase;
    list.entries = {sw, bl2};
    stage_boot_media(env, bl1, list, images);
  }
};

TEST(Flash, TmrBankCorrectsSingleDeviceCorruption) {
  FlashBank bank(4096, 3);
  const auto image = pattern_image(512, 0x42);
  bank.program(0, image);
  Rng rng(1);
  bank.device(1).inject_bitflips(200, rng);  // heavy damage, one replica
  std::vector<std::uint8_t> readback(512);
  const FlashBank::ReadResult result = bank.read(0, readback);
  EXPECT_EQ(readback, image);
  EXPECT_GT(result.corrected_bytes, 0u);
}

TEST(Flash, SingleBankHasNoProtection) {
  FlashBank bank(4096, 1);
  const auto image = pattern_image(512, 0x42);
  bank.program(0, image);
  Rng rng(2);
  bank.device(0).inject_bitflips(50, rng);
  std::vector<std::uint8_t> readback(512);
  bank.read(0, readback);
  EXPECT_NE(readback, image);
}

TEST(Flash, ReadChargesCycles) {
  FlashBank bank(4096, 3);
  std::vector<std::uint8_t> small(16), large(1024);
  const auto small_read = bank.read(0, small);
  const auto large_read = bank.read(0, large);
  EXPECT_GT(large_read.cycles, small_read.cycles);
}

// The paged flash store against the flat byte vector it replaced: same
// bytes, same clipping at the device end, same cycles, same RNG draws.
struct FlatFlash {
  std::vector<std::uint8_t> store;
  FlashTiming timing;

  std::uint8_t peek(std::uint64_t addr) const {
    return addr < store.size() ? store[addr] : 0xFF;
  }
  void program(std::uint64_t addr, std::span<const std::uint8_t> data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (addr + i < store.size()) store[addr + i] = data[i];
    }
  }
  std::uint64_t read(std::uint64_t addr, std::span<std::uint8_t> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = peek(addr + i);
    return timing.setup_cycles + (out.size() + 3) / 4 * timing.cycles_per_word;
  }
  void inject_bitflips(std::size_t count, Rng& rng) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t byte = rng.next_below(store.size());
      const unsigned bit = static_cast<unsigned>(rng.next_below(8));
      store[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
};

TEST(FlashDifferential, PagedStoreMatchesFlatModel) {
  constexpr std::size_t kBytes = 3 * 4096 + 100;  // last page partial
  const FlashTiming timing{7, 3};
  FlashDevice device(kBytes, timing);
  FlatFlash model{std::vector<std::uint8_t>(kBytes, 0xFF), timing};
  Rng ops(41);
  for (int step = 0; step < 600; ++step) {
    // Addresses reach past the device end so that clipping is exercised.
    const std::uint64_t addr = ops.next_below(kBytes + 600);
    const std::size_t length = ops.next_below(5000);
    switch (ops.next_below(4)) {
      case 0: {
        const auto data = pattern_image(length, static_cast<std::uint8_t>(step));
        device.program(addr, data);
        model.program(addr, data);
        break;
      }
      case 1: {
        std::vector<std::uint8_t> got(length, 0), want(length, 0);
        ASSERT_EQ(device.read(addr, got), model.read(addr, want)) << "step " << step;
        ASSERT_EQ(got, want) << "step " << step << " addr " << addr;
        break;
      }
      case 2:
        ASSERT_EQ(device.peek(addr), model.peek(addr)) << "addr " << addr;
        break;
      default: {
        const std::uint64_t seed = ops.next_u64();
        const std::size_t flips = ops.next_below(40);
        Rng device_rng(seed), model_rng(seed);
        device.inject_bitflips(flips, device_rng);
        model.inject_bitflips(flips, model_rng);
        ASSERT_EQ(device_rng.next_u64(), model_rng.next_u64());
        break;
      }
    }
  }
  std::vector<std::uint8_t> whole(kBytes + 64);
  std::vector<std::uint8_t> want(kBytes + 64);
  EXPECT_EQ(device.read(0, whole), model.read(0, want));
  EXPECT_EQ(whole, want);
  EXPECT_EQ(device.peek(kBytes), 0xFF);
  EXPECT_EQ(device.peek(~0ULL), 0xFF);
}

TEST(FlashDifferential, VotedBankReadMatchesPerByteVote) {
  constexpr std::size_t kBytes = 2 * 4096 + 36;
  FlashBank bank(kBytes, 3);
  std::array<FlatFlash, 3> replicas;
  for (FlatFlash& replica : replicas) {
    replica.store.assign(kBytes, 0xFF);
  }
  const auto image = pattern_image(kBytes - 500, 0x5D);
  bank.program(300, image);
  for (unsigned r = 0; r < 3; ++r) {
    replicas[r].program(300, image);
    Rng device_rng(50 + r), model_rng(50 + r);
    bank.device(r).inject_bitflips(300, device_rng);
    replicas[r].inject_bitflips(300, model_rng);
  }
  Rng ops(51);
  for (int step = 0; step < 200; ++step) {
    const std::uint64_t addr = ops.next_below(kBytes + 40);
    std::vector<std::uint8_t> got(ops.next_below(3000));
    const FlashBank::ReadResult result = bank.read(addr, got);
    std::uint64_t want_cycles = 0, want_corrected = 0;
    std::array<std::vector<std::uint8_t>, 3> copies;
    for (unsigned r = 0; r < 3; ++r) {
      copies[r].resize(got.size());
      want_cycles += replicas[r].read(addr, copies[r]);
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const fault::VoteResult vote =
          fault::vote_bitwise(copies[0][i], copies[1][i], copies[2][i]);
      ASSERT_EQ(got[i], vote.value) << "addr " << addr << " byte " << i;
      want_corrected += vote.corrected ? 1 : 0;
    }
    ASSERT_EQ(result.cycles, want_cycles);
    ASSERT_EQ(result.corrected_bytes, want_corrected) << "addr " << addr;
  }
}

TEST(SpaceWire, FetchHostedObject) {
  SpaceWireLink link;
  link.host_object("obj", pattern_image(1000, 0x55));
  std::uint64_t cycles = 0;
  auto fetched = link.fetch("obj", cycles);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), pattern_image(1000, 0x55));
  EXPECT_GT(cycles, 1000u);  // at least a cycle per byte at 10 cycles/byte
}

TEST(SpaceWire, UnknownObjectNacked) {
  SpaceWireLink link;
  std::uint64_t cycles = 0;
  EXPECT_FALSE(link.fetch("missing", cycles).ok());
}

TEST(SpaceWire, CrcRetriesRecoverNoisyLink) {
  // Moderate BER: chunks get corrupted but retries recover them.
  SpaceWireLink link(SpwTiming{}, 1e-5, 7);
  const auto object = pattern_image(8192, 0x77);
  link.host_object("big", object);
  std::uint64_t cycles = 0;
  auto fetched = link.fetch("big", cycles, 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value(), object);
  EXPECT_GT(link.crc_errors_detected() + link.retries(), 0u);
}

TEST(LoadListFormat, RoundTrip) {
  LoadList list;
  const auto image = pattern_image(777, 3);
  list.entries.push_back(make_entry(LoadKind::kSoftware, "app", image, 0x100,
                                    MemoryMap::kDdrBase));
  list.entries.push_back(make_entry(LoadKind::kBitstream, "fpga", image, 0x800, 0));
  const auto bytes = serialize(list);
  auto parsed = parse_load_list(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().entries[0].name, "app");
  EXPECT_EQ(parsed.value().entries[0].size, 777u);
  EXPECT_EQ(parsed.value().entries[0].digest, sha256(image));
  EXPECT_EQ(parsed.value().entries[1].kind, LoadKind::kBitstream);
}

TEST(LoadListFormat, DetectsCorruption) {
  LoadList list;
  list.entries.push_back(make_entry(LoadKind::kSoftware, "app",
                                    pattern_image(64, 1), 0, 0));
  auto bytes = serialize(list);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    auto corrupted = bytes;
    corrupted[rng.next_below(corrupted.size())] ^= 0x40;
    EXPECT_FALSE(parse_load_list(corrupted).ok());
  }
  bytes.resize(bytes.size() - 6);
  EXPECT_FALSE(parse_load_list(bytes).ok());
}

/// Rewrites the CRC trailer so a mutated image gets past the CRC check and
/// reaches the field decoders.
void reseal(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return;
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// Seeded mutation loop over the decoder: bit flips, truncations and lies in
// the count field, each resealed with a valid CRC. The parser must never
// crash, and every image it accepts must be the one serialize() writes for
// the decoded list — two different images never decode to one list.
TEST(LoadListFormat, MutatedImagesRoundTripOrAreRejected) {
  LoadList list;
  list.entries.push_back(make_entry(LoadKind::kSoftware, "app",
                                    pattern_image(64, 1), 0x100,
                                    MemoryMap::kDdrBase));
  list.entries.push_back(make_entry(LoadKind::kBitstream, "fpga",
                                    pattern_image(32, 2), 0x800, 0));
  list.entries.push_back(make_entry(LoadKind::kBl2, "bl2",
                                    pattern_image(16, 3), 0x900,
                                    MemoryMap::kDdrBase));
  const std::vector<std::uint8_t> original = serialize(list);
  constexpr std::size_t kEntryBytes = 73;
  Rng rng(18);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes = original;
    switch (rng.next_below(3)) {
      case 0: {  // one to three bit flips ahead of the CRC
        const std::uint64_t flips = 1 + rng.next_below(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          bytes[rng.next_below(bytes.size() - 4)] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncation anywhere
        bytes.resize(rng.next_below(bytes.size()));
        break;
      default: {  // a count lie, sometimes with the body resized to match
        const auto count = static_cast<std::uint32_t>(rng.next_below(7));
        for (int i = 0; i < 4; ++i) {
          bytes[4 + i] = static_cast<std::uint8_t>(count >> (8 * i));
        }
        if (rng.next_below(2) == 0) bytes.resize(8 + count * kEntryBytes + 4);
        break;
      }
    }
    reseal(bytes);
    const auto parsed = parse_load_list(bytes);
    if (!parsed.ok()) continue;
    ++accepted;
    ASSERT_EQ(serialize(parsed.value()), bytes) << "trial " << trial;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(Soc, RegionGating) {
  Soc soc;
  std::uint8_t byte = 0;
  // DDR before init fails, after init works.
  EXPECT_FALSE(soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  soc.ddr_ready = true;
  EXPECT_TRUE(soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  // TCM requires enablement.
  EXPECT_FALSE(soc.read_bytes(MemoryMap::kTcmBase, std::span(&byte, 1)).ok());
  soc.tcm_enabled = true;
  EXPECT_TRUE(soc.read_bytes(MemoryMap::kTcmBase, std::span(&byte, 1)).ok());
  // Unmapped address.
  EXPECT_FALSE(soc.read_bytes(0x5000'0000, std::span(&byte, 1)).ok());
}

TEST(Soc, MpuEnforcement) {
  Soc soc;
  soc.ddr_ready = true;
  soc.mpu = {{MemoryMap::kDdrBase, 0x1000, /*writable=*/false}};
  soc.mpu_enabled = true;
  std::uint8_t byte = 7;
  EXPECT_TRUE(soc.read_bytes(MemoryMap::kDdrBase, std::span(&byte, 1)).ok());
  const Status write = soc.write_bytes(MemoryMap::kDdrBase, std::span(&byte, 1));
  EXPECT_FALSE(write.ok());
  EXPECT_EQ(write.code(), ErrorCode::kIsolationFault);
  // Outside all regions: rejected even for reads.
  EXPECT_FALSE(
      soc.read_bytes(MemoryMap::kDdrBase + 0x2000, std::span(&byte, 1)).ok());
}

TEST(Soc, EfpgaRejectsBadBitstream) {
  Soc soc;
  std::vector<std::uint8_t> garbage(100, 0xAB);
  const Status status = soc.program_efpga(garbage);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(soc.efpga_programmed);
}

TEST(BootChain, HappyPathFromFlash) {
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
  EXPECT_EQ(staged.env.soc.cores_released, hv::kNumCores);
  EXPECT_TRUE(staged.env.soc.ddr_ready);
  EXPECT_TRUE(staged.env.soc.mpu_enabled);
  EXPECT_GT(result.bl0_cycles, 0u);
  EXPECT_GT(result.report.total_cycles, result.bl0_cycles);
  // The payload actually landed in DDR.
  std::vector<std::uint8_t> deployed(staged.images[0].size());
  ASSERT_TRUE(staged.env.soc
                  .read_bytes(MemoryMap::kDdrBase + 0x1000, deployed)
                  .ok());
  EXPECT_EQ(deployed, staged.images[0]);
}

TEST(BootChain, HappyPathFromSpaceWire) {
  Staged staged;
  BootOptions options;
  options.bl1_source = BootSource::kSpaceWire;
  options.loadlist_source = BootSource::kSpaceWire;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, ReportListsAllSteps) {
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  ASSERT_TRUE(result.status.ok());
  const std::string report = result.report.render();
  for (const char* step :
       {"init_cpu0", "init_clock_plls", "init_ddr", "init_flash",
        "init_spacewire", "init_tightly_coupled", "init_mpu",
        "acquire_load_list", "deploy payload", "deploy bl2"}) {
    EXPECT_NE(report.find(step), std::string::npos) << step;
  }
}

TEST(BootChain, CorruptedBl1FallsBackToSpaceWire) {
  Staged staged;
  // Destroy the BL1 image in all three flash replicas.
  for (unsigned replica = 0; replica < 3; ++replica) {
    std::vector<std::uint8_t> junk(4096, 0x00);
    staged.env.flash.device(replica).program(FlashLayout::kBl1Image, junk);
  }
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, CorruptedBl1WithoutFallbackFails) {
  Staged staged;
  for (unsigned replica = 0; replica < 3; ++replica) {
    std::vector<std::uint8_t> junk(4096, 0x00);
    staged.env.flash.device(replica).program(FlashLayout::kBl1Image, junk);
  }
  BootOptions options;
  options.spacewire_fallback = false;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.reached, BootStage::kBl0);
  EXPECT_EQ(result.status.code(), ErrorCode::kIntegrityError);
}

// BL0 checks a SpaceWire BL1 with the same header decoder as a flash one,
// so a header announcing an empty image is rejected even though the CRC of
// zero bytes matches.
TEST(BootChain, SpaceWireBl1OfSizeZeroIsRejected) {
  Staged staged;
  std::vector<std::uint8_t> framed;
  bytes::Writer w(framed);
  w.u32(kBl1Magic);
  w.u32(0);
  w.u32(crc32(std::span<const std::uint8_t>()));
  staged.env.spacewire.host_object("bl1", framed);
  BootOptions options;
  options.bl1_source = BootSource::kSpaceWire;
  options.spacewire_fallback = false;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_EQ(result.reached, BootStage::kBl0);
  EXPECT_EQ(result.status.code(), ErrorCode::kIntegrityError);
}

TEST(BootChain, FlashTmrSurvivesScatteredUpsets) {
  Staged staged;
  Rng rng(9);
  // Scatter upsets across all three replicas; TMR voting must absorb them
  // (2 MiB devices, 60 flips each -> vanishing double-hit probability).
  for (unsigned replica = 0; replica < 3; ++replica) {
    staged.env.flash.device(replica).inject_bitflips(60, rng);
  }
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

TEST(BootChain, CorruptedPayloadNeverDeployed) {
  Staged staged;
  // Corrupt the payload image identically in all replicas AND on the
  // SpaceWire host: no clean copy exists anywhere.
  std::vector<std::uint8_t> junk(staged.images[0].size(), 0x5A);
  staged.env.flash.program(staged.list.entries[0].source_offset, junk);
  staged.env.spacewire.host_object("payload", junk);
  const BootResult result = run_boot_chain(staged.env);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kIntegrityError);
  EXPECT_EQ(result.reached, BootStage::kBl1);
  EXPECT_GT(result.report.integrity_retries, 0u);
  // Nothing was written to the destination.
  std::vector<std::uint8_t> ddr(junk.size());
  ASSERT_TRUE(
      staged.env.soc.read_bytes(MemoryMap::kDdrBase + 0x1000, ddr).ok());
  EXPECT_EQ(ddr, std::vector<std::uint8_t>(junk.size(), 0));
}

TEST(BootChain, BitstreamEntryProgramsEfpga) {
  // Full-stack: synthesize a kernel, run the NXmap backend, put the real
  // bitstream in the load list, and let BL1 program the eFPGA.
  hls::FlowOptions options;
  options.top = "f";
  auto flow = hls::run_flow("int f(int a) { return a * 3 + 1; }", options);
  ASSERT_TRUE(flow.ok());
  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  auto backend = nx::run_backend(flow.value().fsmd.module, device);
  ASSERT_TRUE(backend.ok());

  BootEnvironment env;
  LoadList list;
  LoadEntry bs;
  bs.kind = LoadKind::kBitstream;
  bs.name = "accel";
  LoadEntry bl2;
  bl2.kind = LoadKind::kBl2;
  bl2.name = "bl2";
  bl2.dest_addr = MemoryMap::kDdrBase;
  list.entries = {bs, bl2};
  stage_boot_media(env, pattern_image(4096, 0x11), list,
                   {backend.value().bitstream, pattern_image(1024, 0x33)});

  const BootResult result = run_boot_chain(env);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_TRUE(env.soc.efpga_programmed);
  EXPECT_GT(env.soc.efpga_frames, 0u);
}

TEST(BootChain, MissingBl2EntryStopsAtBl2) {
  BootEnvironment env;
  LoadList list;
  LoadEntry sw;
  sw.kind = LoadKind::kSoftware;
  sw.name = "only_sw";
  sw.dest_addr = MemoryMap::kDdrBase;
  list.entries = {sw};
  stage_boot_media(env, pattern_image(4096, 0x11), list,
                   {pattern_image(512, 0x22)});
  const BootResult result = run_boot_chain(env);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.reached, BootStage::kBl2);
}

// BL2 branches on the load list BL1 verified. Flash read 4 is the first
// read after BL1 deployed everything; rotting it with SpaceWire dead must not
// fail a boot, because nothing after BL1 reads the list again.
TEST(BootChain, Bl2TakesTheListBl1Verified) {
  int failed = 0;
  std::string first_failure;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    fault::FaultSchedule rot;
    rot.probability = 1.0;
    rot.window_begin = 4;
    rot.window_end = 5;
    fault::FaultSchedule drop;
    drop.probability = 1.0;
    plan.points = {{"flash.rot.voted", rot}, {"spw.frame.drop", drop}};
    fault::FaultInjector injector(plan);

    BootEnvironment env;
    env.attach_injector(&injector);
    LoadList list;
    LoadEntry bl2;
    bl2.kind = LoadKind::kBl2;
    bl2.name = "bl2";
    bl2.dest_addr = MemoryMap::kDdrBase;
    list.entries = {bl2};
    stage_boot_media(env, pattern_image(1024, 0x11), list,
                     {pattern_image(2048, 0x33)});
    const BootResult result = run_boot_chain(env);
    if (result.reached != BootStage::kApplication && failed++ == 0) {
      first_failure = "seed " + std::to_string(seed) + " stopped at " +
                      to_string(result.reached) + ": " +
                      result.status.to_string();
    }
  }
  EXPECT_EQ(failed, 0) << first_failure;
}

// Parameterized: boot succeeds across replica counts and link-noise levels.
struct BootEnvCase {
  unsigned replicas;
  double ber;
  BootSource source;
};

// Names each case by its fields: gtest's default byte dump would include the
// struct's uninitialized padding, which changes the test name run to run.
void PrintTo(const BootEnvCase& c, std::ostream* os) {
  *os << to_string(c.source) << " x" << c.replicas << " ber " << c.ber;
}

class BootMatrix : public ::testing::TestWithParam<BootEnvCase> {};

TEST_P(BootMatrix, ReachesApplication) {
  const BootEnvCase& c = GetParam();
  Staged staged(c.replicas, c.ber);
  BootOptions options;
  options.bl1_source = c.source;
  options.loadlist_source = c.source;
  const BootResult result = run_boot_chain(staged.env, options);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, BootStage::kApplication);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, BootMatrix,
    ::testing::Values(BootEnvCase{1, 0.0, BootSource::kFlash},
                      BootEnvCase{3, 0.0, BootSource::kFlash},
                      BootEnvCase{3, 0.0, BootSource::kSpaceWire},
                      BootEnvCase{3, 1e-6, BootSource::kSpaceWire},
                      BootEnvCase{1, 1e-6, BootSource::kSpaceWire}));

}  // namespace
}  // namespace hermes::boot

// Boot-report persistence tests appended as a separate suite.
namespace hermes::boot {
namespace {

TEST(BootReportPersistence, SerializedRoundTrip) {
  BootReport report;
  report.total_cycles = 123456;
  report.flash_corrected_bytes = 7;
  report.spw_crc_errors = 2;
  report.integrity_retries = 1;
  report.steps.push_back({"init_cpu0_regs_caches_exc", true, 500, ""});
  report.steps.push_back({"deploy payload", false, 42, "detail ignored"});
  const auto bytes = report.serialize();
  auto parsed = parse_boot_report(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().total_cycles, 123456u);
  EXPECT_EQ(parsed.value().flash_corrected_bytes, 7u);
  ASSERT_EQ(parsed.value().steps.size(), 2u);
  // Step names are stored in fixed 24-byte fields (23 chars + NUL).
  EXPECT_EQ(parsed.value().steps[0].name, "init_cpu0_regs_caches_e");
  EXPECT_TRUE(parsed.value().steps[0].ok);
  EXPECT_FALSE(parsed.value().steps[1].ok);
  EXPECT_EQ(parsed.value().steps[1].cycles, 42u);
}

TEST(BootReportPersistence, CorruptionDetected) {
  BootReport report;
  report.steps.push_back({"step", true, 1, ""});
  auto bytes = report.serialize();
  bytes[10] ^= 0xFF;
  EXPECT_FALSE(parse_boot_report(bytes).ok());
  EXPECT_FALSE(parse_boot_report({}).ok());
}

// Seeded mutation loop over the boot-report decoder, the companion of
// LoadListFormat.MutatedImagesRoundTripOrAreRejected: bit flips,
// truncations, count lies, pokes into the name fields and the ok bytes (each
// resealed), and bytes appended past the CRC trailer. Every image the exact
// decoder accepts is the one serialize() writes for its decode. The slot
// decoder sees the same image at the start of a 4 KiB slot and must
// re-encode the slot's prefix over the decoded extent.
TEST(BootReportPersistence, MutatedImagesRoundTripOrAreRejected) {
  BootReport report;
  report.total_cycles = 123456;
  report.flash_corrected_bytes = 7;
  report.spw_crc_errors = 2;
  report.integrity_retries = 1;
  report.spw_fallbacks = 1;
  report.steps.push_back({"init_cpu0", true, 500, ""});
  report.steps.push_back({"deploy payload", false, 42, ""});
  report.steps.push_back({"scrub_efpga", true, 9, ""});
  const std::vector<std::uint8_t> original = report.serialize();
  constexpr std::size_t kHeaderBytes = 64;
  constexpr std::size_t kStepBytes = 24 + 1 + 8;
  Rng rng(20);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes = original;
    const std::size_t step_field =
        kHeaderBytes + rng.next_below(report.steps.size()) * kStepBytes;
    bool seal = true;
    switch (rng.next_below(6)) {
      case 0: {  // one to three bit flips ahead of the CRC
        const std::uint64_t flips = 1 + rng.next_below(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          bytes[rng.next_below(bytes.size() - 4)] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncation anywhere
        bytes.resize(rng.next_below(bytes.size()));
        break;
      case 2: {  // a count lie, sometimes with the body resized to match
        const auto count = static_cast<std::uint32_t>(rng.next_below(6));
        for (int i = 0; i < 4; ++i) {
          bytes[4 + i] = static_cast<std::uint8_t>(count >> (8 * i));
        }
        if (rng.next_below(2) == 0) {
          bytes.resize(kHeaderBytes + count * kStepBytes + 4);
        }
        break;
      }
      case 3:  // a non-zero byte anywhere in a name field
        bytes[step_field + rng.next_below(24)] =
            static_cast<std::uint8_t>(1 + rng.next_below(255));
        break;
      case 4:  // any ok byte
        bytes[step_field + 24] = static_cast<std::uint8_t>(rng.next_below(256));
        break;
      default: {  // bytes past the extent; the trailer stays valid
        const std::uint64_t extra = 1 + rng.next_below(8);
        for (std::uint64_t e = 0; e < extra; ++e) {
          bytes.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        seal = false;
        break;
      }
    }
    if (seal) reseal(bytes);
    const auto parsed = parse_boot_report(bytes);
    if (parsed.ok()) {
      ++accepted;
      ASSERT_EQ(parsed.value().serialize(), bytes) << "trial " << trial;
    }
    std::vector<std::uint8_t> slot = bytes;
    slot.resize(4096, 0xA5);
    const auto from_slot = parse_boot_report_slot(slot);
    if (from_slot.ok()) {
      const std::vector<std::uint8_t> encoded = from_slot.value().serialize();
      ASSERT_EQ(encoded, std::vector<std::uint8_t>(
                             slot.begin(), slot.begin() + encoded.size()))
          << "trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(BootReportPersistence, NextStageReadsReportFromDdr) {
  // The paper's requirement: the report is "made available for next-stage
  // software" — read it back from the published DDR address after boot.
  Staged staged;
  const BootResult result = run_boot_chain(staged.env);
  ASSERT_TRUE(result.status.ok());
  std::vector<std::uint8_t> raw(4096);
  ASSERT_TRUE(staged.env.soc.read_bytes(kBootReportAddr, raw).ok());
  auto parsed = parse_boot_report_slot(raw);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().steps.size(), result.report.steps.size());
  EXPECT_GT(parsed.value().total_cycles, 0u);
  // Step names survive (truncated to 23 chars).
  EXPECT_EQ(parsed.value().steps[0].name.substr(0, 9), "init_cpu0");
}

}  // namespace
}  // namespace hermes::boot
