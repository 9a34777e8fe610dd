// Tests for the use-case applications: the sobel kernel's edge response is
// checked against the golden model (the whole catalog is co-simulated in
// test_cosim.cpp); the control workloads (AOCS / VBN / EOR) and the
// compression pipeline are validated functionally.
#include <gtest/gtest.h>

#include <string>

#include "apps/aocs.hpp"
#include "apps/ccsds.hpp"
#include "apps/compress.hpp"
#include "apps/eor.hpp"
#include "apps/fixmath.hpp"
#include "apps/kernels.hpp"
#include "apps/vbn.hpp"
#include "common/crc.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "hls/testbench.hpp"

namespace hermes::apps {
namespace {

// ---- HLS kernels (catalog co-simulation lives in test_cosim.cpp) ----

TEST(Kernels, SobelDetectsEdge) {
  // A vertical step edge must produce strong responses along the boundary.
  const KernelSpec spec = sobel_kernel(16, 16);
  hls::FlowOptions options;
  options.top = spec.name;
  auto flow = hls::run_flow(spec.source, options);
  ASSERT_TRUE(flow.ok());
  std::vector<std::uint64_t> image(256, 0);
  for (unsigned y = 0; y < 16; ++y) {
    for (unsigned x = 8; x < 16; ++x) image[y * 16 + x] = 200;
  }
  auto result = cosimulate(flow.value(), {}, {{0, image}, {1, {}}});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().match) << result.value().mismatch;
  // Inspect the golden output via a fresh interpreter run.
  ir::Interpreter interp(flow.value().function);
  interp.set_memory(0, image);
  ASSERT_TRUE(interp.run({}).ok());
  const auto& out = interp.memory(1);
  EXPECT_GT(out[5 * 16 + 8], 200u);  // on the edge: saturated response
  EXPECT_EQ(out[5 * 16 + 3], 0u);    // flat region: zero response
}

// ---- fixed-point math ----

TEST(FixMath, Conversions) {
  EXPECT_EQ(fx_to_int(fx_from_int(42)), 42);
  EXPECT_EQ(fx_from_milli(1500), 3 * kFxOne / 2);
  EXPECT_NEAR(fx_to_double(fx_from_milli(250)), 0.25, 1e-4);
}

TEST(FixMath, MulDiv) {
  const Fx a = fx_from_milli(2500);  // 2.5
  const Fx b = fx_from_milli(4000);  // 4.0
  EXPECT_NEAR(fx_to_double(fx_mul(a, b)), 10.0, 1e-3);
  EXPECT_NEAR(fx_to_double(fx_div(b, a)), 1.6, 1e-3);
  EXPECT_EQ(fx_div(a, 0), 0);  // defined behaviour
}

TEST(FixMath, Sqrt) {
  EXPECT_NEAR(fx_to_double(fx_sqrt(fx_from_int(16))), 4.0, 1e-3);
  EXPECT_NEAR(fx_to_double(fx_sqrt(fx_from_milli(250))), 0.5, 1e-3);
  EXPECT_EQ(fx_sqrt(0), 0);
  EXPECT_EQ(fx_sqrt(-5), 0);
}

TEST(FixMath, SinCos) {
  EXPECT_NEAR(fx_to_double(fx_sin(0)), 0.0, 5e-3);
  EXPECT_NEAR(fx_to_double(fx_sin(kFxPi / 2)), 1.0, 5e-3);
  EXPECT_NEAR(fx_to_double(fx_sin(-kFxPi / 2)), -1.0, 5e-3);
  EXPECT_NEAR(fx_to_double(fx_cos(0)), 1.0, 5e-3);
  EXPECT_NEAR(fx_to_double(fx_sin(kFxPi / 6)), 0.5, 5e-3);
}

// ---- AOCS ----

TEST(Aocs, ConvergesFromInitialError) {
  AocsState state;
  state.attitude_error = {fx_from_milli(200), fx_from_milli(-150),
                          fx_from_milli(100)};
  const AocsConfig config;
  const Fx initial = fx_from_milli(200);
  const Fx final_error = aocs_run(state, config, 600);  // 60 s at 10 Hz
  EXPECT_LT(final_error, initial / 4)
      << "PD controller must reduce the attitude error";
  EXPECT_EQ(state.steps, 600u);
}

TEST(Aocs, TorqueSaturates) {
  AocsState state;
  state.attitude_error = {fx_from_int(10), 0, 0};  // huge error
  AocsConfig config;
  aocs_step(state, config);
  EXPECT_EQ(fx_abs(state.torque_cmd[0]), config.max_torque);
}

TEST(Aocs, Deterministic) {
  AocsState a, b;
  a.attitude_error = b.attitude_error = {fx_from_milli(123), 0, 0};
  const AocsConfig config;
  aocs_run(a, config, 100);
  aocs_run(b, config, 100);
  EXPECT_EQ(a.attitude_error, b.attitude_error);
  EXPECT_EQ(a.rate, b.rate);
}

// ---- VBN ----

TEST(Vbn, CentroidAccuracyOnCleanFrame) {
  Rng rng(5);
  const VbnFrame frame = render_frame(32, 32, 20.5, 11.5, 2.0, 0, rng);
  const VbnMeasurement m = measure_centroid(frame, 30);
  ASSERT_TRUE(m.valid);
  EXPECT_NEAR(m.x, 20.5, 0.5);
  EXPECT_NEAR(m.y, 11.5, 0.5);
}

TEST(Vbn, NoisyFrameStillTracks) {
  Rng rng(6);
  const VbnFrame frame = render_frame(32, 32, 8.0, 24.0, 2.5, 25, rng);
  const VbnMeasurement m = measure_centroid(frame, 60);
  ASSERT_TRUE(m.valid);
  EXPECT_NEAR(m.x, 8.0, 1.5);
  EXPECT_NEAR(m.y, 24.0, 1.5);
}

TEST(Vbn, EmptyFrameInvalid) {
  Rng rng(7);
  const VbnFrame frame = render_frame(32, 32, 16, 16, 2.0, 0, rng);
  const VbnMeasurement m = measure_centroid(frame, 250);  // threshold too high
  EXPECT_FALSE(m.valid);
}

// ---- EOR ----

TEST(Eor, RaisesOrbitToGeo) {
  EorState state;
  const EorConfig config;
  const double initial_dv = eor_remaining_dv(state, config);
  EXPECT_GT(initial_dv, 0.5);  // ~0.9 km/s from 24500 km
  unsigned guard = 0;
  while (!state.on_station && guard++ < 100'000) {
    eor_step(state, config);
  }
  EXPECT_TRUE(state.on_station);
  EXPECT_NEAR(state.sma_km, config.target_sma_km, 1.0);
  EXPECT_NEAR(state.delta_v_used, initial_dv, 0.01);
  EXPECT_GT(state.arcs, 100u);  // low thrust: many arcs
}

TEST(Eor, MonotonicRaise) {
  EorState state;
  const EorConfig config;
  double previous = state.sma_km;
  for (int i = 0; i < 50; ++i) {
    eor_step(state, config);
    EXPECT_GE(state.sma_km, previous);
    previous = state.sma_km;
  }
}

// ---- Rice compression ----

class RiceRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RiceRoundTrip, LosslessOnWaveforms) {
  Rng rng(GetParam());
  std::vector<std::uint16_t> samples(512);
  switch (GetParam() % 4) {
    case 0:  // smooth ramp + noise (typical sensor)
      for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i] = static_cast<std::uint16_t>(1000 + i * 3 + rng.next_below(5));
      }
      break;
    case 1:  // constant
      for (auto& s : samples) s = 0x1234;
      break;
    case 2:  // white noise (worst case)
      for (auto& s : samples) s = static_cast<std::uint16_t>(rng.next_u64());
      break;
    case 3:  // sine-like
      for (std::size_t i = 0; i < samples.size(); ++i) {
        samples[i] = static_cast<std::uint16_t>(
            2048 + fx_to_int(fx_mul(fx_from_int(1000),
                                    fx_sin(static_cast<Fx>(i) * kFxPi / 64))));
      }
      break;
  }
  const RiceConfig config;
  CompressStats stats;
  const auto encoded = rice_encode(samples, config, &stats);
  auto decoded = rice_decode(encoded, samples.size(), config);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), samples);
  EXPECT_EQ(stats.input_bits, samples.size() * 16);
}

INSTANTIATE_TEST_SUITE_P(Waveforms, RiceRoundTrip, ::testing::Range(0, 8));

TEST(Rice, CompressesSmoothData) {
  std::vector<std::uint16_t> samples(1024);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::uint16_t>(5000 + (i % 7));
  }
  CompressStats stats;
  rice_encode(samples, {}, &stats);
  EXPECT_GT(stats.ratio, 3.0) << "smooth sensor data must compress well";
}

TEST(Rice, DetectsTruncatedStream) {
  std::vector<std::uint16_t> samples(64, 42);
  auto encoded = rice_encode(samples, {});
  encoded.resize(encoded.size() / 4);
  EXPECT_FALSE(rice_decode(encoded, samples.size(), {}).ok());
}

}  // namespace
}  // namespace hermes::apps

// CCSDS TM framing tests appended as a separate suite.
namespace hermes::apps {
namespace {

TEST(CcsdsTm, FrameStreamRoundTrip) {
  Rng rng(2121);
  std::vector<std::uint8_t> payload(1000);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_u64());
  TmFrameConfig config;
  std::uint8_t master = 0, vc = 0;
  const auto frames = tm_frame_stream(payload, config, master, vc).value();
  // 248 data bytes per 256-byte frame -> ceil(1000/248) = 5 frames.
  EXPECT_EQ(frames.size(), 5u);
  for (const auto& frame : frames) EXPECT_EQ(frame.size(), 256u);
  auto decoded = tm_decode_stream(frames, config);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_GE(decoded.value().size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(decoded.value()[i], payload[i]) << i;
  }
  // Padding is the idle pattern.
  EXPECT_EQ(decoded.value().back(), 0x55);
}

TEST(CcsdsTm, HeaderFields) {
  TmFrameConfig config;
  config.spacecraft_id = 0x2C5;
  config.virtual_channel = 5;
  std::uint8_t master = 10, vc = 3;
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  const auto frames = tm_frame_stream(payload, config, master, vc).value();
  ASSERT_EQ(frames.size(), 1u);
  auto info = tm_decode_frame(frames[0], config);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().spacecraft_id, 0x2C5);
  EXPECT_EQ(info.value().virtual_channel, 5);
  EXPECT_EQ(info.value().master_count, 10);
  EXPECT_EQ(info.value().vc_count, 3);
  EXPECT_EQ(master, 11);  // counters advanced
  EXPECT_EQ(vc, 4);
}

TEST(CcsdsTm, FecfDetectsCorruption) {
  TmFrameConfig config;
  std::uint8_t master = 0, vc = 0;
  const std::uint8_t payload[16] = {0};
  auto frames = tm_frame_stream(payload, config, master, vc).value();
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    auto corrupted = frames[0];
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(tm_decode_frame(corrupted, config).ok()) << trial;
  }
}

TEST(CcsdsTm, CounterGapDetectsFrameLoss) {
  TmFrameConfig config;
  std::uint8_t master = 0, vc = 0;
  std::vector<std::uint8_t> payload(600, 0xAB);
  auto frames = tm_frame_stream(payload, config, master, vc).value();
  ASSERT_GE(frames.size(), 3u);
  frames.erase(frames.begin() + 1);  // drop the middle frame
  const auto decoded = tm_decode_stream(frames, config);
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("frame loss"), std::string::npos);
}

TEST(CcsdsTm, CountersWrapAt256) {
  TmFrameConfig config;
  std::uint8_t master = 254, vc = 254;
  std::vector<std::uint8_t> payload(700, 1);  // 3 frames: 254, 255, 0
  const auto frames = tm_frame_stream(payload, config, master, vc).value();
  ASSERT_EQ(frames.size(), 3u);
  auto decoded = tm_decode_stream(frames, config);
  EXPECT_TRUE(decoded.ok()) << "wraparound must not look like frame loss";
  EXPECT_EQ(vc, 1);
}

TEST(CcsdsTm, EndToEndCompressedDownlink) {
  // Sensor samples -> Rice compression -> TM frames -> decode -> decompress:
  // the full Sec.-I preprocessing/downlink pipeline, bit-exact.
  std::vector<std::uint16_t> samples(512);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<std::uint16_t>(8000 + (i * 7) % 23);
  }
  CompressStats stats;
  const auto compressed = rice_encode(samples, {}, &stats);
  EXPECT_GT(stats.ratio, 2.0);

  TmFrameConfig config;
  std::uint8_t master = 0, vc = 0;
  const auto frames = tm_frame_stream(compressed, config, master, vc).value();
  auto downlinked = tm_decode_stream(frames, config);
  ASSERT_TRUE(downlinked.ok());
  downlinked.value().resize(compressed.size());  // strip idle padding
  auto restored = rice_decode(downlinked.value(), samples.size(), {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), samples);
}

// Recomputes a frame's FECF so a mutation reaches the header checks.
void refresh_fecf(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kTmFecfBytes) return;
  const std::uint16_t fecf = crc16_ccitt(
      std::span<const std::uint8_t>(frame).first(frame.size() - kTmFecfBytes));
  frame[frame.size() - 2] = static_cast<std::uint8_t>(fecf >> 8);
  frame[frame.size() - 1] = static_cast<std::uint8_t>(fecf);
}

TEST(CcsdsTm, FrameLengthWithoutDataFieldIsRejected) {
  const std::uint8_t payload[3] = {1, 2, 3};
  for (std::size_t length = 0;
       length <= kTmPrimaryHeaderBytes + kTmFecfBytes + 1; ++length) {
    TmFrameConfig config;
    config.frame_length = length;
    const bool has_data_field =
        length > kTmPrimaryHeaderBytes + kTmFecfBytes;
    std::uint8_t master = 7, vc = 9;
    const auto frames = tm_frame_stream(payload, config, master, vc);
    // A frame whose FECF is valid, so only the length can reject it.
    std::vector<std::uint8_t> frame(length, 0);
    refresh_fecf(frame);
    const auto info = tm_decode_frame(frame, config);
    if (has_data_field) {
      ASSERT_TRUE(frames.ok()) << frames.status().to_string();
      EXPECT_EQ(frames.value().size(), 3u);
      ASSERT_TRUE(info.ok()) << info.status().to_string();
      EXPECT_EQ(info.value().data.size(), 1u);
      continue;
    }
    ASSERT_FALSE(frames.ok()) << "length " << length;
    EXPECT_EQ(frames.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(master, 7) << "counters must not advance on a rejected config";
    EXPECT_EQ(vc, 9);
    ASSERT_FALSE(info.ok()) << "length " << length;
    EXPECT_EQ(info.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(CcsdsTm, HeaderFieldsTheEncoderNeverWritesAreRejected) {
  TmFrameConfig config;
  std::uint8_t master = 0, vc = 0;
  const std::uint8_t payload[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  const auto frames = tm_frame_stream(payload, config, master, vc).value();
  ASSERT_TRUE(tm_decode_frame(frames[0], config).ok());
  for (const std::size_t byte : {std::size_t{1}, std::size_t{4},
                                 std::size_t{5}}) {
    auto forged = frames[0];
    forged[byte] |= 1;  // byte 1 bit 0 is the OCF flag; 4-5 the status
    refresh_fecf(forged);
    const auto info = tm_decode_frame(forged, config);
    ASSERT_FALSE(info.ok()) << "byte " << byte;
    EXPECT_EQ(info.status().code(), ErrorCode::kIntegrityError);
  }
}

// Seeded mutation loop over the decoder: bit flips, truncations, splices and
// frame-length lies, each with the FECF recomputed most of the time so the
// mutation reaches the header checks. The decoder must never crash, and a
// frame it accepts must re-encode from its decoded fields to the same bytes.
TEST(CcsdsTm, MutatedFramesDecodeTotallyAndReencodeExactly) {
  Rng rng(0x7C3D);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  // One frame of a random stream: random header fields, counters and data.
  const auto random_frame = [&rng](std::size_t frame_length) {
    TmFrameConfig config;
    config.spacecraft_id = static_cast<std::uint16_t>(rng.next_below(1024));
    config.virtual_channel = static_cast<std::uint8_t>(rng.next_below(8));
    config.frame_length = frame_length;
    std::vector<std::uint8_t> payload(rng.next_below(3 * frame_length));
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_u64());
    std::uint8_t master = static_cast<std::uint8_t>(rng.next_u64());
    std::uint8_t vc = static_cast<std::uint8_t>(rng.next_u64());
    const auto frames = tm_frame_stream(payload, config, master, vc).value();
    return frames[rng.next_below(frames.size())];
  };
  for (int trial = 0; trial < 4000; ++trial) {
    TmFrameConfig config;
    config.frame_length = static_cast<std::size_t>(rng.next_in(9, 40));
    std::vector<std::uint8_t> frame = random_frame(config.frame_length);

    TmFrameConfig decode_config = config;
    switch (rng.next_below(4)) {
      case 0: {  // bit flips, biased towards the header
        const std::uint64_t flips = 1 + rng.next_below(3);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::size_t at =
              rng.next_bool(0.5) ? rng.next_below(kTmPrimaryHeaderBytes)
                                 : rng.next_below(frame.size());
          frame[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      case 1:  // truncation, sometimes with the length lie to match
        frame.resize(rng.next_below(frame.size()));
        if (rng.next_bool(0.5)) decode_config.frame_length = frame.size();
        break;
      case 2: {  // splice: the head of one frame, the tail of another
        const std::vector<std::uint8_t> other = random_frame(frame.size());
        const std::size_t cut = rng.next_below(frame.size() + 1);
        std::copy(other.begin() + static_cast<std::ptrdiff_t>(cut), other.end(),
                  frame.begin() + static_cast<std::ptrdiff_t>(cut));
        break;
      }
      default:  // a frame-length lie, the frame resized to match or not
        decode_config.frame_length = rng.next_below(frame.size() + 4);
        if (rng.next_bool(0.5)) frame.resize(decode_config.frame_length);
        break;
    }
    if (rng.next_bool(0.9)) refresh_fecf(frame);

    const auto info = tm_decode_frame(frame, decode_config);
    if (!info.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    TmFrameConfig reencode_config = decode_config;
    reencode_config.spacecraft_id = info.value().spacecraft_id;
    reencode_config.virtual_channel = info.value().virtual_channel;
    std::uint8_t re_master = info.value().master_count;
    std::uint8_t re_vc = info.value().vc_count;
    const auto reencoded = tm_frame_stream(info.value().data, reencode_config,
                                           re_master, re_vc);
    ASSERT_TRUE(reencoded.ok()) << trial;
    ASSERT_EQ(reencoded.value().size(), 1u) << trial;
    ASSERT_EQ(reencoded.value()[0], frame) << "trial " << trial;
  }
  // Both outcomes must be exercised for the invariant to mean anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace hermes::apps
