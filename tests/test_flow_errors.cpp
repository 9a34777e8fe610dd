// Error-path tests: the toolchain must fail loudly and precisely, never
// crash or emit broken artifacts, when given bad input — the robustness side
// of the "functionality and usability" evaluation (paper Sec. V).
#include <gtest/gtest.h>

#include <limits>

#include "hls/flow.hpp"
#include "hv/hypervisor.hpp"

namespace hermes {
namespace {

hls::FlowOptions top(const char* name) {
  hls::FlowOptions options;
  options.top = name;
  return options;
}

TEST(FlowErrors, MissingTopFunction) {
  auto flow = hls::run_flow("int f() { return 1; }", top("nonexistent"));
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().code(), ErrorCode::kNotFound);
  EXPECT_NE(flow.status().message().find("nonexistent"), std::string::npos);
}

TEST(FlowErrors, ParseErrorsCarryLineNumbers) {
  auto flow = hls::run_flow("int f() {\n  return 1 +\n}", top("f"));
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().code(), ErrorCode::kParseError);
  EXPECT_NE(flow.status().message().find("line 3"), std::string::npos);
}

TEST(FlowErrors, TypeErrorsPropagate) {
  auto flow = hls::run_flow("int f() { return ghost; }", top("f"));
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().code(), ErrorCode::kTypeError);
}

TEST(FlowErrors, RecursionRejectedBeforeBackend) {
  auto flow = hls::run_flow("int f(int n) { return n < 1 ? 0 : f(n - 1); }",
                            top("f"));
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().code(), ErrorCode::kTypeError);
  EXPECT_NE(flow.status().message().find("recursi"), std::string::npos);
}

TEST(FlowErrors, FloatTypesRejected) {
  auto flow = hls::run_flow("float f(float a) { return a; }", top("f"));
  ASSERT_FALSE(flow.ok());  // float is not a known type name
}

TEST(FlowErrors, PointersRejected) {
  auto flow = hls::run_flow("int f(int *p) { return 1; }", top("f"));
  ASSERT_FALSE(flow.ok());
}

TEST(FlowErrors, EmptySourceRejected) {
  auto flow = hls::run_flow("", top("f"));
  ASSERT_FALSE(flow.ok());
}

TEST(FlowErrors, ClockPeriodMustBeFiniteAndPositive) {
  const double periods[] = {0.0, -1.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (double period : periods) {
    hls::FlowOptions options = top("f");
    options.constraints.clock_period_ns = period;
    auto flow = hls::run_flow("int f(int a, int b) { return a * b + a; }",
                              options);
    ASSERT_FALSE(flow.ok()) << period;
    EXPECT_EQ(flow.status().code(), ErrorCode::kInvalidArgument) << period;
  }
  hls::FlowOptions options = top("f");
  options.constraints.clock_period_ns = 0.5;
  EXPECT_TRUE(hls::run_flow("int f(int a, int b) { return a * b + a; }",
                            options)
                  .ok());
}

TEST(FlowErrors, SuccessfulFlowHasWellFormedVerilog) {
  auto flow = hls::run_flow(
      "int f(int a[4]) { return a[0] + a[1] + a[2] + a[3]; }", top("f"));
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  const std::string& verilog = flow.value().verilog;
  // Structural sanity: exactly one module/endmodule pair, no placeholder
  // glyphs from unhandled cell kinds.
  std::size_t modules = 0, pos = 0;
  while ((pos = verilog.find("\nmodule ", pos)) != std::string::npos) {
    ++modules;
    ++pos;
  }
  EXPECT_EQ(modules, 1u);
  std::size_t endmodules = 0;
  pos = 0;
  while ((pos = verilog.find("endmodule", pos)) != std::string::npos) {
    ++endmodules;
    ++pos;
  }
  EXPECT_EQ(endmodules, 1u);
  EXPECT_EQ(verilog.find(" ? ;"), std::string::npos);
  EXPECT_EQ(verilog.find("= ?"), std::string::npos);
}

TEST(HvErrors, RunRefusesInvalidConfiguration) {
  hv::HvConfig config;
  config.plan.major_frame = 0;  // invalid
  hv::Hypervisor hv(config);
  auto stats = hv.run(1000);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
}

TEST(HvErrors, PortErrorsSurfaceToCallers) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 500, 0, 0}};
  hv::PartitionConfig p;
  p.name = "p";
  p.region = {0, 0x100};
  p.profile = {1000, 0, 100};
  Status seen;
  p.on_job = [&seen](hv::PartitionApi& api) {
    seen = api.write_port("does_not_exist", {1});
  };
  config.partitions = {p};
  hv::Hypervisor hv(config);
  ASSERT_TRUE(hv.run(1000).ok());
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(seen.code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace hermes
