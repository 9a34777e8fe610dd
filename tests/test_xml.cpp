// XML writer/reader round-trip and the Eucalyptus library round-trip.
#include <gtest/gtest.h>

#include "common/xml_parse.hpp"
#include "hls/eucalyptus.hpp"

namespace hermes {
namespace {

TEST(XmlParse, BasicDocument) {
  auto root = parse_xml(R"(<?xml version="1.0"?>
    <!-- header comment -->
    <top kind="demo">
      <item id="1" value="a&amp;b"/>
      <item id="2">text content</item>
      <nested><deep level="3"/></nested>
    </top>)");
  ASSERT_TRUE(root.ok()) << root.status().to_string();
  const XmlNode& top = *root.value();
  EXPECT_EQ(top.name, "top");
  EXPECT_EQ(top.attr("kind"), "demo");
  ASSERT_EQ(top.children.size(), 3u);
  EXPECT_EQ(top.children[0]->attr("value"), "a&b");
  EXPECT_EQ(top.children[1]->text, "text content");
  EXPECT_EQ(top.children[1]->attr_int("id"), 2);
  const XmlNode* nested = top.child("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->child("deep"), nullptr);
  EXPECT_EQ(nested->child("deep")->attr_int("level"), 3);
}

TEST(XmlParse, RejectsMalformed) {
  EXPECT_FALSE(parse_xml("<a><b></a></b>").ok());   // mismatched nesting
  EXPECT_FALSE(parse_xml("<a attr></a>").ok());      // attribute without value
  EXPECT_FALSE(parse_xml("<a>").ok());               // unclosed
  EXPECT_FALSE(parse_xml("no markup at all").ok());
}

TEST(Eucalyptus, LibraryXmlRoundTrip) {
  const hls::TechLibrary lib(hls::ng_ultra());
  hls::SweepConfig config;
  config.widths = {8, 32};
  config.pipeline_stages = {0, 2};
  config.clock_periods_ns = {4.0, 10.0};
  const auto points = hls::run_sweep(lib, config);
  const std::string document = hls::to_xml(lib.target(), points);

  std::string device;
  auto loaded = hls::from_xml(document, &device);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(device, "NG-ULTRA");
  ASSERT_EQ(loaded.value().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& a = points[i];
    const auto& b = loaded.value()[i];
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.width, b.width) << i;
    EXPECT_EQ(a.pipeline_stages, b.pipeline_stages) << i;
    EXPECT_EQ(a.latency, b.latency) << i;
    EXPECT_EQ(a.meets_timing, b.meets_timing) << i;
    EXPECT_NEAR(a.delay_ns, b.delay_ns, 1e-4) << i;
    EXPECT_EQ(a.cost.luts, b.cost.luts) << i;
    EXPECT_EQ(a.cost.dsps, b.cost.dsps) << i;
    EXPECT_EQ(a.cost.ffs, b.cost.ffs) << i;
  }
}

TEST(Eucalyptus, FromXmlRejectsForeignDocuments) {
  EXPECT_FALSE(hls::from_xml("<other/>").ok());
  EXPECT_FALSE(hls::from_xml(
      "<technology><cell operation=\"warp\" width=\"8\"/></technology>").ok());
  EXPECT_FALSE(hls::from_xml(
      "<technology><cell operation=\"add\" width=\"8\"/></technology>").ok())
      << "cell without timing/area must be rejected";
}

// Any IR op name reads back except a terminator, which is control flow and
// never a characterized cell.
TEST(Eucalyptus, FromXmlReadsEveryNonTerminatorOp) {
  const hls::TechLibrary lib(hls::ng_ultra());
  hls::SweepConfig config;
  config.widths = {8};
  config.pipeline_stages = {0};
  config.clock_periods_ns = {10.0};
  const auto points = hls::run_sweep(lib, config);
  ASSERT_FALSE(points.empty());
  const std::string document = hls::to_xml(lib.target(), {points.front()});
  const std::string attr =
      std::string("operation=\"") + ir::to_string(points.front().op) + "\"";
  const std::size_t at = document.find(attr);
  ASSERT_NE(at, std::string::npos);
  for (std::size_t v = 0; v < enum_count<ir::Op>; ++v) {
    const auto op = static_cast<ir::Op>(v);
    std::string renamed = document;
    renamed.replace(at, attr.size(),
                    std::string("operation=\"") + ir::to_string(op) + "\"");
    const auto loaded = hls::from_xml(renamed);
    EXPECT_EQ(loaded.ok(), !ir::is_terminator(op)) << ir::to_string(op);
    if (loaded.ok()) EXPECT_EQ(loaded.value().front().op, op);
  }
}

}  // namespace
}  // namespace hermes
