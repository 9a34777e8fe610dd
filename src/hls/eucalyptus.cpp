#include "hls/eucalyptus.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "common/xml.hpp"
#include "common/xml_parse.hpp"

namespace hermes::hls {

CharacterizationPoint characterize_point(const TechLibrary& lib, ir::Op op,
                                         unsigned width, unsigned stages,
                                         double period_ns) {
  CharacterizationPoint point;
  point.op = op;
  point.width = width;
  point.pipeline_stages = stages;
  point.clock_period_ns = period_ns;
  point.cost = lib.cost(op, width);

  const double total_delay = lib.delay_ns(op, width);
  // Balanced pipeline cut: stages registers divide the path into stages+1
  // segments. Cut registers are not free: one FF per datapath bit per cut.
  const double segment = total_delay / (stages + 1);
  point.delay_ns = segment;
  point.latency = stages + 1;
  point.cost.ffs += static_cast<std::size_t>(stages) * width;

  const double usable = lib.usable_period(period_ns);
  point.meets_timing = segment <= usable;
  const double cycle_floor =
      segment + lib.target().ff_setup_ns + lib.target().clock_skew_ns;
  point.fmax_mhz = cycle_floor > 0 ? 1000.0 / cycle_floor : 0.0;
  return point;
}

std::vector<CharacterizationPoint> run_sweep(const TechLibrary& lib,
                                             const SweepConfig& config,
                                             ThreadPool* pool) {
  struct GridPoint {
    ir::Op op;
    unsigned width, stages;
    double period;
  };
  std::vector<GridPoint> grid;
  grid.reserve(config.ops.size() * config.widths.size() *
               config.pipeline_stages.size() * config.clock_periods_ns.size());
  for (ir::Op op : config.ops) {
    for (unsigned width : config.widths) {
      for (unsigned stages : config.pipeline_stages) {
        for (double period : config.clock_periods_ns) {
          grid.push_back({op, width, stages, period});
        }
      }
    }
  }

  std::vector<CharacterizationPoint> points(grid.size());
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(grid.size(), [&](std::size_t i) {
    const GridPoint& p = grid[i];
    points[i] = characterize_point(lib, p.op, p.width, p.stages, p.period);
  });
  return points;
}

std::string to_xml(const FpgaTarget& target,
                   const std::vector<CharacterizationPoint>& points) {
  XmlWriter xml;
  xml.begin_element("technology");
  xml.attribute("device", target.name);
  xml.attribute("generator", "eucalyptus");
  for (const CharacterizationPoint& point : points) {
    xml.begin_element("cell");
    xml.attribute("operation", ir::to_string(point.op));
    xml.attribute("width", static_cast<std::int64_t>(point.width));
    xml.attribute("pipeline_stages",
                  static_cast<std::int64_t>(point.pipeline_stages));
    xml.attribute("clock_period_ns", point.clock_period_ns);
    xml.begin_element("timing");
    xml.attribute("stage_delay_ns", point.delay_ns);
    xml.attribute("latency_cycles", static_cast<std::int64_t>(point.latency));
    xml.attribute("meets_timing", point.meets_timing ? "true" : "false");
    xml.attribute("fmax_mhz", point.fmax_mhz);
    xml.end_element();
    xml.begin_element("area");
    xml.attribute("luts", static_cast<std::int64_t>(point.cost.luts));
    xml.attribute("carry_bits", static_cast<std::int64_t>(point.cost.carry_bits));
    xml.attribute("dsps", static_cast<std::int64_t>(point.cost.dsps));
    xml.attribute("ffs", static_cast<std::int64_t>(point.cost.ffs));
    xml.end_element();
    xml.end_element();
  }
  xml.end_element();
  return xml.str();
}

Result<std::vector<CharacterizationPoint>> from_xml(std::string_view document,
                                                    std::string* device_name) {
  auto parsed = parse_xml(document);
  if (!parsed.ok()) return parsed.status();
  const XmlNode& root = *parsed.value();
  if (root.name != "technology") {
    return Status::Error(ErrorCode::kParseError,
                         format("expected <technology> root, got <%s>",
                                root.name.c_str()));
  }
  if (device_name) *device_name = root.attr("device");

  std::vector<CharacterizationPoint> points;
  for (const auto& cell : root.children) {
    if (cell->name != "cell") continue;
    CharacterizationPoint point;
    // Terminators are control flow, never a characterized datapath cell.
    const auto op = from_name<ir::Op>(cell->attr("operation"));
    if (!op || ir::is_terminator(*op)) {
      return Status::Error(ErrorCode::kParseError,
                           format("unknown operation '%s'",
                                  cell->attr("operation").c_str()));
    }
    point.op = *op;
    point.width = static_cast<unsigned>(cell->attr_int("width", 32));
    point.pipeline_stages =
        static_cast<unsigned>(cell->attr_int("pipeline_stages", 0));
    point.clock_period_ns = cell->attr_double("clock_period_ns", 10.0);
    const XmlNode* timing = cell->child("timing");
    if (!timing) {
      return Status::Error(ErrorCode::kParseError, "cell without <timing>");
    }
    point.delay_ns = timing->attr_double("stage_delay_ns");
    point.latency = static_cast<unsigned>(timing->attr_int("latency_cycles", 1));
    point.meets_timing = timing->attr("meets_timing") == "true";
    point.fmax_mhz = timing->attr_double("fmax_mhz");
    const XmlNode* area = cell->child("area");
    if (!area) {
      return Status::Error(ErrorCode::kParseError, "cell without <area>");
    }
    point.cost.luts = static_cast<std::size_t>(area->attr_int("luts"));
    point.cost.carry_bits = static_cast<std::size_t>(area->attr_int("carry_bits"));
    point.cost.dsps = static_cast<std::size_t>(area->attr_int("dsps"));
    point.cost.ffs = static_cast<std::size_t>(area->attr_int("ffs"));
    points.push_back(point);
  }
  return points;
}

}  // namespace hermes::hls
