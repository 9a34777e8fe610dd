// Name tests for every enum declared from a HERMES_ENUM list. A missing or
// duplicate name cannot compile (enum_names.hpp static_asserts it); these
// tests pin what the lists generate: enum_count<E> values, each with a name
// that from_name maps back, and "?" for a value outside the list.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "axi/hls_axi.hpp"
#include "axi/protocol.hpp"
#include "boot/bl.hpp"
#include "common/status.hpp"
#include "fault/scrub_memory.hpp"
#include "fdir/event.hpp"
#include "fdir/policy.hpp"
#include "fdir/supervisor.hpp"
#include "frontend/ast.hpp"
#include "frontend/lexer.hpp"
#include "hv/types.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "ir/cdfg.hpp"
#include "ir/ir.hpp"
#include "nxmap/techmap.hpp"
#include "svc/job.hpp"

namespace hermes {
namespace {

/// Asserts to_string over [0, enum_count<Enum>) yields no fallback and no
/// duplicates.
template <typename Enum>
void expect_exhaustive_names(const char* enum_name) {
  std::set<std::string> seen;
  for (std::size_t value = 0; value < enum_count<Enum>; ++value) {
    const std::string name = to_string(static_cast<Enum>(value));
    EXPECT_NE(name, "?") << enum_name << " value " << value << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << enum_name << " value " << value << " duplicates name " << name;
  }
}

TEST(EnumStrings, ErrorCodeNamesAreExhaustive) {
  expect_exhaustive_names<ErrorCode>("ErrorCode");
}

TEST(EnumStrings, FdirLayerNamesAreExhaustive) {
  expect_exhaustive_names<fdir::Layer>("fdir::Layer");
}

TEST(EnumStrings, FdirSeverityNamesAreExhaustive) {
  expect_exhaustive_names<fdir::Severity>("fdir::Severity");
}

TEST(EnumStrings, IsolationActionNamesAreExhaustive) {
  expect_exhaustive_names<fdir::IsolationAction>("fdir::IsolationAction");
}

TEST(EnumStrings, FdirModeNamesAreExhaustive) {
  expect_exhaustive_names<fdir::FdirMode>("fdir::FdirMode");
}

TEST(EnumStrings, SvcStageNamesAreExhaustive) {
  expect_exhaustive_names<svc::Stage>("svc::Stage");
}

/// Every value maps back through from_name; the value one past the list
/// prints "?"; a name outside the list maps to nothing.
template <typename Enum>
void expect_round_trip() {
  for (std::size_t value = 0; value < enum_count<Enum>; ++value) {
    const auto e = static_cast<Enum>(value);
    EXPECT_EQ(from_name<Enum>(to_string(e)), e) << to_string(e);
  }
  EXPECT_STREQ(to_string(static_cast<Enum>(enum_count<Enum>)), "?");
  EXPECT_FALSE(from_name<Enum>("no such name").has_value());
}

template <typename... Enums>
void expect_round_trips() {
  (expect_round_trip<Enums>(), ...);
}

TEST(EnumStrings, EveryListedEnumRoundTripsThroughItsNames) {
  expect_round_trips<axi::AxiMode, axi::Burst, axi::Resp, boot::BootSource,
                     boot::BootStage, ErrorCode, fault::Protection,
                     fdir::Layer, fdir::Severity, fdir::IsolationAction,
                     fdir::FdirMode, fe::TokKind, fe::UnaryOp, fe::BinaryOp,
                     hv::PartitionState, hv::HmEvent, hv::HmAction,
                     hw::CellKind, hw::SimBackend, ir::DepKind, ir::Op,
                     nx::PrimKind, svc::Stage>();
}

}  // namespace
}  // namespace hermes
