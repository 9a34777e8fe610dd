#include "nxmap/techmap.hpp"

#include "common/bits.hpp"
#include "common/strings.hpp"

namespace hermes::nx {
namespace {

/// IR operator corresponding to a netlist cell kind, for the tech library's
/// delay/area model (the library is op-indexed).
ir::Op op_for_cell(hw::CellKind kind) {
  using hw::CellKind;
  switch (kind) {
    case CellKind::kAdd: return ir::Op::kAdd;
    case CellKind::kSub: return ir::Op::kSub;
    case CellKind::kMul: return ir::Op::kMul;
    case CellKind::kDivU: case CellKind::kDivS: return ir::Op::kDiv;
    case CellKind::kRemU: case CellKind::kRemS: return ir::Op::kRem;
    case CellKind::kAnd: return ir::Op::kAnd;
    case CellKind::kOr: return ir::Op::kOr;
    case CellKind::kXor: return ir::Op::kXor;
    case CellKind::kNot: return ir::Op::kNot;
    case CellKind::kShl: return ir::Op::kShl;
    case CellKind::kShrU: case CellKind::kShrS: return ir::Op::kShr;
    case CellKind::kEq: return ir::Op::kEq;
    case CellKind::kNe: return ir::Op::kNe;
    case CellKind::kLtU: case CellKind::kLtS: return ir::Op::kLt;
    case CellKind::kLeU: case CellKind::kLeS: return ir::Op::kLe;
    case CellKind::kMux: return ir::Op::kSelect;
    default: return ir::Op::kCopy;
  }
}

}  // namespace

Result<MappedDesign> techmap(const hw::Module& module, const NxDevice& device) {
  const hls::TechLibrary lib(device.target);
  MappedDesign design;
  design.driver_of_wire.assign(module.wire_count(), SIZE_MAX);

  for (std::size_t c = 0; c < module.cells().size(); ++c) {
    const hw::Cell& cell = module.cells()[c];
    MappedInstance inst;
    inst.cell_index = c;

    const unsigned width =
        cell.outputs.empty() ? (cell.inputs.empty()
                                    ? 1u
                                    : module.wire_width(cell.inputs[0]))
                             : module.wire_width(cell.outputs[0]);

    switch (cell.kind) {
      case hw::CellKind::kRegister:
        inst.kind = PrimKind::kFf;
        inst.ffs = width;
        inst.internal_delay_ns = 0.0;  // clock-to-q folded into ff_setup model
        break;
      case hw::CellKind::kRamRead:
      case hw::CellKind::kRamWrite:
        // Port logic of the memory; the BRAM itself is charged per memory
        // below. Address/data muxing is already explicit as mux cells.
        inst.kind = PrimKind::kBram;
        inst.internal_delay_ns = device.target.bram_access_ns;
        break;
      case hw::CellKind::kMul: {
        inst.kind = PrimKind::kDsp;
        const hls::OpCost cost = lib.cost(ir::Op::kMul, width);
        inst.dsps = static_cast<unsigned>(cost.dsps);
        inst.luts = static_cast<unsigned>(cost.luts);
        inst.internal_delay_ns = lib.delay_ns(ir::Op::kMul, width);
        break;
      }
      case hw::CellKind::kAdd:
      case hw::CellKind::kSub:
      case hw::CellKind::kLtU:
      case hw::CellKind::kLtS:
      case hw::CellKind::kLeU:
      case hw::CellKind::kLeS: {
        inst.kind = PrimKind::kCarryChain;
        const ir::Op op = op_for_cell(cell.kind);
        const hls::OpCost cost = lib.cost(op, width);
        inst.luts = static_cast<unsigned>(cost.luts);
        inst.internal_delay_ns = lib.delay_ns(op, width);
        break;
      }
      default: {
        // Pure wiring: no fabric resources, no delay.
        if (hw::is_wiring(cell.kind)) break;
        const ir::Op op = op_for_cell(cell.kind);
        const hls::OpCost cost = lib.cost(op, width);
        inst.luts = static_cast<unsigned>(cost.luts);
        inst.ffs = static_cast<unsigned>(cost.ffs);
        inst.dsps = static_cast<unsigned>(cost.dsps);
        inst.internal_delay_ns = lib.delay_ns(op, width);
        break;
      }
    }

    const std::size_t index = design.instances.size();
    design.instances.push_back(inst);
    for (hw::WireId wire : cell.outputs) {
      design.driver_of_wire[wire] = index;
    }
  }

  // Memories -> block RAMs (width x depth packed into 48kbit TDP blocks).
  for (std::size_t m = 0; m < module.memories().size(); ++m) {
    const hw::Memory& memory = module.memories()[m];
    MappedInstance inst;
    inst.kind = PrimKind::kBram;
    inst.cell_index = SIZE_MAX;
    inst.memory_index = m;
    const std::size_t bits =
        static_cast<std::size_t>(memory.width) * memory.depth;
    inst.brams = static_cast<unsigned>(
        ceil_div(bits > 0 ? bits : 1, device.target.bram_kbits * 1024));
    inst.internal_delay_ns = device.target.bram_access_ns;
    design.instances.push_back(inst);
  }

  // Utilization + capacity check.
  Utilization& util = design.utilization;
  for (const MappedInstance& inst : design.instances) {
    util.luts += inst.luts;
    util.ffs += inst.ffs;
    util.dsps += inst.dsps;
    util.brams += inst.brams;
  }
  util.lut_pct = 100.0 * static_cast<double>(util.luts) /
                 static_cast<double>(device.total_luts());
  util.dsp_pct = device.total_dsps()
                     ? 100.0 * static_cast<double>(util.dsps) /
                           static_cast<double>(device.total_dsps())
                     : 0.0;
  util.bram_pct = device.total_brams()
                      ? 100.0 * static_cast<double>(util.brams) /
                            static_cast<double>(device.total_brams())
                      : 0.0;
  if (util.luts > device.total_luts()) {
    return Status::Error(ErrorCode::kResourceExhausted,
                         format("%zu LUTs needed, device has %zu", util.luts,
                                device.total_luts()));
  }
  if (util.dsps > device.total_dsps()) {
    return Status::Error(ErrorCode::kResourceExhausted,
                         format("%zu DSPs needed, device has %zu", util.dsps,
                                device.total_dsps()));
  }
  if (util.brams > device.total_brams()) {
    return Status::Error(ErrorCode::kResourceExhausted,
                         format("%zu BRAMs needed, device has %zu", util.brams,
                                device.total_brams()));
  }
  return design;
}

}  // namespace hermes::nx
