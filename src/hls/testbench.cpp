#include "hls/testbench.hpp"

#include "common/strings.hpp"
#include "hw/sim.hpp"

namespace hermes::hls {

Result<CosimResult> cosimulate(
    const FlowResult& flow, const std::vector<std::uint64_t>& scalar_args,
    const std::map<std::size_t, std::vector<std::uint64_t>>& memory_images,
    std::uint64_t max_cycles) {
  const ir::Function& function = flow.function;

  // ---- arguments: checked before either model runs ----
  std::size_t scalar_params = 0;
  for (const ir::ParamDecl& param : function.params) {
    if (!param.is_array()) ++scalar_params;
  }
  if (scalar_args.size() != scalar_params) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         format("%zu scalar arguments for %zu scalar parameters",
                                scalar_args.size(), scalar_params));
  }
  for (const auto& [mem, image] : memory_images) {
    if (mem >= function.memories().size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           format("memory image %zu: function has %zu memories",
                                  mem, function.memories().size()));
    }
    // The interpreter re-seeds local and ROM memories on every run, so an
    // image for one would reach the hardware alone.
    if (!function.memories()[mem].is_interface) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           format("memory image %zu: %s is not an interface memory",
                                  mem, function.memories()[mem].name.c_str()));
    }
    // Both models would drop the words past the end and still agree.
    if (image.size() > function.memories()[mem].depth) {
      return Status::Error(
          ErrorCode::kInvalidArgument,
          format("memory image %zu: %zu words for %s of depth %zu", mem,
                 image.size(), function.memories()[mem].name.c_str(),
                 function.memories()[mem].depth));
    }
  }

  // ---- golden run ----
  ir::Interpreter interp(function);
  for (const auto& [mem, image] : memory_images) {
    interp.set_memory(mem, image);
  }
  auto golden = interp.run(scalar_args);
  if (!golden.ok()) return golden.status();

  // ---- hardware run: the FSMD on the JIT (see testbench.hpp) ----
  hw::Simulator sim(flow.fsmd.module,
                    hw::SimOptions{.backend = hw::SimBackend::kJit});
  if (!sim.status().ok()) return sim.status();
  for (const auto& [mem, image] : memory_images) {
    for (std::size_t i = 0; i < image.size(); ++i) {
      sim.write_memory(mem, i, image[i]);
    }
  }
  std::size_t arg_index = 0;
  for (const ir::ParamDecl& param : function.params) {
    if (param.is_array()) continue;
    sim.set_input("arg_" + param.name, scalar_args[arg_index++]);
  }
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", max_cycles);
  if (!cycles.ok()) return cycles.status();

  CosimResult result;
  result.hw_cycles = cycles.value();
  result.sw_instructions = golden.value().instructions;

  // ---- compare ----
  if (function.return_type.bits != 0) {
    result.return_value = sim.get_output("return_value");
    if (result.return_value != golden.value().return_value) {
      result.match = false;
      result.mismatch = format(
          "return value: hw=%llu sw=%llu",
          static_cast<unsigned long long>(result.return_value),
          static_cast<unsigned long long>(golden.value().return_value));
    }
  }
  for (std::size_t mem = 0; mem < function.memories().size() && result.match;
       ++mem) {
    if (!function.memories()[mem].is_interface) continue;
    const auto& sw_mem = interp.memory(mem);
    for (std::size_t addr = 0; addr < sw_mem.size(); ++addr) {
      const std::uint64_t hw_value = sim.read_memory(mem, addr);
      if (hw_value != sw_mem[addr]) {
        result.match = false;
        result.mismatch = format(
            "memory %s[%zu]: hw=%llu sw=%llu",
            function.memories()[mem].name.c_str(), addr,
            static_cast<unsigned long long>(hw_value),
            static_cast<unsigned long long>(sw_mem[addr]));
        break;
      }
    }
  }

  // Handshake epilogue: release start, return to IDLE.
  sim.set_input("start", 0);
  sim.step();
  return result;
}

}  // namespace hermes::hls
