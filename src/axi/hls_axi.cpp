#include "axi/hls_axi.hpp"

#include "common/bits.hpp"
#include "common/strings.hpp"
#include "hw/sim.hpp"
#include "ir/interp.hpp"

namespace hermes::axi {

AxiMap default_axi_map(const ir::Function& function, std::uint64_t base) {
  AxiMap map;
  std::uint64_t addr = base;
  for (std::size_t m = 0; m < function.memories().size(); ++m) {
    const ir::MemDecl& decl = function.memories()[m];
    if (!decl.is_interface) continue;
    const unsigned word = ceil_div(decl.element.bits, 8);
    map.base_addr[m] = addr;
    addr += decl.depth * word;
    addr = (addr + 63) & ~63ULL;  // 64-byte align the next array
  }
  return map;
}

Result<AxiRunResult> run_with_axi(const hls::FlowResult& flow,
                                  const std::vector<std::uint64_t>& scalar_args,
                                  AxiSlaveMemory& ddr, const AxiMap& map,
                                  AxiMode mode, const CacheConfig& cache_config,
                                  std::uint64_t max_cycles,
                                  const MasterConfig& master_config) {
  const ir::Function& function = flow.function;
  const bool per_access = mode != AxiMode::kDmaBurst;
  AxiMaster master(ddr, master_config);
  AxiRunResult result;

  auto word_bytes = [&](std::size_t mem) {
    return ceil_div(function.memories()[mem].element.bits, 8);
  };

  // ---- golden model over the same external contents (traced if needed) ----
  ir::Interpreter interp(function);
  std::vector<ir::MemAccess> trace;
  if (per_access) interp.set_trace(&trace);
  for (const auto& [mem, base] : map.base_addr) {
    const ir::MemDecl& decl = function.memories()[mem];
    const unsigned word = word_bytes(mem);
    std::vector<std::uint64_t> image(decl.depth);
    for (std::size_t i = 0; i < decl.depth; ++i) {
      image[i] = ddr.peek_word(base + i * word, word);
    }
    interp.set_memory(mem, image);
  }
  auto golden = interp.run(scalar_args);
  if (!golden.ok()) return golden.status();

  // ---- hardware compute out of local BRAM ----
  hw::Simulator sim(flow.fsmd.module);
  if (!sim.status().ok()) return sim.status();

  // Load interface arrays into the accelerator-local memories. In DMA mode
  // this is the timed burst transfer; in per-access modes the accelerator
  // fetches on demand (priced by the trace replay below), so the preload is
  // an untimed functional shortcut.
  for (const auto& [mem, base] : map.base_addr) {
    const ir::MemDecl& decl = function.memories()[mem];
    const unsigned word = word_bytes(mem);
    if (mode == AxiMode::kDmaBurst) {
      std::vector<std::uint8_t> buffer(decl.depth * word);
      Status dma_in = master.read(base, buffer);
      if (!dma_in.ok()) return dma_in;
      for (std::size_t i = 0; i < decl.depth; ++i) {
        std::uint64_t value = 0;
        for (unsigned b = 0; b < word; ++b) {
          value |= static_cast<std::uint64_t>(buffer[i * word + b]) << (8 * b);
        }
        sim.write_memory(mem, i, value);
      }
    } else {
      for (std::size_t i = 0; i < decl.depth; ++i) {
        sim.write_memory(mem, i, ddr.peek_word(base + i * word, word));
      }
    }
  }

  std::size_t arg_index = 0;
  for (const ir::ParamDecl& param : function.params) {
    if (param.is_array()) continue;
    sim.set_input("arg_" + param.name, scalar_args.at(arg_index++));
  }
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", max_cycles);
  if (!cycles.ok()) return cycles.status();
  result.compute_cycles = cycles.value();

  if (mode == AxiMode::kDmaBurst) {
    // DMA out: only interface arrays the kernel may have written.
    std::vector<bool> stored(function.memories().size(), false);
    for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
      for (const ir::Instr& instr : function.block(b).instrs) {
        if (instr.op == ir::Op::kStore) stored[instr.imm] = true;
      }
    }
    for (const auto& [mem, base] : map.base_addr) {
      if (!stored[mem]) continue;
      const ir::MemDecl& decl = function.memories()[mem];
      const unsigned word = word_bytes(mem);
      std::vector<std::uint8_t> buffer(decl.depth * word);
      for (std::size_t i = 0; i < decl.depth; ++i) {
        const std::uint64_t value = sim.read_memory(mem, i);
        for (unsigned b = 0; b < word; ++b) {
          buffer[i * word + b] = static_cast<std::uint8_t>(value >> (8 * b));
        }
      }
      Status dma_out = master.write(base, buffer);
      if (!dma_out.ok()) return dma_out;
    }
    result.bus = master.stats();
    result.transfer_cycles = result.bus.cycles;
  } else {
    // Per-access replay: run the golden model's dynamic access sequence on
    // the live bus (optionally through the cache). Writes carry the real
    // stored values, so the final DDR contents come out right.
    AxiCache cache(master, cache_config);
    const bool cached = mode == AxiMode::kPerAccessCached;
    for (const ir::MemAccess& access : trace) {
      const auto it = map.base_addr.find(access.mem);
      if (it == map.base_addr.end()) continue;  // accelerator-local memory
      const ir::MemDecl& decl = function.memories()[access.mem];
      if (access.address >= decl.depth) continue;  // OOB dropped (IR policy)
      const unsigned word = word_bytes(access.mem);
      const std::uint64_t ext = it->second + access.address * word;
      if (cached) {
        if (access.is_write) {
          cache.write_word(ext, access.value, word);
        } else {
          cache.read_word(ext, word);
        }
      } else {
        if (access.is_write) {
          Status st = master.write_word(ext, access.value, word);
          if (!st.ok()) return st;
        } else {
          auto value = master.read_word(ext, word);
          if (!value.ok()) return value.status();
        }
      }
    }
    if (cached) {
      cache.flush();
      result.cache = cache.stats();
      if (result.cache.bus_errors > 0) {
        return Status::Error(
            ErrorCode::kInternal,
            format("%llu AXI bus errors during cached replay",
                   static_cast<unsigned long long>(result.cache.bus_errors)));
      }
      result.transfer_cycles = result.cache.cycles;
    } else {
      result.transfer_cycles = master.stats().cycles;
    }
    result.bus = master.stats();

    // The DDR contents above came from the golden trace; validate the
    // *hardware* against the golden model through its local memories.
    for (const auto& [mem, base] : map.base_addr) {
      if (!result.match) break;
      const ir::MemDecl& decl = function.memories()[mem];
      const auto& sw_mem = interp.memory(mem);
      for (std::size_t i = 0; i < decl.depth; ++i) {
        if (sim.read_memory(mem, i) != sw_mem[i]) {
          result.match = false;
          result.mismatch = format("accelerator %s[%zu] diverged from golden",
                                   decl.name.c_str(), i);
          break;
        }
      }
    }
  }
  result.total_cycles = result.compute_cycles + result.transfer_cycles;

  // ---- compare against golden ----
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
  for (const auto& [mem, base] : map.base_addr) {
    if (!result.match) break;
    const ir::MemDecl& decl = function.memories()[mem];
    const unsigned word = word_bytes(mem);
    const auto& sw_mem = interp.memory(mem);
    for (std::size_t i = 0; i < decl.depth; ++i) {
      const std::uint64_t hw_value = ddr.peek_word(base + i * word, word);
      if (truncate(hw_value, decl.element.bits) != sw_mem[i]) {
        result.match = false;
        result.mismatch =
            format("ddr %s[%zu]: hw=%llu sw=%llu", decl.name.c_str(), i,
                   static_cast<unsigned long long>(hw_value),
                   static_cast<unsigned long long>(sw_mem[i]));
        break;
      }
    }
  }
  return result;
}

}  // namespace hermes::axi
