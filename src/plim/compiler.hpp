#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "mig/mig.hpp"
#include "plim/allocator.hpp"
#include "plim/program.hpp"
#include "plim/selector.hpp"
#include "util/stats.hpp"

namespace rlim::plim {

/// Compiler policies as factories: compile() constructs one fresh Selector /
/// Allocator pair per compilation, so stateful policy objects never leak
/// state across graphs. Built from registry specs (the spec constructor,
/// which core::PipelineConfig uses) or from any user-supplied factory.
struct CompilerOptions {
  std::function<SelectorPtr()> selector = [] {
    return make_selector(util::PolicySpec{"plim21", {}});
  };
  std::function<AllocatorPtr()> allocator = [] {
    return make_allocator(util::PolicySpec{"lifo", {}});
  };
  /// Maximum write count strategy (paper Table III caps: 10/20/50/100).
  std::optional<std::uint64_t> max_writes;

  CompilerOptions() = default;
  /// Policies named by selectors() / allocators() specs, e.g.
  /// `{{"endurance", {}}, {"min_write", {}}, 20}`.
  CompilerOptions(util::PolicySpec select, util::PolicySpec alloc,
                  std::optional<std::uint64_t> cap = std::nullopt);
};

/// Outcome of compiling one MIG.
struct CompileResult {
  Program program;
  Cell num_cells = 0;                    ///< the paper's #R
  util::WriteStats write_stats;          ///< min/max/STDEV of per-cell writes
  std::size_t gate_instructions = 0;     ///< one closing RM3 per compiled gate
  std::size_t overhead_instructions = 0; ///< const loads, copies, PO materialization
  std::size_t quarantined_cells = 0;     ///< retired by the max-write strategy

  [[nodiscard]] std::size_t num_instructions() const { return program.size(); }
};

/// MIG → RM3 compiler for the PLiM architecture, re-implemented from [21]
/// §III with the endurance extensions of this paper.
///
/// Node translation assigns the three fanins of ⟨f₀f₁f₂⟩ to the RM3 roles
/// (A, B, Z) at minimum cost over all six permutations:
///   * complemented fanin → B is free (RM3 inverts B); A or Z costs a
///     2-instruction complement copy into one extra cell;
///   * plain fanin → A is free; Z is free only when this node is the
///     fanin's last use *and* the cell passes the write cap, else a
///     2-instruction copy into one extra cell;
///   * constant fanin → A/B are free; Z costs one constant-write into a
///     fresh cell.
/// This reproduces the "two additional instructions and one RRAM" cost of
/// every fanout/complement conflict described in the paper.
class PlimCompiler {
public:
  explicit PlimCompiler(CompilerOptions options = {});

  /// Compiles the PO-reachable logic of `mig`. PIs are bound to cells in PI
  /// order and assumed pre-resident (zero program writes); every PO ends in
  /// a plain cell (complemented/constant POs are materialized).
  [[nodiscard]] CompileResult compile(const mig::Mig& mig) const;

  [[nodiscard]] const CompilerOptions& options() const { return options_; }

private:
  CompilerOptions options_;
};

}  // namespace rlim::plim
