#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "plim/instruction.hpp"

namespace rlim::plim {

/// A compiled PLiM program: a straight-line RM3 instruction sequence plus
/// the binding of primary inputs and outputs to crossbar cells.
///
/// Convention (documented write-accounting model): primary inputs are
/// pre-resident in their bound cells before execution starts (loading them is
/// the data's ambient traffic, not the program's); every instruction then
/// performs exactly one write to its destination cell.
///
/// Invariant: every cell a program references — instruction operands and
/// destinations, PI and PO bindings — is below num_cells(). `append` and
/// `bind_*` grow the cell space to cover what they add, `set_num_cells`
/// never shrinks it below a reference, and `adopt_raw` rejects anything
/// outside it, so the invariant holds by construction and `validate()` never
/// fails on a Program. Execution relies on it: a program that fits an array
/// (num_cells() <= RramArray::logical_size()) runs without per-access checks.
class Program {
public:
  /// Appends an instruction; grows the cell space to cover its references.
  /// Throws rlim::Error on a cell index the cell space cannot cover
  /// (the largest Cell value, whose successor wraps).
  void append(const Instruction& instruction);

  [[nodiscard]] std::span<const Instruction> instructions() const {
    return instructions_;
  }
  [[nodiscard]] std::size_t size() const { return instructions_.size(); }

  /// Number of RRAM cells the program touches (the paper's #R).
  [[nodiscard]] Cell num_cells() const { return num_cells_; }
  /// Explicitly widen the cell space (e.g. cells allocated but never written).
  void set_num_cells(Cell count);

  /// Binds the next primary input (in MIG PI order) to `cell`.
  void bind_pi(Cell cell);
  /// Binds the next primary output (in MIG PO order) to `cell`.
  void bind_po(Cell cell);

  /// Everything needed to reconstitute a program from bulk storage.
  struct RawProgram {
    std::vector<Instruction> instructions;
    std::vector<Cell> pi_cells;
    std::vector<Cell> po_cells;
    Cell num_cells = 0;  ///< declared cell space (may exceed the references)
  };

  /// Builds a program directly from decoded sections — the store's bulk
  /// load path. Validates what append/bind/set_num_cells would have
  /// enforced on a replay (canonical operand words, every reference inside
  /// the declared cell space) in one pass and throws rlim::Error on
  /// violation.
  [[nodiscard]] static Program adopt_raw(RawProgram&& raw);

  [[nodiscard]] std::span<const Cell> pi_cells() const { return pi_cells_; }
  [[nodiscard]] std::span<const Cell> po_cells() const { return po_cells_; }

  /// Per-cell destination-write counts — the statically known write traffic
  /// (writes are data-independent: every instruction writes its destination).
  [[nodiscard]] std::vector<std::uint64_t> static_write_counts() const;

  /// Human-readable listing, e.g. `0003: RM3(c[5], !c[2], c[7])`.
  [[nodiscard]] std::string disassemble() const;

  /// Checks the invariant above and throws rlim::Error on a violation; a
  /// self-check for tests and tools, not needed before execution.
  void validate() const;

  /// Plain-text serialization:
  /// ```
  /// .plim <instructions> <cells>
  /// .pi <cell>
  /// .rm3 <a> <b> <z>     (operands: c<idx> or constant 0/1)
  /// .po <cell>
  /// .end
  /// ```
  void write(std::ostream& os) const;
  [[nodiscard]] static Program read(std::istream& is);

private:
  /// Grows the cell space to include `cell`.
  void cover(Cell cell);

  std::vector<Instruction> instructions_;
  std::vector<Cell> pi_cells_;
  std::vector<Cell> po_cells_;
  Cell num_cells_ = 0;
};

}  // namespace rlim::plim
