#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "plim/instruction.hpp"
#include "util/stats.hpp"

namespace rlim::plim {

/// Endurance model of the crossbar.
struct RramConfig {
  /// Writes a cell can absorb before it hard-fails; 0 disables the model.
  /// (Real RRAM: ~1e10 [5] to ~1e11 [6]; tests use tiny values.)
  std::uint64_t endurance_limit = 0;
  /// Cell-to-cell variability: per-cell limits are drawn log-normally,
  /// limit_i = endurance_limit · exp(σ·N(0,1)). 0 = uniform limits.
  double endurance_sigma = 0.0;
  /// Seed of the per-cell variability draw. NOTE: every array built from the
  /// same config shares one draw — batch code that instantiates many arrays
  /// must derive a distinct seed per instance (util::mix_seed(job_seed,
  /// instance)) or every trial silently replays the same weak cells.
  std::uint64_t variation_seed = 1;
};

/// Functional model of the RRAM crossbar array underneath PLiM.
///
/// Values are 64-bit words so 64 input patterns evaluate in parallel.
/// Every counted write increments the cell's wear counter; a cell that has
/// reached the endurance limit becomes *stuck at its last value* (the common
/// RRAM hard-failure mode) — further writes (counted or not) are silently
/// dropped, which makes failure observable as wrong program outputs rather
/// than a crash.
///
/// Programs run through one virtual hook, `execute`, called once per
/// execution with the whole instruction sequence: the base class runs it as a
/// tight loop over the flat cell vector, and fault models
/// (fault::FaultArray) override it with an inlined overlay of stuck-at
/// cells, read disturbance, write variability and spare-cell remapping. The
/// per-cell `read`/`write`/`preload` entry points stay virtual with the same
/// semantics one access at a time: PlimController::step, the PI preload and
/// the PO read-out go through them.
class RramArray {
public:
  explicit RramArray(Cell num_cells, RramConfig config = {});
  virtual ~RramArray() = default;

  /// Physical cells, including any a subclass holds back (spares).
  [[nodiscard]] Cell size() const { return static_cast<Cell>(cells_.size()); }
  /// Cells a program may address: size() minus the cells a subclass holds
  /// back. Callers check `program.num_cells() <= logical_size()` once per
  /// execution; `execute` relies on it.
  [[nodiscard]] Cell logical_size() const { return logical_; }

  /// Runs the RM3 sequence in order: per instruction, read A and B (unless
  /// constant) and Z, then one counted write of ⟨A B̄ Z⟩ to Z — exactly the
  /// accesses PlimController::execute makes through read/write. Every cell
  /// the instructions reference must be below logical_size(); the kernel
  /// does not re-check indices.
  virtual void execute(std::span<const Instruction> instructions);

  [[nodiscard]] virtual std::uint64_t read(Cell cell) const;

  /// Counted write (wears the cell; dropped once the cell has failed).
  virtual void write(Cell cell, std::uint64_t value);

  /// Uncounted write: models data that is already resident (primary inputs)
  /// or an external initialization outside the program's write traffic.
  /// A failed cell is stuck for uncounted writes too — the preload is
  /// dropped and the cell keeps its last value.
  virtual void preload(Cell cell, std::uint64_t value);

  [[nodiscard]] std::uint64_t write_count(Cell cell) const;
  [[nodiscard]] std::vector<std::uint64_t> write_counts() const;

  [[nodiscard]] virtual bool is_failed(Cell cell) const;
  [[nodiscard]] virtual std::size_t failed_cell_count() const;

  /// Effective endurance limit of a cell under the variability model;
  /// nullopt when the endurance model is disabled (the cell is unlimited).
  /// Distinct from a genuinely zero budget, which the variability draw
  /// clamps to 1 — an engaged model never yields a 0 limit.
  [[nodiscard]] std::optional<std::uint64_t> endurance_of(Cell cell) const;
  /// True when construction drew per-cell limits (endurance_limit != 0).
  [[nodiscard]] bool has_endurance_model() const {
    return config_.endurance_limit != 0;
  }

  /// Clears values but keeps accumulated wear (a fresh execution on an aged
  /// array). Failed cells are stuck and keep their last value even here.
  virtual void reset_values();

  [[nodiscard]] util::WriteStats stats() const;

protected:
  struct CellState {
    std::uint64_t value = 0;
    std::uint64_t writes = 0;
    std::uint64_t limit = 0;  // 0 = unlimited
  };

  /// For subclasses that address fewer cells than they hold.
  RramArray(Cell num_cells, Cell logical_cells, RramConfig config);

  void check(Cell cell) const;

  /// Direct cell-state access for fault-model subclasses, which keep their
  /// own logical→physical mapping and must not bounce through the virtual
  /// public API with already-translated indices.
  [[nodiscard]] CellState& state(Cell cell) { return cells_[cell]; }
  [[nodiscard]] const CellState& state(Cell cell) const { return cells_[cell]; }

  /// The base hard-failure criterion on raw state (wear >= drawn limit).
  [[nodiscard]] static bool hard_failed(const CellState& state) {
    return state.limit != 0 && state.writes >= state.limit;
  }

private:
  std::vector<CellState> cells_;
  Cell logical_;
  RramConfig config_;
};

}  // namespace rlim::plim
