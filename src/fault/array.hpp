#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "plim/rram_array.hpp"
#include "util/rng.hpp"

namespace rlim::fault {

/// plim::RramArray with a seeded fault overlay: manufacturing and
/// wear-induced stuck-at cells, per-read resistance-drift disturbances,
/// cycle-to-cycle write variability, mixed-mode region profiles, and
/// optional spare-cell remapping.
///
/// The array exposes `num_cells` *logical* cells — the indices the PLiM
/// program addresses — backed by `num_cells + profile.spares` physical cells
/// in the base class. `forward_` maps logical to physical; remapping
/// redirects a logical cell to a healthy spare. All overrides translate the
/// index once and then work on protected base state directly (never back
/// through the virtual public API, which expects logical indices).
///
/// `execute` inlines the same per-access logic `read` and `write` use, in
/// the same order per instruction (read A unless constant, read B unless
/// constant, read Z, write Z), so a program run through it draws the fault
/// stream exactly as one run instruction by instruction through
/// PlimController::step. When no region drifts, its reads skip the stuck
/// and region lookups: a non-drifting read returns the cell's value either
/// way and draws nothing.
///
/// Determinism: all fault draws come from one Xoshiro256 stream seeded by
/// the constructor, and the endurance-variability draw uses a decorrelated
/// seed derived from the same value — two arrays built with equal arguments
/// behave identically.
class FaultArray final : public plim::RramArray {
 public:
  /// `memory_cells` marks the memory-mode region (typically the program's PI
  /// cells); empty means every cell is logic-mode. When non-empty its size
  /// must equal `num_cells`.
  FaultArray(plim::Cell num_cells, const FaultProfile& profile,
             std::uint64_t seed, std::vector<bool> memory_cells = {});

  void execute(std::span<const plim::Instruction> instructions) override;
  [[nodiscard]] std::uint64_t read(plim::Cell cell) const override;
  void write(plim::Cell cell, std::uint64_t value) override;
  void preload(plim::Cell cell, std::uint64_t value) override;
  [[nodiscard]] bool is_failed(plim::Cell cell) const override;
  /// Physical cells that are stuck (manufacturing, wear-induced) or have
  /// exhausted their endurance — unused healthy spares do not count.
  [[nodiscard]] std::size_t failed_cell_count() const override;
  void reset_values() override;

  [[nodiscard]] bool is_stuck(plim::Cell cell) const;
  [[nodiscard]] std::size_t stuck_cell_count() const;
  [[nodiscard]] std::uint64_t remapped_count() const { return remapped_; }
  [[nodiscard]] std::uint64_t dropped_writes() const { return dropped_; }
  [[nodiscard]] std::uint64_t disturbed_reads() const { return disturbed_; }

 private:
  void check_logical(plim::Cell cell) const;
  [[nodiscard]] const RegionProfile& region_of(plim::Cell cell) const {
    return regions_[region_[cell]];
  }
  /// Redirects `cell` to the next healthy spare; false when none remain.
  bool try_remap(plim::Cell cell);
  /// The unchecked bodies of read and write, shared with `execute`. Draws
  /// come from `rng` so the kernel can keep the stream in a local.
  /// `kDrift = false` is the read for profiles where no region drifts: the
  /// cell's value, stuck or not, with no draw.
  template <bool kDrift>
  std::uint64_t load(plim::Cell cell, util::Xoshiro256& rng);
  void store(plim::Cell cell, std::uint64_t value, util::Xoshiro256& rng);
  template <bool kDrift>
  void run(std::span<const plim::Instruction> instructions);

  FaultProfile profile_;
  RegionProfile regions_[2];          // [0] logic-mode, [1] memory-mode
  bool drift_;                        // some region disturbs reads
  std::vector<std::uint8_t> region_;  // logical index -> regions_ index
  std::vector<std::uint8_t> stuck_;   // physical index; value latched in state
  std::vector<plim::Cell> forward_;   // logical -> physical
  plim::Cell next_spare_;
  util::Xoshiro256 rng_;
  std::uint64_t remapped_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t disturbed_ = 0;
};

}  // namespace rlim::fault
