#include "plim/rram_array.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::plim {

RramArray::RramArray(Cell num_cells, RramConfig config)
    : RramArray(num_cells, num_cells, config) {}

RramArray::RramArray(Cell num_cells, Cell logical_cells, RramConfig config)
    : cells_(num_cells), logical_(logical_cells), config_(config) {
  require(logical_ <= num_cells, "RramArray: logical cells exceed the array");
  require(config_.endurance_sigma >= 0.0,
          "RramArray: endurance_sigma must be non-negative");
  if (config_.endurance_limit == 0) {
    return;
  }
  util::Xoshiro256 rng(config_.variation_seed);
  for (auto& state : cells_) {
    if (config_.endurance_sigma == 0.0) {
      state.limit = config_.endurance_limit;
    } else {
      const double factor = std::exp(config_.endurance_sigma * util::normal(rng));
      state.limit = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(config_.endurance_limit) * factor));
    }
  }
}

void RramArray::check(Cell cell) const {
  require(cell < cells_.size(), "RramArray: cell index out of range");
}

std::uint64_t RramArray::read(Cell cell) const {
  check(cell);
  return cells_[cell].value;
}

void RramArray::write(Cell cell, std::uint64_t value) {
  check(cell);
  auto& state = cells_[cell];
  if (hard_failed(state)) {
    return;  // stuck at last value; wear counter also saturates
  }
  state.value = value;
  ++state.writes;
}

void RramArray::execute(std::span<const Instruction> instructions) {
  CellState* const cells = cells_.data();
  const auto load = [cells](Operand operand) {
    return operand.is_constant() ? constant_word(operand)
                                 : cells[operand.cell_index()].value;
  };
  for (const auto& instruction : instructions) {
    const auto a = load(instruction.a);
    const auto not_b = ~load(instruction.b);
    auto& z = cells[instruction.z];
    if (hard_failed(z)) {
      continue;  // stuck at last value; wear counter also saturates
    }
    z.value = rm3(a, not_b, z.value);
    ++z.writes;
  }
}

void RramArray::preload(Cell cell, std::uint64_t value) {
  check(cell);
  auto& state = cells_[cell];
  if (hard_failed(state)) {
    return;  // stuck cells ignore uncounted writes too
  }
  state.value = value;
}

std::uint64_t RramArray::write_count(Cell cell) const {
  check(cell);
  return cells_[cell].writes;
}

std::vector<std::uint64_t> RramArray::write_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(cells_.size());
  for (const auto& state : cells_) {
    counts.push_back(state.writes);
  }
  return counts;
}

bool RramArray::is_failed(Cell cell) const {
  check(cell);
  return hard_failed(cells_[cell]);
}

std::optional<std::uint64_t> RramArray::endurance_of(Cell cell) const {
  check(cell);
  if (cells_[cell].limit == 0) {
    return std::nullopt;
  }
  return cells_[cell].limit;
}

std::size_t RramArray::failed_cell_count() const {
  std::size_t failed = 0;
  for (const auto& state : cells_) {
    if (hard_failed(state)) {
      ++failed;
    }
  }
  return failed;
}

void RramArray::reset_values() {
  for (auto& state : cells_) {
    if (hard_failed(state)) {
      continue;  // a stuck cell cannot be externally rewritten either
    }
    state.value = 0;
  }
}

util::WriteStats RramArray::stats() const { return util::compute_stats(write_counts()); }

}  // namespace rlim::plim
