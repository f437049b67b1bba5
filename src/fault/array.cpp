#include "fault/array.hpp"

#include "util/error.hpp"

namespace rlim::fault {

namespace {

// Distinct salts keep the endurance-variability stream and the fault stream
// decorrelated even though both derive from the constructor seed.
constexpr std::uint64_t kVariationSalt = 0x7661726961746eULL;  // "variatn"
constexpr std::uint64_t kFaultSalt = 0x6661756c74ULL;          // "fault"

plim::RramConfig base_config(const FaultProfile& profile, std::uint64_t seed) {
  return plim::RramConfig{
      .endurance_limit = profile.endurance,
      .endurance_sigma = profile.sigma,
      .variation_seed = util::mix_seed(seed, kVariationSalt),
  };
}

}  // namespace

FaultArray::FaultArray(plim::Cell num_cells, const FaultProfile& profile,
                       std::uint64_t seed, std::vector<bool> memory_cells)
    : RramArray(num_cells + profile.spares, num_cells, base_config(profile, seed)),
      profile_(profile),
      regions_{profile.logic, profile.memory},
      drift_(profile.logic.drift_rate > 0.0 || profile.memory.drift_rate > 0.0),
      region_(num_cells, 0),
      stuck_(num_cells + profile.spares, 0),
      forward_(num_cells),
      next_spare_(num_cells),
      rng_(util::mix_seed(seed, kFaultSalt)) {
  require(memory_cells.empty() || memory_cells.size() == num_cells,
          "FaultArray: memory_cells mask must cover every logical cell");
  for (plim::Cell cell = 0; cell < num_cells; ++cell) {
    forward_[cell] = cell;
    if (!memory_cells.empty() && memory_cells[cell]) {
      region_[cell] = 1;
    }
  }
  // Manufacturing defects: each physical cell is stuck at a random value with
  // its region's probability. Spares count as logic-mode — a spare only ever
  // substitutes for a cell the program writes.
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    const auto& region = cell < num_cells ? region_of(cell) : profile_.logic;
    if (region.stuck_rate > 0.0 && rng_.uniform01() < region.stuck_rate) {
      stuck_[cell] = 1;
      state(cell).value = (rng_() & 1) != 0 ? ~0ULL : 0ULL;
    }
  }
}

void FaultArray::check_logical(plim::Cell cell) const {
  require(cell < logical_size(), "FaultArray: logical cell index out of range");
}

bool FaultArray::try_remap(plim::Cell cell) {
  if (profile_.repair != Repair::Remap) {
    return false;
  }
  const auto physical = size();
  while (next_spare_ < physical) {
    const auto spare = next_spare_++;
    if (stuck_[spare] == 0 && !hard_failed(state(spare))) {
      forward_[cell] = spare;
      ++remapped_;
      return true;
    }
  }
  return false;
}

template <bool kDrift>
inline std::uint64_t FaultArray::load(plim::Cell cell, util::Xoshiro256& rng) {
  const auto phys = forward_[cell];
  auto& st = state(phys);
  if (!kDrift || stuck_[phys] != 0) {
    return st.value;  // stuck cells hold their value; drift cannot move them
  }
  const auto drift_rate = region_of(cell).drift_rate;
  if (drift_rate > 0.0 && rng.uniform01() < drift_rate) {
    // Resistance drift flips one of the 64 simulation lanes, persistently:
    // the disturbed value is what every later read returns.
    st.value ^= 1ULL << rng.below(64);
    ++disturbed_;
  }
  return st.value;
}

inline void FaultArray::store(plim::Cell cell, std::uint64_t value,
                              util::Xoshiro256& rng) {
  auto phys = forward_[cell];
  if (stuck_[phys] != 0 || hard_failed(state(phys))) {
    if (!try_remap(cell)) {
      ++dropped_;
      return;
    }
    phys = forward_[cell];
  }
  auto& st = state(phys);
  const auto& region = region_of(cell);
  st.writes += region.wear_per_write;
  // Cycle-to-cycle variability: the pulse wears the cell but fails to latch.
  if (region.write_fail_rate > 0.0 && rng.uniform01() < region.write_fail_rate) {
    return;
  }
  st.value = value;
  if (region.wear_stuck_rate > 0.0 && rng.uniform01() < region.wear_stuck_rate) {
    stuck_[phys] = 1;  // early wear-out: stuck at the value just written
  }
}

template <bool kDrift>
void FaultArray::run(std::span<const plim::Instruction> instructions) {
  // The stream lives in a local for the loop so cell stores cannot force it
  // back to memory; the draw order is read's and write's.
  auto rng = rng_;
  const auto operand = [&](plim::Operand op) {
    return op.is_constant() ? plim::constant_word(op)
                            : load<kDrift>(op.cell_index(), rng);
  };
  for (const auto& instruction : instructions) {
    const auto a = operand(instruction.a);
    const auto not_b = ~operand(instruction.b);
    const auto z = load<kDrift>(instruction.z, rng);
    store(instruction.z, plim::rm3(a, not_b, z), rng);
  }
  rng_ = rng;
}

void FaultArray::execute(std::span<const plim::Instruction> instructions) {
  if (drift_) {
    run<true>(instructions);
  } else {
    run<false>(instructions);
  }
}

std::uint64_t FaultArray::read(plim::Cell cell) const {
  check_logical(cell);
  // A read may disturb the cell and draws from the fault stream: logically
  // const for the caller, physically a mutation of the model.
  auto& self = const_cast<FaultArray&>(*this);
  return self.load<true>(cell, self.rng_);
}

void FaultArray::write(plim::Cell cell, std::uint64_t value) {
  check_logical(cell);
  store(cell, value, rng_);
}

void FaultArray::preload(plim::Cell cell, std::uint64_t value) {
  check_logical(cell);
  auto phys = forward_[cell];
  if (stuck_[phys] != 0 || hard_failed(state(phys))) {
    // The memory controller repairs resident data the same way it repairs
    // program writes; without repair the preload is dropped.
    if (!try_remap(cell)) {
      ++dropped_;
      return;
    }
    phys = forward_[cell];
  }
  state(phys).value = value;  // uncounted: data already resident
}

bool FaultArray::is_failed(plim::Cell cell) const {
  check_logical(cell);
  const auto phys = forward_[cell];
  return stuck_[phys] != 0 || hard_failed(state(phys));
}

std::size_t FaultArray::failed_cell_count() const {
  std::size_t failed = 0;
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    if (stuck_[cell] != 0 || hard_failed(state(cell))) {
      ++failed;
    }
  }
  return failed;
}

void FaultArray::reset_values() {
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    if (stuck_[cell] != 0 || hard_failed(state(cell))) {
      continue;  // stuck cells keep their value across executions
    }
    state(cell).value = 0;
  }
}

bool FaultArray::is_stuck(plim::Cell cell) const {
  check_logical(cell);
  return stuck_[forward_[cell]] != 0;
}

std::size_t FaultArray::stuck_cell_count() const {
  std::size_t stuck = 0;
  for (const auto flag : stuck_) {
    stuck += flag != 0 ? 1 : 0;
  }
  return stuck;
}

}  // namespace rlim::fault
