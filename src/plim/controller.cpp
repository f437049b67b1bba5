#include "plim/controller.hpp"

#include "mig/simulate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::plim {

void PlimController::start(const Program& program) {
  // Program keeps every reference below num_cells() by construction, so
  // fitting the array is the only check a latch needs.
  require(program.num_cells() <= array_->logical_size(),
          "PlimController: program does not fit the array");
  program_ = &program;
  pc_ = 0;
  state_ = program.size() == 0 ? State::Done : State::Running;
}

void PlimController::execute(RramArray& array, const Instruction& instruction) {
  const auto resolve = [&](Operand operand) -> std::uint64_t {
    return operand.is_constant() ? constant_word(operand)
                                 : array.read(operand.cell_index());
  };
  const auto a = resolve(instruction.a);
  const auto not_b = ~resolve(instruction.b);
  const auto z = array.read(instruction.z);
  array.write(instruction.z, rm3(a, not_b, z));
}

bool PlimController::step() {
  require(state_ == State::Running, "PlimController::step: not running");
  execute(*array_, program_->instructions()[pc_]);
  ++pc_;
  if (pc_ == program_->size()) {
    state_ = State::Done;
    return false;
  }
  return true;
}

std::size_t PlimController::run() {
  require(program_ != nullptr, "PlimController::run: no program latched");
  if (state_ != State::Running) {
    return 0;
  }
  const auto remaining = program_->instructions().subspan(pc_);
  array_->execute(remaining);
  pc_ = program_->size();
  state_ = State::Done;
  return remaining.size();
}

std::size_t PlimController::run(const Program& program) {
  start(program);
  return run();
}

namespace {

void require_pi_count(const Program& program,
                      std::span<const std::uint64_t> pi_values) {
  require(pi_values.size() == program.pi_cells().size(),
          "evaluate: PI value count mismatch");
}

/// One execution on `target`: PIs preloaded, the instruction sequence as one
/// RramArray::execute call, POs read out into `po_values`.
void execute_once(const Program& program, std::span<const std::uint64_t> pi_values,
                  RramArray& target, std::span<std::uint64_t> po_values) {
  const auto pi_cells = program.pi_cells();
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    target.preload(pi_cells[i], pi_values[i]);
  }
  target.execute(program.instructions());
  const auto po_cells = program.po_cells();
  for (std::size_t i = 0; i < po_cells.size(); ++i) {
    po_values[i] = target.read(po_cells[i]);
  }
}

/// `evaluate` on a caller array (reset first, wear kept) into a caller
/// buffer of one word per PO.
void evaluate_on(const Program& program, std::span<const std::uint64_t> pi_values,
                 RramArray& array, std::span<std::uint64_t> po_values) {
  require_pi_count(program, pi_values);
  require(program.num_cells() <= array.logical_size(), "evaluate: array too small");
  array.reset_values();
  execute_once(program, pi_values, array, po_values);
}

}  // namespace

std::vector<std::uint64_t> evaluate(const Program& program,
                                    std::span<const std::uint64_t> pi_values,
                                    RramArray* array) {
  std::vector<std::uint64_t> result(program.po_cells().size());
  if (array != nullptr) {
    evaluate_on(program, pi_values, *array, result);
    return result;
  }
  require_pi_count(program, pi_values);
  RramArray local(program.num_cells());
  execute_once(program, pi_values, local, result);
  return result;
}

std::uint64_t executions_until_divergence(const Program& program,
                                          const mig::Mig& reference,
                                          RramArray& array, util::Xoshiro256& inputs,
                                          std::uint64_t max_runs) {
  require(program.pi_cells().size() == reference.num_pis() &&
              program.po_cells().size() == reference.num_pos(),
          "executions_until_divergence: program and reference MIG disagree on "
          "the PI/PO profile");
  std::vector<std::uint64_t> pi_values(reference.num_pis());
  std::vector<std::uint64_t> got(reference.num_pos());
  std::vector<std::uint64_t> expected(reference.num_pos());
  std::vector<std::uint64_t> nodes;
  for (std::uint64_t run = 0; run < max_runs; ++run) {
    for (auto& word : pi_values) {
      word = inputs();
    }
    evaluate_on(program, pi_values, array, got);
    mig::simulate(reference, pi_values, nodes, expected);
    if (got != expected) {
      return run;
    }
  }
  return max_runs;
}

bool program_matches_mig(const Program& program, const mig::Mig& mig,
                         unsigned rounds, std::uint64_t seed) {
  if (program.pi_cells().size() != mig.num_pis() ||
      program.po_cells().size() != mig.num_pos()) {
    return false;
  }
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> pi_values(mig.num_pis());
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& word : pi_values) {
      word = rng();
    }
    if (evaluate(program, pi_values) != mig::simulate(mig, pi_values)) {
      return false;
    }
  }
  return true;
}

}  // namespace rlim::plim
