#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"
#include "plim/program.hpp"
#include "plim/rram_array.hpp"
#include "util/rng.hpp"

namespace rlim::plim {

/// The PLiM controller [11]: a wrapper around the RRAM array with a program
/// counter and a small FSM. When the control signal is off the array behaves
/// as a plain RAM; when on, the controller fetches RM3 instructions and
/// performs them as write cycles on the array.
class PlimController {
public:
  enum class State { Idle, Running, Done };

  explicit PlimController(RramArray& array) : array_(&array) {}

  /// Latches a program and raises the control signal.
  void start(const Program& program);

  /// Executes one RM3 instruction through the array's per-cell read/write;
  /// returns false when the program is done.
  bool step();

  /// Runs the rest of the latched program as one RramArray::execute call;
  /// returns #instructions executed.
  std::size_t run();

  /// Convenience: start + run.
  std::size_t run(const Program& program);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::size_t program_counter() const { return pc_; }

  /// Executes a single RM3 on the array (usable without a latched program).
  static void execute(RramArray& array, const Instruction& instruction);

private:
  RramArray* array_;
  const Program* program_ = nullptr;
  std::size_t pc_ = 0;
  State state_ = State::Idle;
};

/// Evaluates a program as a combinational function: binds `pi_values`
/// (64 patterns per word) to the PI cells, runs the program on a fresh array
/// (or `array` if given, to accumulate wear across executions) and returns
/// the PO words. The instructions run as one RramArray::execute call; a
/// caller array must cover program.num_cells() logical cells (else
/// rlim::Error).
std::vector<std::uint64_t> evaluate(const Program& program,
                                    std::span<const std::uint64_t> pi_values,
                                    RramArray* array = nullptr);

/// Executes `program` on `array` up to `max_runs` times, each on fresh PI
/// words drawn from `inputs`, checking every output against `reference`
/// simulated on the same words. Returns the number of correct executions
/// before the first wrong one (`max_runs` if none). Wear, stuck cells and
/// fault-model state carry over from run to run; the PI, PO and simulation
/// buffers are allocated once per call, so a run allocates nothing.
std::uint64_t executions_until_divergence(const Program& program,
                                          const mig::Mig& reference,
                                          RramArray& array, util::Xoshiro256& inputs,
                                          std::uint64_t max_runs);

/// Monte-Carlo check that the program computes the same function as `mig`
/// (PI/PO correspondence by order). This is the compiler's end-to-end oracle.
bool program_matches_mig(const Program& program, const mig::Mig& mig,
                         unsigned rounds, std::uint64_t seed);

}  // namespace rlim::plim
