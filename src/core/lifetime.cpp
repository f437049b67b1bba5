#include "core/lifetime.hpp"

#include <algorithm>
#include <vector>

#include "plim/controller.hpp"
#include "plim/rram_array.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::core {

LifetimeEstimate estimate_lifetime(const util::WriteStats& writes,
                                   std::uint64_t cell_endurance) {
  require(cell_endurance > 0, "estimate_lifetime: endurance must be positive");
  LifetimeEstimate estimate;
  if (writes.max == 0) {
    // The program never writes: it lives forever; report the endurance
    // itself as a conservative stand-in for "unbounded".
    estimate.executions_to_first_failure = cell_endurance;
    estimate.ideal_executions = static_cast<double>(cell_endurance);
    estimate.balance_efficiency = 1.0;
    return estimate;
  }
  estimate.executions_to_first_failure = cell_endurance / writes.max;
  estimate.ideal_executions =
      writes.mean > 0.0 ? static_cast<double>(cell_endurance) / writes.mean : 0.0;
  estimate.balance_efficiency =
      estimate.ideal_executions > 0.0
          ? static_cast<double>(estimate.executions_to_first_failure) /
                estimate.ideal_executions
          : 0.0;
  return estimate;
}

std::uint64_t measured_executions_until_failure_on(plim::RramArray& array,
                                                   const plim::Program& program,
                                                   const mig::Mig& reference,
                                                   std::uint64_t max_runs,
                                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return plim::executions_until_divergence(program, reference, array, rng,
                                           max_runs);
}

std::uint64_t measured_executions_until_failure(const plim::Program& program,
                                                const mig::Mig& reference,
                                                std::uint64_t cell_endurance,
                                                std::uint64_t max_runs,
                                                std::uint64_t seed) {
  plim::RramArray array(program.num_cells(),
                        plim::RramConfig{.endurance_limit = cell_endurance});
  return measured_executions_until_failure_on(array, program, reference, max_runs,
                                              seed);
}

VariabilityStudy lifetime_under_variability(const plim::Program& program,
                                            const mig::Mig& reference,
                                            std::uint64_t cell_endurance,
                                            double endurance_sigma,
                                            unsigned trials,
                                            std::uint64_t max_runs,
                                            std::uint64_t seed) {
  require(trials >= 1, "lifetime_under_variability: need at least one trial");
  VariabilityStudy study;
  for (unsigned trial = 0; trial < trials; ++trial) {
    // mix_seed, not `seed + trial`: additive derivation makes (seed 5,
    // trial 1) and (seed 6, trial 0) draw identical per-cell limits, so
    // sweeps over nearby job seeds silently replay the same weak cells.
    plim::RramArray array(
        program.num_cells(),
        plim::RramConfig{.endurance_limit = cell_endurance,
                         .endurance_sigma = endurance_sigma,
                         .variation_seed = util::mix_seed(seed, trial)});
    study.lifetimes.push_back(measured_executions_until_failure_on(
        array, program, reference, max_runs, util::mix_seed(~seed, trial)));
  }
  std::sort(study.lifetimes.begin(), study.lifetimes.end());
  study.min = study.lifetimes.front();
  study.median = study.lifetimes[study.lifetimes.size() / 2];
  double total = 0.0;
  for (const auto lifetime : study.lifetimes) {
    total += static_cast<double>(lifetime);
  }
  study.mean = total / static_cast<double>(study.lifetimes.size());
  return study;
}

}  // namespace rlim::core
