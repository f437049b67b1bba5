// Quickstart: build a Boolean function as an MIG, compile it through
// flow::run_job with full endurance management, execute the program on the
// RRAM crossbar simulator, and inspect the write traffic.
//
//   $ ./build/examples/quickstart

#include <iostream>
#include <vector>

#include "core/lifetime.hpp"
#include "flow/service.hpp"
#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "plim/controller.hpp"

int main() {
  using namespace rlim;

  // 1. Describe the function as a majority-inverter graph. Here: a 1-bit
  //    full adder (sum and carry).
  mig::Mig graph;
  const auto a = graph.create_pi("a");
  const auto b = graph.create_pi("b");
  const auto cin = graph.create_pi("cin");
  const auto carry = graph.create_maj(a, b, cin);          // ⟨a b c⟩
  const auto sum = graph.create_xor(graph.create_xor(a, b), cin);
  graph.create_po(sum, "sum");
  graph.create_po(carry, "cout");

  // 2. Compile with the paper's full endurance-management flow (Algorithm 2
  //    rewriting + Algorithm 3 selection + min-write allocation) as a
  //    one-job flow batch. "full" is the preset alias for
  //    rewrite=endurance:effort=5,select=endurance,alloc=min_write — any
  //    registered policy combination parses the same way (`rlim policies`
  //    lists them). Sweeps simply push more jobs — same API.
  const flow::Job job{flow::Source::graph(graph, "full-adder"),
                      core::PipelineConfig::parse("full"),
                      {}};
  const auto result = flow::run_job(job);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.error << '\n';
    return 1;
  }
  const auto& report = result.report;

  std::cout << "compiled " << report.benchmark << ": " << report.instructions
            << " RM3 instructions over " << report.rrams << " RRAM cells\n"
            << "write counts: min " << report.writes.min << ", max "
            << report.writes.max << ", stdev " << report.writes.stdev << "\n\n";

  // 3. The program is a plain RM3 instruction list — inspect it.
  std::cout << report.program.disassemble() << '\n';

  // 4. Execute on the crossbar simulator (64 input patterns in parallel)
  //    and cross-check against MIG simulation.
  const std::vector<std::uint64_t> inputs = {0x00000000ffffffffULL,
                                             0x0000ffff0000ffffULL,
                                             0x00ff00ff00ff00ffULL};
  const auto from_crossbar = plim::evaluate(report.program, inputs);
  const auto from_mig = mig::simulate(graph, inputs);
  std::cout << "crossbar output matches MIG simulation: "
            << (from_crossbar == from_mig ? "yes" : "NO — bug!") << '\n';

  // 5. Project the architecture lifetime at RRAM endurance 1e10 writes.
  const auto lifetime = core::estimate_lifetime(report.writes);
  std::cout << "guaranteed executions before first cell failure: "
            << lifetime.executions_to_first_failure << " (balance efficiency "
            << lifetime.balance_efficiency * 100.0 << "%)\n";
  return 0;
}
