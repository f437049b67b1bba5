// Paper §II baseline: IMPLY-based NAND execution concentrates every write on
// a tiny work-device pool [16], [17], while PLiM's RM3 shares writes across
// operand cells. This binary quantifies that contrast per benchmark. The
// PLiM side runs as a flow::Service::run batch; the IMP wear model reads the
// shared Sources' original graphs.

#include <iostream>

#include "bench_common.hpp"
#include "core/imp.hpp"
#include "core/lifetime.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;
  using core::Strategy;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  const auto sources = flow::suite_sources();

  std::vector<flow::Job> jobs;
  for (const auto& source : sources) {
    jobs.push_back({source, core::make_config(Strategy::FullEndurance), {}});
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "§II baseline — IMP work-device wear vs PLiM RM3 traffic";
  doc.add_note("(IMP pool of 2 work devices per [17]; lifetime at endurance "
               "1e10, executions until first cell failure)");
  doc.columns = {"benchmark", "IMP ops", "IMP max-writes", "PLiM #I",
                 "PLiM max-writes", "IMP lifetime", "PLiM lifetime",
                 "lifetime ratio"};

  for (std::size_t b = 0; b < sources.size(); ++b) {
    const auto imp = core::imp_wear(sources[b]->original(), {2});
    const auto& plim = results[b].report;

    constexpr std::uint64_t kEndurance = 10'000'000'000ULL;
    const auto imp_life = core::estimate_lifetime(imp.writes, kEndurance);
    const auto plim_life = core::estimate_lifetime(plim.writes, kEndurance);
    const auto ratio =
        static_cast<double>(plim_life.executions_to_first_failure) /
        static_cast<double>(
            imp_life.executions_to_first_failure == 0
                ? 1
                : imp_life.executions_to_first_failure);

    doc.add_row({sources[b]->label(), std::to_string(imp.operations),
                 std::to_string(imp.writes.max),
                 std::to_string(plim.instructions),
                 std::to_string(plim.writes.max),
                 std::to_string(imp_life.executions_to_first_failure),
                 std::to_string(plim_life.executions_to_first_failure),
                 util::Table::fixed(ratio, 1)});
  }
  doc.add_note("expected shape: IMP's two work devices absorb ~half the "
               "netlist's writes each, so PLiM outlives IMP by orders of "
               "magnitude — the paper's §II motivation");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "imp_baseline: " << error.what() << '\n';
  return 1;
}
