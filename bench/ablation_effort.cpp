// Ablation: rewriting effort (the paper fixes effort = 5 for all
// experiments). Sweeps the cycle budget and reports convergence of gate
// count, complemented edges, and the compiled costs — justifying the paper's
// choice. The benchmark × effort grid runs as one flow::Service::run batch;
// the rewrite telemetry (cycles actually run) comes from the cache entry.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  static constexpr int kEfforts[] = {0, 1, 2, 3, 5, 8};
  const char* names[] = {"adder", "sin", "cavlc", "router"};

  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    sources.push_back(flow::Source::benchmark(name));
    for (const int effort : kEfforts) {
      auto config = core::make_config(core::Strategy::FullEndurance);
      config.set_effort(effort);
      jobs.push_back({sources.back(), config, {}});
    }
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  const auto sink = flow::make_sink(opts.format);
  std::cout << "Ablation — rewriting effort sweep (Algorithm 2, full "
               "endurance compilation)\n\n";
  constexpr std::size_t kPerSource = std::size(kEfforts);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    flow::Report doc;
    doc.title = sources[s]->label() + ":";
    doc.columns = {"effort", "cycles run", "gates", "compl. edges", "#I",
                   "STDEV"};
    for (std::size_t e = 0; e < kPerSource; ++e) {
      const auto& result = results[s * kPerSource + e];
      doc.add_row({std::to_string(kEfforts[e]),
                   std::to_string(result.rewrite_stats.cycles_run),
                   std::to_string(result.prepared->num_gates()),
                   std::to_string(result.prepared->complement_edge_count()),
                   std::to_string(result.report.instructions),
                   util::Table::fixed(result.report.writes.stdev)});
    }
    sink->write(doc, std::cout);
  }
  std::cout << "expected shape: most of the reduction lands in the first 1-2 "
               "cycles; the early-exit fixpoint makes effort > 5 free — the "
               "paper's effort = 5 is safely converged\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "ablation_effort: " << error.what() << '\n';
  return 1;
}
