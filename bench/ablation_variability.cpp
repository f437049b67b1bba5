// Ablation (extension beyond the paper): cell-to-cell endurance variability.
// Real RRAM endurance is distributed, not uniform — the weakest cell under
// the heaviest traffic dies first, which punishes unbalanced write traffic
// even harder than the paper's uniform-endurance analysis suggests. This
// binary Monte-Carlos arrays with log-normal per-cell endurance and measures
// executions until the first wrong output, naive flow vs full endurance
// management. The two compilations per benchmark run as one Service::run batch;
// the Monte-Carlo replay stays on the main thread.

#include <iostream>

#include "bench_common.hpp"
#include "core/lifetime.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;
  using core::Strategy;

  const auto opts = benchharness::parse_driver_args(argc, argv);

  constexpr std::uint64_t kEndurance = 400;  // scaled-down for simulation
  constexpr unsigned kTrials = 15;
  constexpr std::uint64_t kMaxRuns = 500;

  const char* names[] = {"int2float", "router", "ctrl"};
  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    sources.push_back(flow::Source::benchmark(name));
    jobs.push_back({sources.back(), core::make_config(Strategy::Naive), {}});
    jobs.push_back(
        {sources.back(), core::make_config(Strategy::FullEndurance, 20), {}});
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Endurance variability study — log-normal per-cell limits "
              "(median " + std::to_string(kEndurance) + " writes, " +
              std::to_string(kTrials) +
              " Monte-Carlo arrays, executions until first wrong output, "
              "capped at " + std::to_string(kMaxRuns) + ")";
  doc.columns = {"benchmark", "sigma", "naive min/median", "full min/median",
                 "median gain"};

  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto& naive = results[s * 2];
    const auto& full = results[s * 2 + 1];

    for (const double sigma : {0.0, 0.3, 0.6}) {
      const auto naive_study = core::lifetime_under_variability(
          naive.report.program, sources[s]->original(), kEndurance, sigma,
          kTrials, kMaxRuns, 11);
      const auto full_study = core::lifetime_under_variability(
          full.report.program, *full.prepared, kEndurance, sigma, kTrials,
          kMaxRuns, 11);
      const auto gain = static_cast<double>(full_study.median) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, naive_study.median));
      doc.add_row({sources[s]->label(), util::Table::fixed(sigma, 1),
                   std::to_string(naive_study.min) + "/" +
                       std::to_string(naive_study.median),
                   std::to_string(full_study.min) + "/" +
                       std::to_string(full_study.median),
                   util::Table::fixed(gain, 1) + "x"});
    }
    doc.add_separator();
  }
  doc.add_note("expected shape: variability shortens everyone's life, but "
               "balanced traffic keeps its relative advantage (or grows it): "
               "hotspots and weak cells compound");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "ablation_variability: " << error.what() << '\n';
  return 1;
}
