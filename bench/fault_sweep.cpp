// Monte-Carlo fault-injection lifetime sweep (extension beyond the paper).
// Compiles each benchmark under the full endurance flow and runs seeded
// fault scenarios through the `fault=` config dimension: stuck-at defects,
// stuck-at + spare-cell remapping, resistance drift, and mixed-mode region
// partitioning. Because the scenario lives in the PipelineConfig, the sweep
// itself executes inside the Service's compile step (and lands in the
// pipeline cache); this driver only renders the distributions.
//
// The driver also replays the first scenario twice and verifies the
// distributions are identical — the determinism contract the CI replay step
// checks end-to-end over CSV bytes.

#include <iostream>
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = benchharness::parse_driver_args(argc, argv);

  const char* scenarios[] = {
      "full,fault=stuck:rate=0.001:endurance=400:sigma=0.3:trials=9:runs=300:seed=7",
      "full,fault=stuck:rate=0.001:endurance=400:sigma=0.3:trials=9:runs=300:seed=7"
      ":repair=remap:spares=16",
      "full,fault=drift:rate=0.0005:endurance=400:sigma=0.3:trials=9:runs=300:seed=7",
      "full,fault=mixed:logic_rate=0.002:mem_rate=0.0001:logic_wear=2"
      ":endurance=400:sigma=0.3:trials=9:runs=300:seed=7",
  };
  const char* names[] = {"int2float", "router", "ctrl"};

  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    sources.push_back(flow::Source::benchmark(name));
    for (const auto* scenario : scenarios) {
      jobs.push_back(
          {sources.back(), core::PipelineConfig::parse(scenario), {}});
    }
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title =
      "Fault-injection lifetime sweep — full endurance flow, 9 seeded "
      "trials per scenario, executions until first wrong output (cap 300)";
  doc.columns = {"benchmark", "scenario", "life min/p50/p99/max",
                 "failed cells", "remap/drop", "censored"};

  const char* labels[] = {"stuck", "stuck+remap", "drift", "mixed"};
  constexpr std::size_t kScenarios = std::size(scenarios);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t v = 0; v < kScenarios; ++v) {
      const auto& result = results[s * kScenarios + v];
      const auto& dist = result.report.fault_sweep;
      if (!dist) {
        throw Error("fault_sweep: report missing the lifetime distribution");
      }
      doc.add_row({sources[s]->label(), labels[v],
                   std::to_string(dist->lifetime_min) + "/" +
                       std::to_string(dist->lifetime_p50) + "/" +
                       std::to_string(dist->lifetime_p99) + "/" +
                       std::to_string(dist->lifetime_max),
                   std::to_string(dist->failed_cells_min) + ".." +
                       std::to_string(dist->failed_cells_max),
                   std::to_string(dist->remapped_total) + "/" +
                       std::to_string(dist->dropped_writes),
                   std::to_string(dist->censored)});
    }
    doc.add_separator();
  }

  // Determinism self-check: recompiling the first scenario must reproduce
  // the distribution bit-exactly (seeded trials, decorrelated streams).
  {
    flow::Service replay({.jobs = opts.jobs, .cache_dir = ""});
    const auto again = replay.run({jobs.front()});
    flow::throw_on_error(again);
    if (!(again.front().report.fault_sweep == results.front().report.fault_sweep)) {
      throw Error("fault_sweep: replay of the same seed diverged");
    }
  }

  doc.add_note("expected shape: remapping stretches the stuck-at tail; "
               "drift fails gently and mostly censors; mixed-mode logic wear "
               "dominates once stuck cells are rare");
  doc.add_note("determinism: same-seed replay reproduced the first scenario "
               "bit-exactly");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "fault_sweep: " << error.what() << '\n';
  return 1;
}
