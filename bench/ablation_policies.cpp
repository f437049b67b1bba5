// Ablation (extension beyond the paper): selection policy × allocation
// policy grid on a handful of representative benchmarks, isolating how much
// each dimension contributes to the write balance. All 12 grid cells per
// benchmark share one Algorithm-2 rewrite through the Runner's cache.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = flow::parse_driver_args(argc, argv);
  const auto suite = flow::suite();
  // A handful of representative functions keeps the grid readable.
  const char* names[] = {"adder", "sin", "priority", "voter", "cavlc"};

  // Registry keys with their row / column labels.
  struct Policy {
    const char* key;
    const char* label;
  };
  static constexpr Policy kSelections[] = {{"naive", "naive-order"},
                                           {"plim21", "plim21"},
                                           {"endurance", "endurance-aware"}};
  static constexpr Policy kAllocations[] = {{"lifo", "lifo"},
                                            {"fifo", "fifo"},
                                            {"round_robin", "round-robin"},
                                            {"min_write", "min-write"}};

  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    const bench::BenchmarkSpec* spec = nullptr;
    for (const auto& candidate : *suite.specs) {
      if (candidate.name == name) {
        spec = &candidate;
      }
    }
    if (spec == nullptr) {
      continue;
    }
    sources.push_back(flow::Source::benchmark(*spec));
    for (const auto& selection : kSelections) {
      for (const auto& allocation : kAllocations) {
        const auto config = core::PipelineConfig::parse(
            std::string("rewrite=endurance,select=") + selection.key +
            ",alloc=" + allocation.key);
        jobs.push_back({sources.back(), config, {}});
      }
    }
  }
  flow::Runner runner({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = runner.run(jobs);
  flow::throw_on_error(results);

  const auto sink = flow::make_sink(opts.format);
  std::cout << "Ablation — selection × allocation grid (rewriting fixed to "
               "Algorithm 2, no cap)\n\n";
  constexpr std::size_t kPerSource = std::size(kSelections) * std::size(kAllocations);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    flow::Report doc;
    doc.title = sources[s]->label() + " — STDEV of write counts:";
    doc.columns = {"selection \\ allocation"};
    for (const auto& allocation : kAllocations) {
      doc.columns.emplace_back(allocation.label);
    }
    for (std::size_t sel = 0; sel < std::size(kSelections); ++sel) {
      std::vector<std::string> row{kSelections[sel].label};
      for (std::size_t alloc = 0; alloc < std::size(kAllocations); ++alloc) {
        const auto& result =
            results[s * kPerSource + sel * std::size(kAllocations) + alloc];
        row.push_back(util::Table::fixed(result.report.writes.stdev));
      }
      doc.add_row(std::move(row));
    }
    sink->write(doc, std::cout);
  }
  std::cout << "expected shape: min-write dominates every row; "
               "endurance-aware selection helps mostly under min-write\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "ablation_policies: " << error.what() << '\n';
  return 1;
}
