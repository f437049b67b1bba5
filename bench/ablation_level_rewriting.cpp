// Ablation of the paper's §III-B.4 future-work idea: rewriting that keeps
// level differences between connected nodes low (shorter storage durations
// for blocked RRAMs) versus the paper's Algorithm 2. The paper predicts the
// level-balanced MIGs "might not be favorable w.r.t. the length of
// instructions" — this binary measures that trade-off. Both flows are
// registered rewrite flows (`rewrite=endurance` / `rewrite=level_balanced`)
// run as one flow::Runner batch.

#include <iostream>

#include "bench_common.hpp"

namespace {

/// Mean over non-PI nodes of (fanout level index − own level): the storage
/// duration proxy the paper reasons with in Fig. 2.
double mean_level_gap(const rlim::mig::Mig& graph) {
  const auto levels = graph.levels();
  const auto reachable = graph.reachable_from_pos();
  std::vector<std::uint32_t> consumer_level(graph.num_nodes(), 0);
  for (std::uint32_t gate = graph.first_gate(); gate < graph.num_nodes(); ++gate) {
    if (!reachable[gate]) {
      continue;
    }
    for (const auto fanin : graph.fanins(gate)) {
      consumer_level[fanin.index()] =
          std::max(consumer_level[fanin.index()], levels[gate]);
    }
  }
  double total = 0.0;
  std::size_t count = 0;
  for (std::uint32_t gate = graph.first_gate(); gate < graph.num_nodes(); ++gate) {
    if (!reachable[gate] || consumer_level[gate] == 0) {
      continue;
    }
    total += static_cast<double>(consumer_level[gate] - levels[gate]);
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = flow::parse_driver_args(argc, argv);

  struct Flow {
    std::string label;
    std::string key;  // pass::rewrites() registry key
  };
  const Flow flows[] = {
      {"Algorithm 2", "endurance"},
      {"level-balanced", "level_balanced"},
  };
  const char* names[] = {"adder", "sin", "priority", "router", "cavlc", "voter"};

  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    sources.push_back(flow::Source::benchmark(name));
    for (const auto& flow_case : flows) {
      // The full-endurance preset with its rewrite flow swapped out.
      jobs.push_back({sources.back(),
                      core::PipelineConfig::parse("full,rewrite=" + flow_case.key),
                      {}});
    }
  }
  flow::Runner runner({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = runner.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Ablation — §III-B.4: level-balancing rewriting vs Algorithm 2\n"
              "(both compiled with Algorithm 3 selection + min-write)";
  doc.columns = {"benchmark", "flow", "gates", "depth", "level gap", "#I",
                 "#R", "STDEV"};
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t f = 0; f < std::size(flows); ++f) {
      const auto& result = results[s * std::size(flows) + f];
      const auto& rewritten = *result.prepared;
      doc.add_row({sources[s]->label(), flows[f].label,
                   std::to_string(rewritten.num_gates()),
                   std::to_string(rewritten.depth()),
                   util::Table::fixed(mean_level_gap(rewritten), 2),
                   std::to_string(result.report.instructions),
                   std::to_string(result.report.rrams),
                   util::Table::fixed(result.report.writes.stdev)});
    }
    doc.add_separator();
  }
  doc.add_note("expected shape: the level-balanced flow shrinks the mean "
               "level gap (shorter storage durations); the paper predicts a "
               "possible instruction-count price for it");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "ablation_level_rewriting: " << error.what() << '\n';
  return 1;
}
