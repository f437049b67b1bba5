// Ablation: pass orderings inside the rewriting pipeline. The paper's
// endurance flow (Algorithm 2) interleaves reshaping axioms (Ω.M, Ω.D, Ω.A)
// with inverter optimisation (Ω.I); this driver sweeps alternative orderings
// expressed as `rewrite=seq:passes=...` specs through the same flow::Runner
// batch, then attributes the winning ordering's cost pass by pass from the
// per-pass telemetry the cache entry carries.

#include <iostream>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "pass/seq.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = flow::parse_driver_args(argc, argv);

  // Orderings under test. "paper" is the endurance flow's own list (read
  // from the registered flow table, so it cannot drift); the others probe
  // what the interleaving buys: inverters first, reshaping only, inverters
  // only, and the full list without the Ω.A window.
  const std::string paper(pass::paper_flow_passes("endurance"));
  const struct {
    const char* label;
    std::string passes;
  } orderings[] = {
      {"paper", paper},
      {"inv_first", "inv,inv3,maj,dist,assoc,inv,inv3,maj,dist,inv3"},
      {"reshape_only", "maj,dist,assoc"},
      {"inv_only", "inv,inv3"},
      {"no_assoc", "maj,dist,inv,inv3,inv,inv3,maj,dist,inv3"},
  };
  const char* names[] = {"adder", "sin", "cavlc", "router"};

  std::vector<flow::SourcePtr> sources;
  std::vector<flow::Job> jobs;
  for (const auto* name : names) {
    sources.push_back(flow::Source::benchmark(name));
    for (const auto& ordering : orderings) {
      auto config = core::PipelineConfig::parse(
          "rewrite=seq:passes=" + ordering.passes +
          ",select=endurance,alloc=min_write");
      jobs.push_back({sources.back(), config, {}});
    }
  }
  flow::Runner runner({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = runner.run(jobs);
  flow::throw_on_error(results);

  const auto sink = flow::make_sink(opts.format);
  std::cout << "Ablation — pass orderings (rewrite=seq sweeps, endurance "
               "selection + min-write allocation)\n\n";
  constexpr std::size_t kPerSource = std::size(orderings);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    flow::Report doc;
    doc.title = sources[s]->label() + ":";
    doc.columns = {"ordering", "cycles run", "gates", "compl. edges", "#I",
                   "STDEV"};
    for (std::size_t o = 0; o < kPerSource; ++o) {
      const auto& result = results[s * kPerSource + o];
      doc.add_row({orderings[o].label,
                   std::to_string(result.rewrite_stats.cycles_run),
                   std::to_string(result.prepared->num_gates()),
                   std::to_string(result.prepared->complement_edge_count()),
                   std::to_string(result.report.instructions),
                   util::Table::fixed(result.report.writes.stdev)});
    }
    sink->write(doc, std::cout);
  }

  // Per-pass attribution of the paper ordering on the largest instance:
  // which pass does the work, and what does each application buy?
  const auto& attributed = results[(sources.size() - 1) * kPerSource];
  flow::Report breakdown;
  breakdown.title = sources.back()->label() + " — per-pass cost (paper "
                    "ordering):";
  breakdown.columns = {"pass", "runs", "applications", "gate delta",
                       "compl. delta", "depth delta"};
  for (const auto& pass : attributed.rewrite_stats.per_pass) {
    breakdown.add_row({pass.name, std::to_string(pass.runs),
                       std::to_string(pass.applications),
                       std::to_string(pass.gate_delta),
                       std::to_string(pass.complement_delta),
                       std::to_string(pass.depth_delta)});
  }
  sink->write(breakdown, std::cout);

  std::cout << "expected shape: reshape_only leaves complemented edges on the "
               "table and inv_only cannot shrink the graph; interleaving "
               "(paper) dominates both, and dropping Ω.A costs a few gates "
               "on the arithmetic-heavy instances\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "ablation_passes: " << error.what() << '\n';
  return 1;
}
