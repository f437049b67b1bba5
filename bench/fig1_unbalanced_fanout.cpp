// Paper Fig. 1 scenario: an MIG chain in which every node's only
// single-fanout child is the previous chain node, so the area-greedy
// compiler recycles ONE cell as the RM3 destination through the entire
// chain. This binary makes the phenomenon quantitative: it prints the
// per-cell write histogram under each strategy and shows how the maximum
// write strategy bounds the hot cell at the cost of extra cells. The five
// configurations compile one shared in-memory Source through flow::Service.

#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

rlim::mig::Mig fig1_chain(int length) {
  using rlim::mig::Mig;
  Mig graph;
  std::vector<rlim::mig::Signal> pis;
  for (int i = 0; i < 2 * length + 1; ++i) {
    pis.push_back(graph.create_pi());
  }
  auto chain = pis[0];
  for (int i = 0; i < length; ++i) {
    const auto u = pis[1 + 2 * i];
    const auto v = pis[2 + 2 * i];
    chain = graph.create_maj(chain, !u, v);
    graph.create_po(graph.create_and(u, v));  // keep u, v multi-fanout
  }
  graph.create_po(chain);
  return graph;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  constexpr int kLength = 64;
  const auto source = flow::Source::graph(fig1_chain(kLength), "fig1");

  struct Case {
    std::string label;
    core::PipelineConfig config;
  };
  const Case cases[] = {
      {"naive", core::make_config(core::Strategy::Naive)},
      {"min-write", core::make_config(core::Strategy::MinWrite)},
      {"full endurance", core::make_config(core::Strategy::FullEndurance)},
      {"full endurance, cap 10",
       core::make_config(core::Strategy::FullEndurance, 10)},
      {"full endurance, cap 4",
       core::make_config(core::Strategy::FullEndurance, 4)},
  };
  std::vector<flow::Job> jobs;
  for (const auto& c : cases) {
    jobs.push_back({source, c.config, {}});
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Fig. 1 scenario — single-fanout destination chain (length " +
              std::to_string(kLength) + ")";
  doc.add_note("Every chain node's only writable destination is the previous "
               "chain cell; without intervention one cell absorbs the whole "
               "chain's writes.");
  doc.columns = {"configuration", "#I", "#R", "min/max", "STDEV",
                 "hottest-cell share"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& report = results[i].report;
    const auto share =
        100.0 * static_cast<double>(report.writes.max) /
        static_cast<double>(report.writes.total == 0 ? 1 : report.writes.total);
    doc.add_row({cases[i].label, std::to_string(report.instructions),
                 std::to_string(report.rrams),
                 benchharness::min_max(report.writes),
                 util::Table::fixed(report.writes.stdev),
                 util::Table::percent(share)});
  }
  doc.add_note("expected shape: naive max ≈ chain length (" +
               std::to_string(kLength) + "); caps bound max at the cap while "
               "#R grows");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "fig1_unbalanced_fanout: " << error.what() << '\n';
  return 1;
}
