// Fault resilience: a downstream-user scenario for the seeded fault model.
// Given an adder kernel on an array with manufacturing stuck-at defects and
// finite endurance, compare three provisioning choices — no repair, spare
// cells with remap-on-failure, and retiring worn cells early — and read the
// p50/p99 lifetime off the Monte-Carlo distribution the pipeline attaches to
// each report. Everything is expressed in the config-spec grammar, so the
// same scenarios work verbatim with `rlim suite --config ...` or over the
// cluster wire protocol.
//
//   $ ./build/examples/example_fault_resilience

#include <iostream>

#include "benchmarks/arithmetic.hpp"
#include "core/config.hpp"
#include "flow/service.hpp"
#include "util/table.hpp"

int main() {
  using namespace rlim;

  // Scaled-down endurance keeps the simulation quick; real arrays move the
  // same curves out by orders of magnitude.
  const char* common =
      ":rate=0.002:endurance=300:sigma=0.3:trials=12:runs=250:seed=42";
  const struct {
    const char* label;
    std::string spec;
  } scenarios[] = {
      {"no repair", std::string("full,fault=stuck") + common},
      {"8 spares + remap",
       std::string("full,fault=stuck") + common + ":repair=remap:spares=8"},
      {"retire worn cells",
       std::string("full,alloc=retire:threshold=2,fault=stuck") + common},
  };

  const auto source = flow::Source::graph(bench::make_adder(16), "adder16");
  std::cout << "workload: 16-bit adder, stuck-at rate 0.002, endurance 300 "
               "writes, 12 Monte-Carlo arrays\n\n";

  std::vector<flow::Job> jobs;
  for (const auto& scenario : scenarios) {
    jobs.push_back({source, core::PipelineConfig::parse(scenario.spec), {}});
  }
  flow::Service service;
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  util::Table table({"scenario", "life p50", "life p99", "life max",
                     "failed cells", "remapped", "dropped writes"});
  for (std::size_t i = 0; i < std::size(scenarios); ++i) {
    const auto& dist = results[i].report.fault_sweep;
    if (!dist) {
      std::cerr << "expected a lifetime distribution on every report\n";
      return 1;
    }
    table.add_row({scenarios[i].label, std::to_string(dist->lifetime_p50),
                   std::to_string(dist->lifetime_p99),
                   std::to_string(dist->lifetime_max),
                   std::to_string(dist->failed_cells_min) + ".." +
                       std::to_string(dist->failed_cells_max),
                   std::to_string(dist->remapped_total),
                   std::to_string(dist->dropped_writes)});
  }
  std::cout << table.to_string() << '\n';
  std::cout << "remapping buys lifetime per spare cell; retiring trades a "
               "little area (more live cells in rotation) for a flatter wear "
               "profile\n";
  return 0;
}
