// Wear budgeting: a downstream-user scenario for the maximum write count
// strategy (paper Table III). Given a deployment that must survive N program
// executions on cells with endurance E, find the loosest write cap that
// meets the target and report its area/latency price. The whole cap sweep is
// one flow::Service::run batch over a shared Source — the Algorithm-2
// rewrite runs once and every capped compilation reuses it from the rewrite
// cache.
//
//   $ ./build/examples/wear_budgeting

#include <iostream>

#include "benchmarks/arithmetic.hpp"
#include "core/lifetime.hpp"
#include "flow/service.hpp"
#include "util/table.hpp"

int main() {
  using namespace rlim;

  constexpr std::uint64_t kEndurance = 10'000'000'000ULL;  // HfOx-class [5]
  constexpr std::uint64_t kTargetExecutions = 800'000'000ULL;

  // The workload: a 16-bit multiplier kernel executed on every invocation.
  const auto source = flow::Source::graph(bench::make_multiplier(16),
                                          "multiplier16");
  std::cout << "workload: 16-bit multiplier, target " << kTargetExecutions
            << " executions at cell endurance " << kEndurance << "\n\n";

  constexpr std::uint64_t kCaps[] = {0, 100, 50, 20, 10};  // 0 = uncapped
  std::vector<flow::Job> jobs;
  for (const std::uint64_t cap : kCaps) {
    // Preset alias + cap override in the config-spec grammar; "full" alone
    // is the uncapped full-endurance flow.
    const auto spec =
        cap == 0 ? std::string("full") : "full,cap=" + std::to_string(cap);
    jobs.push_back({source, core::PipelineConfig::parse(spec), {}});
  }
  flow::Service service;
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  util::Table table({"write cap", "#I", "#R", "max writes", "STDEV",
                     "guaranteed executions", "meets target"});
  std::optional<std::uint64_t> chosen;
  for (std::size_t i = 0; i < std::size(kCaps); ++i) {
    const auto& report = results[i].report;
    const auto lifetime = core::estimate_lifetime(report.writes, kEndurance);
    const bool ok = lifetime.executions_to_first_failure >= kTargetExecutions;
    if (ok && !chosen) {
      chosen = kCaps[i];
    }
    table.add_row({kCaps[i] == 0 ? "none" : std::to_string(kCaps[i]),
                   std::to_string(report.instructions),
                   std::to_string(report.rrams),
                   std::to_string(report.writes.max),
                   util::Table::fixed(report.writes.stdev),
                   std::to_string(lifetime.executions_to_first_failure),
                   ok ? "yes" : "no"});
  }
  std::cout << table.to_string() << '\n';
  if (chosen) {
    std::cout << "loosest cap meeting the target: "
              << (*chosen == 0 ? "no cap needed" : std::to_string(*chosen))
              << '\n';
  } else {
    std::cout << "no evaluated cap meets the target — tighten further or "
                 "shard the workload across arrays\n";
  }
  return 0;
}
