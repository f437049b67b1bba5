#include "core/endurance.hpp"

#include "pass/seq.hpp"
#include "util/error.hpp"

namespace rlim::core {

mig::Mig prepare(const mig::Mig& graph, const PipelineConfig& config) {
  return pass::make_rewrite(config.rewrite)(graph, nullptr);
}

EnduranceReport compile_prepared(const mig::Mig& prepared,
                                 const PipelineConfig& config,
                                 std::string benchmark_name,
                                 std::size_t gates_before) {
  auto compiled = plim::PlimCompiler({config.selection, config.allocation,
                                      config.max_writes})
                      .compile(prepared);

  EnduranceReport report;
  report.benchmark = std::move(benchmark_name);
  report.config = config;
  report.instructions = compiled.num_instructions();
  report.rrams = compiled.num_cells;
  report.writes = compiled.write_stats;
  report.gates_before_rewrite = gates_before != 0 ? gates_before : prepared.num_gates();
  report.gates_after_rewrite = prepared.num_gates();
  report.program = std::move(compiled.program);
  // compile_prepared is the single compile site (Service, CLI, and the net
  // server all funnel through it), so running the sweep here makes
  // every entry point fault-aware — and the distribution is cached alongside
  // the program in the pipeline cache and disk store.
  const auto sweep = fault::make_sweep(config.fault);
  if (sweep.enabled) {
    report.fault_sweep = fault::run_sweep(report.program, prepared, sweep);
  }
  return report;
}

EnduranceReport run_pipeline(const mig::Mig& graph, const PipelineConfig& config,
                             std::string benchmark_name) {
  const auto prepared = prepare(graph, config);
  return compile_prepared(prepared, config, std::move(benchmark_name),
                          graph.num_gates());
}

double stdev_improvement(const EnduranceReport& baseline,
                         const EnduranceReport& ours) {
  return util::improvement_percent(baseline.writes.stdev, ours.writes.stdev);
}

}  // namespace rlim::core
