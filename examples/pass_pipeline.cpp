// Driving the rewriting pipeline pass by pass: build a PassManager from the
// paper's endurance sequence, watch each pass work through the per-pass
// telemetry and dump hooks, cut the sequence with an `until` limit, then
// register a custom probe pass and run it through the `rewrite=seq:` config
// grammar — the same spec that flows through the cache, disk store, and
// cluster protocol.
//
//   $ ./build/examples/example_pass_pipeline

#include <iostream>
#include <string>

#include "benchmarks/arithmetic.hpp"
#include "core/endurance.hpp"
#include "pass/manager.hpp"
#include "pass/pass.hpp"
#include "pass/seq.hpp"
#include "util/table.hpp"

int main() {
  using namespace rlim;

  const auto graph = bench::make_adder(16);
  std::cout << "16-bit adder: " << graph.num_gates() << " majority gates, "
            << "depth " << graph.depth() << "\n\n";

  // 1. The endurance flow is just a pass sequence. Build it explicitly and
  //    run it with telemetry — the exact same passes, in the same order, as
  //    `rewrite=endurance` (both read the registered flow table, so the two
  //    can never drift apart).
  const auto sequence = pass::paper_flow_passes("endurance");
  std::cout << "endurance = seq:passes=" << sequence << "\n\n";

  auto manager = pass::make_manager(sequence);
  std::size_t dumps = 0;
  manager.on_dump([&dumps](const mig::Mig&, const pass::DumpContext&) {
    ++dumps;  // a real hook would dump_graph() to a file per snapshot
  });
  mig::RewriteStats stats;
  const auto rewritten = manager.run(graph, /*effort=*/5, &stats);

  util::Table table({"pass", "runs", "applications", "gate delta",
                     "compl. delta", "depth delta"});
  for (const auto& pass : stats.per_pass) {
    table.add_row({pass.name, std::to_string(pass.runs),
                   std::to_string(pass.applications),
                   std::to_string(pass.gate_delta),
                   std::to_string(pass.complement_delta),
                   std::to_string(pass.depth_delta)});
  }
  std::cout << table.to_string();
  std::cout << "fixpoint after " << stats.cycles_run << " cycles, "
            << rewritten.num_gates() << " gates, " << dumps
            << " dump snapshots\n\n";

  // 2. `until` limits every cycle to the prefix ending at a named pass —
  //    the ablation knife for "what did the tail of the sequence buy?".
  const auto reshaped =
      pass::make_manager(sequence).until("dist").run(graph, 5);
  std::cout << "until=dist (reshaping only): " << reshaped.num_gates()
            << " gates, "
            << reshaped.complement_edge_count() << " complemented edges vs "
            << rewritten.complement_edge_count() << " after the full flow\n\n";

  // 3. The pass registry is open, like every policy registry. A probe pass
  //    records the gate count it saw as its application count — a telemetry
  //    checkpoint that can sit anywhere in a sequence.
  class ProbePass final : public pass::Pass {
  public:
    explicit ProbePass(util::Params params) : params_(std::move(params)) {}
    std::string_view name() const override { return "probe"; }
    const util::Params& params() const override { return params_; }
    void run(mig::Mig& graph, pass::PassStats& stats) const override {
      stats.applications += graph.num_gates();
    }

  private:
    util::Params params_;
  };
  pass::passes().add(
      {"probe", "telemetry checkpoint: records the gate count it saw", {}},
      [](const util::Params& params) -> pass::PassPtr {
        return std::make_shared<ProbePass>(params);
      });

  // 4. Custom passes immediately compose with the whole pipeline through the
  //    config grammar — cache keys, disk store, and cluster jobs included.
  const auto config = core::PipelineConfig::parse(
      "rewrite=seq:passes=maj,dist,probe,inv,inv3,select=endurance,"
      "alloc=min_write");
  std::cout << "canonical key: " << config.canonical_key() << '\n';
  const auto report = core::run_pipeline(graph, config, "adder16");
  std::cout << "compiled: " << report.instructions << " instructions, "
            << report.rrams << " RRAMs, write STDEV "
            << util::Table::fixed(report.writes.stdev) << '\n';
  return 0;
}
