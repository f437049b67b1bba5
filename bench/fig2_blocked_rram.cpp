// Paper Fig. 2 scenario: a node (A) whose value is consumed only by the root
// blocks its RRAM for the whole computation, while short-lived nodes recycle
// theirs quickly. The endurance-aware node selection (Algorithm 3) computes
// short-storage-duration nodes first. Besides the write spread, this binary
// reports the *cell occupancy* (average live cells per instruction slot,
// i.e. Σ value lifetimes / #I): postponing long-lived nodes shortens the
// time their cells sit blocked.

#include <iostream>
#include <optional>
#include <vector>

#include "bench_common.hpp"

namespace {

/// Wide variant of Fig. 2: `width` long-lived "A" nodes feeding only the
/// root, plus a deep ladder of immediately-consumed nodes.
rlim::mig::Mig fig2_blocked(int width) {
  using rlim::mig::Mig;
  Mig graph;
  std::vector<rlim::mig::Signal> pis;
  for (int i = 0; i < 4 * width + 3; ++i) {
    pis.push_back(graph.create_pi());
  }
  std::vector<rlim::mig::Signal> blocked;
  for (int i = 0; i < width; ++i) {
    blocked.push_back(
        graph.create_maj(pis[3 * i], !pis[3 * i + 1], pis[3 * i + 2]));
  }
  auto ladder = pis[3 * width];
  for (int i = 0; i < 3 * width; ++i) {
    ladder = graph.create_maj(ladder, !pis[i], pis[i + 1]);
  }
  // Root consumes every blocked node at the very end.
  auto root = ladder;
  for (const auto a : blocked) {
    root = graph.create_maj(root, !a, pis[1]);
  }
  graph.create_po(root);
  return graph;
}

/// Average number of live *computed* values per instruction slot: a value is
/// live from its defining write to its last read (pre-resident PI data is
/// not counted — the paper's blocked-RRAM argument concerns computed values
/// waiting for their fanout).
double cell_occupancy(const rlim::plim::Program& program) {
  const auto instructions = program.instructions();
  const auto n = static_cast<long>(instructions.size());
  std::vector<std::optional<long>> birth(program.num_cells());
  std::vector<long> live_time(program.num_cells(), 0);
  const auto use = [&](rlim::plim::Operand operand, long time) {
    if (operand.is_constant()) {
      return;
    }
    const auto cell = operand.cell_index();
    if (birth[cell]) {
      live_time[cell] += time - *birth[cell];
      birth[cell] = time;  // still live; segments accumulate
    }
  };
  for (long t = 0; t < n; ++t) {
    use(instructions[t].a, t);
    use(instructions[t].b, t);
    birth[instructions[t].z] = t;
  }
  for (const auto cell : program.po_cells()) {
    if (birth[cell]) {
      live_time[cell] += n - *birth[cell];
    }
  }
  long total = 0;
  for (const auto time : live_time) {
    total += time;
  }
  return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace rlim;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  constexpr int kWidth = 24;
  const auto source = flow::Source::graph(fig2_blocked(kWidth), "fig2");

  struct Case {
    std::string label;
    std::string selection;  // plim::selectors() registry key
  };
  const Case cases[] = {
      {"naive order", "naive"},
      {"plim21 [21]", "plim21"},
      {"endurance-aware (Alg. 3)", "endurance"},
  };
  std::vector<flow::Job> jobs;
  for (const auto& c : cases) {
    // rewrite=none isolates the selection effect.
    const auto config = core::PipelineConfig::parse(
        "rewrite=none,select=" + c.selection + ",alloc=min_write");
    jobs.push_back({source, config, {}});
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Fig. 2 scenario — blocked RRAMs (" + std::to_string(kWidth) +
              " long-lived nodes + ladder)";
  doc.add_note("[21] selection computes releasing-heavy nodes first and leaves "
               "long-lived values blocking cells; Algorithm 3 computes "
               "short-storage nodes first.");
  doc.columns = {"selection policy", "#I", "#R", "min/max", "STDEV",
                 "occupancy"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const auto& report = results[i].report;
    doc.add_row({cases[i].label, std::to_string(report.instructions),
                 std::to_string(report.rrams),
                 benchharness::min_max(report.writes),
                 util::Table::fixed(report.writes.stdev),
                 util::Table::fixed(cell_occupancy(report.program), 1)});
  }
  doc.add_note("expected shape: Algorithm 3 lowers the occupancy (long-lived "
               "nodes are computed as late as possible) and never worsens the "
               "spread; the blocked cells' wait cannot be eliminated (paper: "
               "only decreased)");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "fig2_blocked_rram: " << error.what() << '\n';
  return 1;
}
