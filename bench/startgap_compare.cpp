// Ablation (extension beyond the paper): compile-time write balancing vs
// Start-Gap [8], the memory-level runtime wear-leveling the paper cites from
// the PCM literature. Start-Gap rotates the logical-to-physical mapping
// underneath the write trace; we replay each compiled program's trace
// through it and compare the resulting distributions. Both compilations per
// benchmark run as one flow::Service::run batch.

#include <iostream>

#include "bench_common.hpp"
#include "core/startgap.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;
  using core::Strategy;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  const auto sources = flow::suite_sources();

  std::vector<flow::Job> jobs;
  for (const auto& source : sources) {
    jobs.push_back({source, core::make_config(Strategy::Naive), {}});
    jobs.push_back({source, core::make_config(Strategy::FullEndurance), {}});
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Start-Gap [8] vs compile-time endurance management";
  doc.add_note("(gap interval 16; Start-Gap counts include gap-move "
               "overhead writes)");
  doc.columns = {"benchmark", "naive STDEV", "naive+start-gap",
                 "full-endurance STDEV", "full+start-gap"};

  double sums[4] = {};
  std::size_t count = 0;
  for (std::size_t b = 0; b < sources.size(); ++b) {
    const auto& naive = results[b * 2].report;
    const auto& full = results[b * 2 + 1].report;

    const auto replay = [](const core::EnduranceReport& report) {
      const auto trace = core::write_trace(report.program);
      const auto counts =
          core::replay_with_start_gap(trace, report.program.num_cells(), 16);
      return util::compute_stats(counts).stdev;
    };
    const double values[4] = {naive.writes.stdev, replay(naive),
                              full.writes.stdev, replay(full)};
    doc.add_row({sources[b]->label(), util::Table::fixed(values[0]),
                 util::Table::fixed(values[1]), util::Table::fixed(values[2]),
                 util::Table::fixed(values[3])});
    for (int i = 0; i < 4; ++i) {
      sums[i] += values[i];
    }
    ++count;
  }

  const auto denom = static_cast<double>(count);
  doc.add_separator();
  doc.add_row({"AVG", util::Table::fixed(sums[0] / denom),
               util::Table::fixed(sums[1] / denom),
               util::Table::fixed(sums[2] / denom),
               util::Table::fixed(sums[3] / denom)});
  doc.add_note("expected shape: Start-Gap softens the naive flow's hotspots "
               "but a single program execution is too short for full "
               "rotation; compile-time balancing wins, and combining both "
               "helps little once traffic is already balanced");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "startgap_compare: " << error.what() << '\n';
  return 1;
}
