// Regenerates paper Table I: min/max/STDEV of per-cell write counts for the
// five incremental endurance-management configurations, with the improvement
// of each configuration's STDEV over the naive baseline. Runs the whole
// benchmark × strategy sweep as one flow::Service::run batch: the rewrite cache
// runs each rewriting flavour once per benchmark, and --jobs N parallelizes
// the grid.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;
  using benchharness::min_max;
  using core::Strategy;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  const auto suite = flow::suite();
  const auto sources = flow::suite_sources(suite);

  std::vector<flow::Job> jobs;
  for (const auto& source : sources) {
    for (const auto strategy : flow::paper_strategies()) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title = "Table I — write balance across endurance configurations (" +
              suite.label + ")";
  doc.columns = {"benchmark", "PI/PO",
                 "min/max", "STDEV",                      // naive
                 "min/max", "STDEV", "impr.",             // [21]
                 "min/max", "STDEV", "impr.",             // min write
                 "min/max", "STDEV", "impr.",             // + rewriting
                 "min/max", "STDEV", "impr."};            // + compilation
  doc.add_note("columns: naive | PLiM compiler [21] | + min-write | "
               "+ endurance rewriting | + endurance compilation");

  double sum_stdev[5] = {};
  double sum_impr[4] = {};
  std::size_t count = 0;

  for (std::size_t b = 0; b < sources.size(); ++b) {
    const auto* reports = &results[b * 5];
    std::vector<std::string> row{
        sources[b]->label(), std::to_string(sources[b]->pis()) + "/" +
                                 std::to_string(sources[b]->pos())};
    for (int i = 0; i < 5; ++i) {
      row.push_back(min_max(reports[i].report.writes));
      row.push_back(util::Table::fixed(reports[i].report.writes.stdev));
      if (i > 0) {
        const auto impr =
            core::stdev_improvement(reports[0].report, reports[i].report);
        row.push_back(util::Table::percent(impr));
        sum_impr[i - 1] += impr;
      }
      sum_stdev[i] += reports[i].report.writes.stdev;
    }
    doc.add_row(std::move(row));
    ++count;
  }

  const auto denom = static_cast<double>(count);
  doc.add_separator();
  doc.add_row({"AVG", "",
               "", util::Table::fixed(sum_stdev[0] / denom),
               "", util::Table::fixed(sum_stdev[1] / denom),
               util::Table::percent(sum_impr[0] / denom),
               "", util::Table::fixed(sum_stdev[2] / denom),
               util::Table::percent(sum_impr[1] / denom),
               "", util::Table::fixed(sum_stdev[3] / denom),
               util::Table::percent(sum_impr[2] / denom),
               "", util::Table::fixed(sum_stdev[4] / denom),
               util::Table::percent(sum_impr[3] / denom)});
  doc.add_note("paper reference (avg impr. vs naive): [21] 30.95%  "
               "min-write 57.07%  +rewriting 64.42%  +compilation 72.17%");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "table1_write_balance: " << error.what() << '\n';
  return 1;
}
