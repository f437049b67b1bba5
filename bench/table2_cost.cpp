// Regenerates paper Table II: number of RM3 instructions (#I) and RRAM
// devices (#R) for the naive flow, endurance-aware rewriting, and
// endurance-aware rewriting + compilation. One flow::Service::run batch over
// the suite × 3 configurations.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace rlim;
  using core::Strategy;

  const auto opts = benchharness::parse_driver_args(argc, argv);
  const auto suite = flow::suite();
  const auto sources = flow::suite_sources(suite);

  static constexpr Strategy kStrategies[3] = {
      Strategy::Naive, Strategy::MinWriteEnduranceRewrite,
      Strategy::FullEndurance};

  std::vector<flow::Job> jobs;
  for (const auto& source : sources) {
    for (const auto strategy : kStrategies) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  flow::Service service({.jobs = opts.jobs, .cache_dir = opts.cache_dir});
  const auto results = service.run(jobs);
  flow::throw_on_error(results);

  flow::Report doc;
  doc.title =
      "Table II — instructions and RRAMs for endurance-aware compilation (" +
      suite.label + ")";
  doc.columns = {"benchmark", "PI/PO", "naive #I", "naive #R",
                 "rewriting #I", "rewriting #R", "rw+comp #I", "rw+comp #R"};

  double sums[6] = {};
  std::size_t count = 0;
  for (std::size_t b = 0; b < sources.size(); ++b) {
    const auto& naive = results[b * 3].report;
    const auto& rewriting = results[b * 3 + 1].report;
    const auto& full = results[b * 3 + 2].report;

    doc.add_row({sources[b]->label(),
                 std::to_string(sources[b]->pis()) + "/" +
                     std::to_string(sources[b]->pos()),
                 std::to_string(naive.instructions), std::to_string(naive.rrams),
                 std::to_string(rewriting.instructions),
                 std::to_string(rewriting.rrams),
                 std::to_string(full.instructions), std::to_string(full.rrams)});
    const double values[6] = {
        static_cast<double>(naive.instructions), static_cast<double>(naive.rrams),
        static_cast<double>(rewriting.instructions),
        static_cast<double>(rewriting.rrams),
        static_cast<double>(full.instructions), static_cast<double>(full.rrams)};
    for (int i = 0; i < 6; ++i) {
      sums[i] += values[i];
    }
    ++count;
  }

  const auto denom = static_cast<double>(count);
  doc.add_separator();
  doc.add_row({"AVG", "", util::Table::fixed(sums[0] / denom),
               util::Table::fixed(sums[1] / denom),
               util::Table::fixed(sums[2] / denom),
               util::Table::fixed(sums[3] / denom),
               util::Table::fixed(sums[4] / denom),
               util::Table::fixed(sums[5] / denom)});

  const auto reduction = [](double baseline, double ours) {
    return util::improvement_percent(baseline, ours);
  };
  doc.add_note("avg #I reduction vs naive: rewriting " +
               util::Table::percent(reduction(sums[0], sums[2])) +
               ", rewriting+compilation " +
               util::Table::percent(reduction(sums[0], sums[4])));
  doc.add_note("avg #R reduction vs naive: rewriting " +
               util::Table::percent(reduction(sums[1], sums[3])) +
               ", rewriting+compilation " +
               util::Table::percent(reduction(sums[1], sums[5])));
  doc.add_note("paper reference: #I -36.48%, #R -18.18% (rewriting); "
               "compilation costs ~8% extra #R over rewriting alone");

  flow::make_sink(opts.format)->write(doc, std::cout);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "table2_cost: " << error.what() << '\n';
  return 1;
}
