// Mixed policy sweep (registry-era extension beyond the paper): crosses the
// five paper presets with registry-only policies the old enums could not
// express (wear_quota selection, start_gap allocation), repeats the whole
// grid to exercise the program cache, and self-checks the two contracts the
// flow layer guarantees:
//
//   1. repeated (fingerprint, canonical config key) pairs are reused —
//      compilation runs once per distinct pair, under any --jobs N, and
//      every repeat is either a program-cache hit or coalesced onto its
//      in-flight twin (which of the two is timing, so only the sum is
//      checked);
//   2. the rendered report is byte-identical between --jobs 1 and the
//      requested worker count.
//
// Exits non-zero if either check fails, so the bench smoke run enforces the
// cache semantics end-to-end.

#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "core/lifetime.hpp"

namespace {

using namespace rlim;

std::vector<flow::Job> build_jobs(const std::vector<flow::SourcePtr>& sources) {
  // The five presets plus two registry-only configurations, twice over —
  // the second round must be answered entirely from the program cache.
  std::vector<std::string> specs;
  for (const auto& [alias, strategy] : core::strategy_aliases()) {
    (void)strategy;
    specs.emplace_back(alias);
  }
  specs.emplace_back("rewrite=endurance,select=wear_quota:quota=4,alloc=min_write");
  specs.emplace_back("full,alloc=start_gap:interval=8");

  std::vector<flow::Job> jobs;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const auto& source : sources) {
      for (const auto& spec : specs) {
        jobs.push_back({source, core::PipelineConfig::parse(spec), {}});
      }
    }
  }
  return jobs;
}

std::string render(const std::vector<flow::Job>& jobs,
                   const std::vector<flow::JobResult>& results,
                   const std::string& suite_label, flow::ReportFormat format) {
  flow::Report doc;
  doc.title = "Mixed policy sweep — presets x registry-only policies (" +
              suite_label + ")";
  doc.columns = {"benchmark", "config", "#I", "#R", "min/max", "STDEV",
                 "executions@1e10"};
  // Report only the first round; the repeat exists to exercise the cache.
  const auto first_round = results.size() / 2;
  for (std::size_t i = 0; i < first_round; ++i) {
    const auto& report = results[i].report;
    doc.add_row({report.benchmark, jobs[i].config.canonical_key(),
                 std::to_string(report.instructions),
                 std::to_string(report.rrams),
                 rlim::benchharness::min_max(report.writes),
                 util::Table::fixed(report.writes.stdev),
                 std::to_string(core::estimate_lifetime(report.writes)
                                    .executions_to_first_failure)});
  }
  doc.add_note("wear_quota / start_gap are registry-only policies — "
               "inexpressible in the pre-registry enum API");
  std::ostringstream os;
  flow::make_sink(format)->write(doc, os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  const auto opts = benchharness::parse_driver_args(argc, argv);
  const auto suite = flow::suite();
  const auto sources = flow::suite_sources(suite);
  const auto jobs = build_jobs(sources);
  const auto distinct = jobs.size() / 2;

  // Both services may share one persistent store: the serial run seeds it
  // and the parallel run answers from disk — program_misses still counts
  // per distinct (fingerprint, key) pair, so the self-checks below hold
  // with or without --cache-dir.
  flow::Service serial({.jobs = 1, .cache_dir = opts.cache_dir});
  flow::Service parallel(
      {.jobs = opts.jobs == 0 ? 8 : opts.jobs, .cache_dir = opts.cache_dir});
  const auto serial_results = serial.run(jobs);
  const auto parallel_results = parallel.run(jobs);
  flow::throw_on_error(serial_results);
  flow::throw_on_error(parallel_results);

  const auto serial_text = render(jobs, serial_results, suite.label, opts.format);
  const auto parallel_text =
      render(jobs, parallel_results, suite.label, opts.format);
  const auto compiles = parallel.cache().program_misses();
  const auto reused =
      parallel.cache().program_hits() + parallel.stats().coalesced;
  std::cout << parallel_text << "program cache: " << compiles
            << " compiles, " << reused << " reused over " << jobs.size()
            << " jobs\n";

  int failures = 0;
  if (compiles != distinct || reused != jobs.size() - distinct) {
    std::cerr << "FAIL: expected " << distinct << " compiles and "
              << jobs.size() - distinct << " reused programs\n";
    ++failures;
  }
  if (serial_text != parallel_text) {
    std::cerr << "FAIL: report bytes differ between --jobs 1 and parallel run\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
} catch (const std::exception& error) {
  std::cerr << "mixed_policy_sweep: " << error.what() << '\n';
  return 1;
}
