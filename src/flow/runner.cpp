#include "flow/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "store/disk_store.hpp"
#include "util/error.hpp"

namespace rlim::flow {

Runner::Runner(RunnerOptions options)
    : options_(options),
      service_({.jobs = options.jobs,
                .cache_programs = options.cache_programs,
                .cache_dir = std::move(options.cache_dir),
                .coalesce = false}) {}

unsigned Runner::concurrency(std::size_t job_count) const {
  unsigned workers = options_.jobs;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(1, job_count)));
}

std::vector<JobResult> Runner::run(const std::vector<Job>& jobs) {
  return service_.collect(service_.submit_batch(jobs));
}

JobResult run_job(const Job& job) {
  Service service({.jobs = 1});
  return service.wait(service.submit(job));
}

void throw_on_error(const std::vector<JobResult>& results) {
  for (const auto& result : results) {
    if (!result.ok()) {
      throw Error("flow job failed: " + result.error);
    }
  }
}

DriverOptions parse_driver_args(int argc, char** argv) {
  DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": option " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--format") {
        options.format = parse_format(next());
      } else if (arg == "--jobs") {
        options.jobs = static_cast<unsigned>(std::stoul(next()));
      } else if (arg == "--cache-dir") {
        options.cache_dir = next();
        require(!options.cache_dir.empty(), "--cache-dir needs a directory");
      } else {
        throw Error("unknown option '" + arg + "'");
      }
    } catch (const std::exception& error) {
      std::cerr << argv[0] << ": " << error.what()
                << "\nusage: " << argv[0]
                << " [--format table|csv|json] [--jobs N] [--cache-dir DIR]\n";
      std::exit(2);
    }
  }
  if (options.cache_dir.empty()) {
    // Same resolution order as the rlim CLI: the explicit flag beats the
    // ambient RLIM_CACHE_DIR, which beats "disk tier off". The env fallback
    // lives here — in the drivers' front-end parser — so the library Runner
    // itself stays hermetic.
    options.cache_dir = store::env_cache_dir();
  }
  return options;
}

}  // namespace rlim::flow
