#pragma once

// Shared harness of the bench drivers: the command-line parser every driver
// starts with, suite selection, and the paper's "min/max" cell notation.
// Drivers build flow::Jobs, run them with flow::Service::run (whose
// pipeline cache shares rewrites across a sweep — see
// src/flow/service.hpp), and render flow::Reports through a ReportSink.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "benchmarks/suite.hpp"
#include "flow/report.hpp"
#include "flow/service.hpp"
#include "flow/suite.hpp"
#include "store/disk_store.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace rlim::benchharness {

/// Shared command-line options of the bench drivers.
struct DriverOptions {
  flow::ReportFormat format = flow::ReportFormat::Table;
  unsigned jobs = 0;  ///< Service worker count (0 = hardware concurrency)
  /// Persistent pipeline store directory: --cache-dir, falling back to
  /// RLIM_CACHE_DIR (store::env_cache_dir()) like the rlim CLI; empty keeps
  /// the disk tier off. Hand to ServiceOptions::cache_dir.
  std::string cache_dir{};
};

/// Parses `--format table|csv|json`, `--jobs N`, and `--cache-dir DIR` from
/// a bench driver's argv. On bad usage, prints a message to stderr and exits
/// with code 2 (bench drivers have no other CLI surface).
[[nodiscard]] inline DriverOptions parse_driver_args(int argc, char** argv) {
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
        options.format = flow::parse_format(next());
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
    // lives here — in the drivers' front-end parser — so the library
    // Service itself stays hermetic.
    options.cache_dir = store::env_cache_dir();
  }
  return options;
}

/// Suite selection, forwarded to the flow layer (the single RLIM_SUITE
/// parser).
inline const std::vector<bench::BenchmarkSpec>& selected_suite() {
  return *flow::suite().specs;
}

inline std::string suite_label() { return flow::suite().label; }

/// "min/max" cell in the paper's notation.
inline std::string min_max(const util::WriteStats& stats) {
  return std::to_string(stats.min) + "/" + std::to_string(stats.max);
}

}  // namespace rlim::benchharness
