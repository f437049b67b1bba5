// rlim end-to-end benchmark: the command-line entry point.
//
//   perfbench --workload paper_cold|serve_cluster|fault_mc --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]
//             [--corrupt-result]
//
// Untraced (--trace 0): sets the workload up (several times, reporting the
// median set-up time), runs its closed-loop timed window, checks every
// result, and prints the end-to-end metrics. Traced (--trace 1): runs a fixed
// amount of the same work untraced, traced, and untraced again, splits the
// traced jobs into layers by direct calls, writes the spans as Chrome
// trace-event JSON under --out-dir, and prints the per-layer metrics.
//
// Standard output ends with one JSON line:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// preceded by a context line (build, host, seed, shape, hardware digest).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::WorkloadResult;

/// Per-layer counts that repeat exactly for a given seed and code version,
/// and the ones that depend on thread timing. Count-based claims may use
/// only the first list.
constexpr const char* kExactCounts[] = {
    "mig.rewrite_calls",   "mig.gates_out",      "pass.runs",
    "pass.applications",   "plim.compile_calls", "plim.instructions",
    "plim.cells",          "fault.trials",       "fault.executions",
    "fault.censored_frac", "store.bytes_written", "sched.forked",
    "flow.cache.rewrite_hit_ratio", "flow.wire.result_bytes",
    "net.bytes_per_job",   "net.retries",        "net.failovers"};
/// trace.spans counts set-up spans too, and set-up repeats for a fixed time.
constexpr const char* kTimingCounts[] = {
    "flow.service.coalesced_frac", "flow.cache.program_hit_ratio",
    "sched.steals", "sched.parks", "trace.spans"};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper_cold|serve_cluster|fault_mc"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA]"
               " [--out-dir DIR] [--corrupt-result]\n";
  return 2;
}

/// The build this binary and the rlim libraries it links came from; timing
/// a debug or sanitizer build would make a meaningless baseline.
std::string refused_build() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "CMAKE_BUILD_TYPE is '" + type + "', not Release";
  }
  return {};
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_list(const char* const* names, std::size_t count) {
  std::string out = "[";
  for (std::size_t i = 0; i < count; ++i) {
    out += (i == 0 ? "" : ",") + json_string(names[i]);
  }
  return out + "]";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const auto text = value();
        if (text != "0" && text != "1") {
          return usage("--trace takes 0 or 1");
        }
        options.trace = text == "1";
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--corrupt-result") {
        options.corrupt_result = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& error) {
      return usage(error.what());
    }
  }
  if (!have_workload || !have_seed) {
    return usage("--workload and --seed are required");
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  if (const auto why = refused_build(); !why.empty()) {
    std::cerr << "perfbench: refusing to time this build: " << why << "\n";
    return 3;
  }

  perfbench::use_half_of_cpus();
  perfbench::Tracer tracer;
  perfbench::Tracer* trace = options.trace ? &tracer : nullptr;
  WorkloadResult result;
  try {
    if (options.workload == "paper_cold") {
      result = perfbench::run_paper_cold(options, trace);
    } else if (options.workload == "serve_cluster") {
      result = perfbench::run_serve_cluster(options, trace);
    } else if (options.workload == "fault_mc") {
      result = perfbench::run_fault_mc(options, trace);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  std::filesystem::remove_all(options.out_dir / "tmp");

  const bool correct = result.failed == 0 && result.mismatches == 0;
  std::ostringstream context;
  context << "{\"workload\":" << json_string(options.workload)
          << ",\"seed\":" << options.seed
          << ",\"seconds\":" << json_number(options.seconds)
          << ",\"trace\":" << (options.trace ? 1 : 0)
          << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
          << ",\"compiler\":" << json_string(compiler())
          << ",\"git_sha\":" << json_string(git_sha)
          << ",\"nproc\":" << std::thread::hardware_concurrency()
          << ",\"hw_digest\":" << json_string(result.hw_digest)
          << ",\"digest_entries\":" << result.digest_entries
          << ",\"mismatches\":" << result.mismatches;
  for (const auto& [key, value] : result.facts) {
    context << "," << json_string(key) << ":" << json_string(value);
  }
  context << ",\"exact_counts\":"
          << json_list(kExactCounts, std::size(kExactCounts))
          << ",\"timing_counts\":"
          << json_list(kTimingCounts, std::size(kTimingCounts)) << "}";

  if (trace != nullptr) {
    const auto path = options.out_dir /
                      ("trace-" + options.workload + "-" +
                       std::to_string(options.seed) + ".json");
    tracer.write_chrome(path, context.str());
    std::cerr << "perfbench: wrote " << tracer.spans().size() << " spans to "
              << path.string() << "\n";
  }

  std::cout << "{\"context\":" << context.str() << "}\n";
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    std::cout << (first ? "" : ",") << json_string(metric.name)
              << ":{\"value\":" << json_number(metric.value)
              << ",\"unit\":" << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
