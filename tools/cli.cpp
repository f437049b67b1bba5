#include "cli.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#include <signal.h>

#include "benchmarks/suite.hpp"
#include "core/lifetime.hpp"
#include "fault/fault.hpp"
#include "core/registry.hpp"
#include "flow/report.hpp"
#include "flow/service.hpp"
#include "flow/suite.hpp"
#include "flow/wire.hpp"
#include "mig/io.hpp"
#include "mig/rewriting.hpp"
#include "pass/dump.hpp"
#include "pass/seq.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "store/disk_store.hpp"
#include "store/format.hpp"
#include "store/gc.hpp"
#include "plim/controller.hpp"
#include "plim/cost_model.hpp"
#include "sched/deque.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rlim::cli {

namespace {

struct Options {
  std::string command;
  std::vector<std::string> positional;
  std::optional<std::string> strategy;
  std::optional<std::uint64_t> cap;
  std::string config_spec;  // --config: the registry-keyed spec grammar
  std::string flow = "endurance";
  std::string passes;      // rewrite: explicit pass list for --flow seq
  std::string until;       // rewrite: stop each cycle after this pass
  std::string dump_after;  // rewrite: dump directory, or "-" for stderr
  std::optional<int> effort;
  unsigned jobs = 0;  // 0 = hardware concurrency
  // --format when given; most commands default to Table (format_of), serve
  // accepts only csv and must distinguish "unset" from an explicit ask.
  std::optional<flow::ReportFormat> format;
  bool disasm = false;
  bool verify = false;
  bool stdin_jobs = false;  // serve: read job specs from the input stream
  std::string listen;       // serve: HOST:PORT socket front-end
  std::string connect;      // submit/stats: shard endpoint list
  std::optional<unsigned> retries;                   // submit: per-shard
  std::optional<std::uint64_t> connect_timeout_ms;   // submit/stats
  std::optional<std::uint64_t> request_timeout_ms;   // submit/stats
  std::optional<std::uint64_t> max_frame_bytes;      // serve/submit/stats
  std::string cache_dir;  // --cache-dir: overrides RLIM_CACHE_DIR
  std::optional<std::uint64_t> max_bytes;     // cache gc
  std::optional<std::uint64_t> max_age_days;  // cache gc
  std::optional<std::string> priority;        // serve/submit/loadgen default
  std::optional<std::uint64_t> deadline_ms;   // serve/submit/loadgen default
  std::optional<std::uint64_t> count;         // loadgen: total jobs
  std::optional<unsigned> streams;            // loadgen: closed-loop streams
  std::optional<std::uint64_t> seed;          // loadgen: stream seed
  std::optional<unsigned> duplicate_pct;      // loadgen: duplicate ratio
};

/// Strict unsigned parse: digits only, fully consumed. std::stoull would
/// accept "-1" (wrapping) and "10MB" (as 10) — both typos a size/age cap
/// should reject loudly instead of mis-evicting.
std::uint64_t parse_u64(const std::string& option, const std::string& text) {
  require(!text.empty() &&
              text.find_first_not_of("0123456789") == std::string::npos,
          option + " needs a non-negative integer, got '" + text + "'");
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw Error(option + " value '" + text + "' is out of range");
  }
}

Options parse(const std::vector<std::string>& args) {
  Options options;
  require(!args.empty(),
          "missing command (info, rewrite, compile, suite, serve, submit, "
          "stats, loadgen, policies, cache, version)");
  options.command = args[0] == "--version" ? "version" : args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto& arg = args[i];
    const auto next = [&]() -> const std::string& {
      require(i + 1 < args.size(), "option " + arg + " needs a value");
      return args[++i];
    };
    if (arg == "--strategy") {
      options.strategy = next();
    } else if (arg == "--cap") {
      options.cap = std::stoull(next());
    } else if (arg == "--config") {
      options.config_spec = next();
    } else if (arg == "--flow") {
      options.flow = next();
    } else if (arg == "--passes") {
      options.passes = next();
      require(!options.passes.empty(), "--passes needs a pass list");
    } else if (arg == "--until") {
      options.until = next();
      require(!options.until.empty(), "--until needs a pass name");
    } else if (arg == "--dump-after") {
      options.dump_after = next();
      require(!options.dump_after.empty(),
              "--dump-after needs a directory (or - for stderr)");
    } else if (arg == "--effort") {
      options.effort = std::stoi(next());
    } else if (arg == "--jobs") {
      options.jobs = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--format") {
      options.format = flow::parse_format(next());
    } else if (arg == "--disasm") {
      options.disasm = true;
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg == "--stdin-jobs") {
      options.stdin_jobs = true;
    } else if (arg == "--listen") {
      options.listen = next();
      require(!options.listen.empty(), "--listen needs HOST:PORT");
    } else if (arg == "--connect") {
      options.connect = next();
      require(!options.connect.empty(),
              "--connect needs HOST:PORT[,HOST:PORT...]");
    } else if (arg == "--retries") {
      options.retries = static_cast<unsigned>(parse_u64(arg, next()));
    } else if (arg == "--connect-timeout-ms") {
      options.connect_timeout_ms = parse_u64(arg, next());
    } else if (arg == "--request-timeout-ms") {
      options.request_timeout_ms = parse_u64(arg, next());
    } else if (arg == "--max-frame-bytes") {
      options.max_frame_bytes = parse_u64(arg, next());
      require(*options.max_frame_bytes > 0, "--max-frame-bytes must be > 0");
    } else if (arg == "--cache-dir") {
      options.cache_dir = next();
      require(!options.cache_dir.empty(), "--cache-dir needs a directory");
    } else if (arg == "--max-bytes") {
      options.max_bytes = parse_u64(arg, next());
    } else if (arg == "--max-age-days") {
      options.max_age_days = parse_u64(arg, next());
    } else if (arg == "--priority") {
      options.priority = next();
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = parse_u64(arg, next());
      require(*options.deadline_ms > 0, "--deadline-ms must be > 0");
    } else if (arg == "--count") {
      options.count = parse_u64(arg, next());
    } else if (arg == "--streams") {
      options.streams = static_cast<unsigned>(parse_u64(arg, next()));
    } else if (arg == "--seed") {
      options.seed = parse_u64(arg, next());
    } else if (arg == "--duplicate-pct") {
      options.duplicate_pct = static_cast<unsigned>(parse_u64(arg, next()));
    } else if (arg.rfind("--", 0) == 0) {
      throw Error("unknown option " + arg);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

flow::ReportFormat format_of(const Options& options) {
  return options.format.value_or(flow::ReportFormat::Table);
}

/// The job configuration selected by --config / --strategy / --cap /
/// --effort (default: the full-endurance preset).
core::PipelineConfig config_from(const Options& options) {
  core::PipelineConfig config;
  if (!options.config_spec.empty()) {
    require(!options.strategy && !options.cap,
            "--config replaces --strategy/--cap (append ,cap=N to the spec)");
    config = core::PipelineConfig::parse(options.config_spec);
  } else {
    config = core::make_config(
        core::parse_strategy(options.strategy.value_or("full")), options.cap);
  }
  if (options.effort) {
    config.set_effort(*options.effort);
    // set_effort bypasses parse()'s eager validation — re-check so a bad
    // --effort fails here instead of per-job deep inside the batch.
    (void)pass::make_rewrite(config.rewrite);
  }
  return config;
}

/// Label of the selected configuration for report titles: the legacy
/// "strategy NAME (cap N)" wording for --strategy (kept byte-stable), the
/// canonical key for --config.
std::string config_label(const Options& options,
                         const core::PipelineConfig& config) {
  if (!options.config_spec.empty()) {
    return "config " + config.canonical_key();
  }
  return "strategy " + options.strategy.value_or("full") +
         (options.cap ? " (cap " + std::to_string(*options.cap) + ")" : "");
}

/// Resolved persistent-store directory: --cache-dir beats RLIM_CACHE_DIR;
/// empty means the disk tier stays off.
std::string resolve_cache_dir(const Options& options) {
  return options.cache_dir.empty() ? store::env_cache_dir()
                                   : options.cache_dir;
}

/// One telemetry line per invocation when a store is attached. Goes to
/// stderr: report output on stdout must stay byte-identical between a cold
/// and a warm run against the same store.
void print_store_summary(const flow::PipelineCache& cache, std::ostream& err) {
  const auto& disk = cache.disk_store();
  if (disk == nullptr) {
    return;
  }
  const auto counters = disk->counters();
  err << "rlim: cache " << disk->root().string() << ": program loads "
      << counters.program_loads << ", rewrite loads "
      << counters.rewrite_loads << ", stores " << counters.stores
      << ", write failures " << counters.store_failures
      << ", corrupt evicted " << counters.evicted_corrupt
      << ", version evicted " << counters.evicted_version << '\n';
}

mig::Mig load_netlist(const std::string& source) {
  return flow::Source::netlist(source)->original();
}

void save_netlist(const mig::Mig& graph, const std::string& path) {
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".blif") {
    mig::write_blif_file(graph, path);
    return;
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".mig") {
    mig::write_mig_file(graph, path);
    return;
  }
  throw Error("output must end in .mig or .blif");
}

int cmd_info(const Options& options, std::ostream& out) {
  require(options.positional.size() == 1, "info needs exactly one netlist");
  const auto graph = load_netlist(options.positional[0]);
  const auto reachable = graph.reachable_from_pos();
  std::size_t dead = 0;
  for (std::uint32_t gate = graph.first_gate(); gate < graph.num_nodes(); ++gate) {
    if (!reachable[gate]) {
      ++dead;
    }
  }
  out << "pis:              " << graph.num_pis() << '\n'
      << "pos:              " << graph.num_pos() << '\n'
      << "gates:            " << graph.num_gates() << " (" << dead << " dead)\n"
      << "depth:            " << graph.depth() << '\n'
      << "complement edges: " << graph.complement_edge_count() << '\n';
  return 0;
}

/// One human-readable line per pipeline position of a per-pass breakdown.
/// Wall time is deliberately omitted from `compile` verbose output (it must
/// stay byte-identical between cold and warm cache runs) but shown by
/// `rewrite`, which always executes the flow.
void print_pass_breakdown(const std::vector<mig::PassStats>& per_pass,
                          std::ostream& out, bool wall) {
  for (const auto& pass : per_pass) {
    out << "  " << pass.name << std::string(pass.name.size() < 8
                                                ? 8 - pass.name.size()
                                                : 1,
                                            ' ')
        << "runs " << pass.runs << ", applications " << pass.applications
        << ", gates " << (pass.gate_delta > 0 ? "+" : "") << pass.gate_delta
        << ", complement edges " << (pass.complement_delta > 0 ? "+" : "")
        << pass.complement_delta << ", depth "
        << (pass.depth_delta > 0 ? "+" : "") << pass.depth_delta;
    if (wall) {
      out << ", " << pass.wall_ns / 1000 << " us";
    }
    out << '\n';
  }
}

int cmd_rewrite(const Options& options, std::ostream& out, std::ostream& err) {
  require(options.positional.size() == 2, "rewrite needs <input> <output>");
  const auto graph = load_netlist(options.positional[0]);

  // Resolve --flow (+ --passes for seq) to a pass list, so every flow runs
  // through a PassManager built here and supports --until / --dump-after.
  // The paper flows read their lists from the registered flow table.
  std::string_view list;
  if (options.flow == "seq") {
    require(!options.passes.empty(), "--flow seq needs --passes");
    list = options.passes;
  } else {
    require(options.passes.empty(), "--passes needs --flow seq");
    for (const auto& flow : pass::kPaperFlows) {
      // `level` is the CLI's short spelling of level_balanced.
      const std::string_view flag =
          flow.key == "level_balanced" ? "level" : flow.key;
      if (options.flow == flag) {
        list = flow.passes;
      }
    }
    if (list.empty()) {
      throw Error("unknown flow '" + options.flow +
                  "' (expected plim21, endurance, level, seq)");
    }
  }
  auto manager = pass::make_manager(list, options.until);
  if (options.dump_after == "-") {
    manager.on_dump(pass::dump_to_stream(err));
  } else if (!options.dump_after.empty()) {
    manager.on_dump(pass::dump_to_directory(options.dump_after));
  }

  mig::RewriteStats stats;
  const auto rewritten =
      manager.run(graph, options.effort.value_or(5), &stats);
  save_netlist(rewritten, options.positional[1]);
  out << "gates: " << stats.initial_gates << " -> " << stats.final_gates << '\n'
      << "complement edges: " << stats.initial_complement_edges << " -> "
      << stats.final_complement_edges << '\n'
      << "cycles run: " << stats.cycles_run << '\n'
      << "passes:\n";
  print_pass_breakdown(stats.per_pass, out, /*wall=*/true);
  return 0;
}

/// The verbose single-netlist report (the historical `compile` output).
int print_compile_details(const Options& options, const flow::JobResult& result,
                          std::ostream& out) {
  const auto& report = result.report;
  const auto lifetime = core::estimate_lifetime(report.writes);

  if (!options.config_spec.empty()) {
    out << "config:          " << report.config.canonical_key();
  } else {
    out << "strategy:        " << options.strategy.value_or("full");
    if (options.cap) {
      out << " (cap " << *options.cap << ")";
    }
  }
  out << '\n'
      << "gates:           " << report.gates_before_rewrite << " -> "
      << report.gates_after_rewrite << '\n';
  if (!result.rewrite_stats.per_pass.empty()) {
    // Deterministic per-pass attribution (wall time excluded): a warm run
    // decoding the stats from the store prints the same bytes as the cold
    // run that computed them.
    out << "rewrite passes (" << result.rewrite_stats.cycles_run
        << " cycles):\n";
    print_pass_breakdown(result.rewrite_stats.per_pass, out, /*wall=*/false);
  }
  out << "instructions:    " << report.instructions << '\n'
      << "rram cells:      " << report.rrams << '\n'
      << "writes min/max:  " << report.writes.min << "/" << report.writes.max
      << '\n'
      << "writes stdev:    " << report.writes.stdev << '\n'
      << "executions@1e10: " << lifetime.executions_to_first_failure << '\n';
  const auto cost = plim::estimate_cost(report.program);
  out << "latency:         " << cost.cycles << " cycles (" << cost.latency_ns
      << " ns @10ns)\n"
      << "energy:          " << cost.energy_pj << " pJ (" << cost.cell_reads
      << " reads, " << cost.cell_writes << " writes)\n";

  if (const auto& sweep = report.fault_sweep) {
    out << "fault model:     " << report.config.fault.canonical() << '\n'
        << "lifetime (" << sweep->trials
        << " trials): min/p50/p99/max " << sweep->lifetime_min << "/"
        << sweep->lifetime_p50 << "/" << sweep->lifetime_p99 << "/"
        << sweep->lifetime_max << " of " << sweep->runs_cap << " runs ("
        << sweep->censored << " censored)\n"
        << "failed cells:    " << sweep->failed_cells_min << ".."
        << sweep->failed_cells_max << " (mean "
        << util::Table::fixed(sweep->failed_cells_mean) << ")\n"
        << "remap/dropped:   " << sweep->remapped_total << "/"
        << sweep->dropped_writes << '\n';
  }

  if (options.verify) {
    const bool ok =
        plim::program_matches_mig(report.program, *result.prepared, 16, 1);
    out << "verification:    " << (ok ? "passed" : "FAILED") << '\n';
    if (!ok) {
      return 2;
    }
  }
  if (options.disasm) {
    out << '\n' << report.program.disassemble();
  }
  return 0;
}

/// The batch-row column set shared by compile, suite, and serve.
const std::vector<std::string>& summary_columns() {
  static const std::vector<std::string> columns = {
      "benchmark", "gates", "#I", "#R", "min/max", "STDEV",
      "executions@1e10"};
  return columns;
}

/// Extra columns for batches whose config requests a fault sweep. Kept out
/// of summary_columns() so serve/submit job streams (which mix per-line
/// configs) and fault-free batches stay byte-identical to previous releases.
const std::vector<std::string>& fault_columns() {
  static const std::vector<std::string> columns = {
      "trials", "life min/p50/p99/max", "failed cells", "remap/drop"};
  return columns;
}

void append_fault_cells(std::vector<std::string>& row,
                        const flow::JobResult& result) {
  const auto& sweep = result.report.fault_sweep;
  if (!sweep) {
    row.insert(row.end(), fault_columns().size(), "-");
    return;
  }
  std::string trials = std::to_string(sweep->trials);
  if (sweep->censored != 0) {
    trials += " (" + std::to_string(sweep->censored) + " cens)";
  }
  row.push_back(std::move(trials));
  row.push_back(std::to_string(sweep->lifetime_min) + "/" +
                std::to_string(sweep->lifetime_p50) + "/" +
                std::to_string(sweep->lifetime_p99) + "/" +
                std::to_string(sweep->lifetime_max));
  row.push_back(std::to_string(sweep->failed_cells_min) + ".." +
                std::to_string(sweep->failed_cells_max) + " (" +
                util::Table::fixed(sweep->failed_cells_mean) + ")");
  row.push_back(std::to_string(sweep->remapped_total) + "/" +
                std::to_string(sweep->dropped_writes));
}

/// One summary row for a job outcome. Failed jobs keep their row — error in
/// the gates column, dashes out to `width` — so the rest of a batch or
/// stream still reports.
std::vector<std::string> result_cells(const std::string& label,
                                      const flow::JobResult& result,
                                      std::size_t width) {
  if (!result.ok()) {
    std::vector<std::string> row{label, "error: " + result.error};
    row.resize(width, "-");
    return row;
  }
  const auto& report = result.report;
  return {report.benchmark,
          std::to_string(report.gates_before_rewrite) + " -> " +
              std::to_string(report.gates_after_rewrite),
          std::to_string(report.instructions), std::to_string(report.rrams),
          std::to_string(report.writes.min) + "/" +
              std::to_string(report.writes.max),
          util::Table::fixed(report.writes.stdev),
          std::to_string(core::estimate_lifetime(report.writes)
                             .executions_to_first_failure)};
}

/// Renders one row per job into `doc` (the shared compile/suite batch
/// table). Returns {any_failed, all_verified}.
std::pair<bool, bool> batch_rows(const Options& options,
                                 const std::vector<flow::Job>& jobs,
                                 const std::vector<flow::JobResult>& results,
                                 flow::Report& doc) {
  doc.columns = summary_columns();
  const bool with_fault =
      !jobs.empty() && fault::active(jobs.front().config.fault);
  if (with_fault) {
    doc.columns.insert(doc.columns.end(), fault_columns().begin(),
                       fault_columns().end());
  }
  if (options.verify) {
    doc.columns.push_back("verified");
  }
  bool all_verified = true;
  bool any_failed = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    auto row =
        result_cells(jobs[i].display_label(), result, doc.columns.size());
    if (!result.ok()) {
      any_failed = true;
    } else {
      if (with_fault) {
        append_fault_cells(row, result);
      }
      if (options.verify) {
        const bool ok = plim::program_matches_mig(result.report.program,
                                                  *result.prepared, 16, 1);
        all_verified &= ok;
        row.push_back(ok ? "passed" : "FAILED");
      }
    }
    doc.add_row(std::move(row));
  }
  return {any_failed, all_verified};
}

int cmd_compile(const Options& options, std::ostream& out,
                std::ostream& err) {
  require(!options.positional.empty(),
          "compile needs at least one netlist or bench:NAME");
  require(!options.disasm || options.positional.size() == 1,
          "--disasm requires a single netlist");

  const auto config = config_from(options);

  std::vector<flow::Job> jobs;
  jobs.reserve(options.positional.size());
  for (const auto& spec : options.positional) {
    jobs.push_back({flow::Source::netlist(spec), config, spec});
  }
  flow::Service service(
      {.jobs = options.jobs, .cache_dir = resolve_cache_dir(options)});
  const auto results = service.run(jobs);
  print_store_summary(service.cache(), err);

  if (options.positional.size() == 1 &&
      format_of(options) == flow::ReportFormat::Table) {
    flow::throw_on_error(results);
    return print_compile_details(options, results.front(), out);
  }

  flow::Report doc;
  doc.title = "compile — " + config_label(options, config);
  const auto [any_failed, all_verified] =
      batch_rows(options, jobs, results, doc);
  flow::make_sink(format_of(options))->write(doc, out);
  if (any_failed) {
    return 1;
  }
  return all_verified ? 0 : 2;
}

int cmd_suite(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.config_spec.empty() && !options.strategy) {
    // Without a configuration, list the built-in benchmarks (the historical
    // behavior). Flags that only make sense for a sweep are rejected rather
    // than silently dropped.
    require(!options.cap && !options.effort && !options.verify &&
                options.jobs == 0,
            "suite: --cap/--effort/--verify/--jobs need --strategy or "
            "--config (without one, suite only lists the benchmarks)");
    flow::Report doc;
    doc.title = "built-in benchmarks (compile with bench:NAME):";
    doc.columns = {"benchmark", "PI/PO", "class"};
    for (const auto& spec : bench::paper_suite()) {
      doc.add_row({spec.name,
                   std::to_string(spec.pis) + "/" + std::to_string(spec.pos),
                   spec.arithmetic ? "arithmetic" : "control"});
    }
    flow::make_sink(format_of(options))->write(doc, out);
    return 0;
  }

  // With --config/--strategy: compile the whole evaluation suite under that
  // configuration as one batch.
  const auto config = config_from(options);
  const auto suite = flow::suite();
  std::vector<flow::Job> jobs;
  for (const auto& source : flow::suite_sources(suite)) {
    jobs.push_back({source, config, {}});
  }
  flow::Service service(
      {.jobs = options.jobs, .cache_dir = resolve_cache_dir(options)});
  const auto results = service.run(jobs);
  print_store_summary(service.cache(), err);

  flow::Report doc;
  doc.title = "suite (" + suite.label + ") — " + config_label(options, config);
  const auto [any_failed, all_verified] =
      batch_rows(options, jobs, results, doc);
  flow::make_sink(format_of(options))->write(doc, out);
  if (any_failed) {
    return 1;
  }
  return all_verified ? 0 : 2;
}

/// One parsed job-stream line: `NETLIST [CONFIG-SPEC] [@PRIO[:DEADLINE_MS]]`.
/// The trailing scheduling token stays raw text ('@' stripped) so parse
/// failures surface inside the per-line error handling of serve/submit —
/// an error row in stream position — instead of killing the stream.
struct JobLine {
  std::string label;
  std::optional<std::string> config;
  std::optional<std::string> sched;
};

/// Splits one job-stream line into its parts; nullopt for blank and `#`
/// comment lines. Shared by `serve --stdin-jobs` and `submit` so the two
/// transports accept byte-identical streams.
std::optional<JobLine> split_job_line(const std::string& line) {
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') {
    return std::nullopt;
  }
  const auto last = line.find_last_not_of(" \t\r");
  auto text = line.substr(first, last - first + 1);

  JobLine item;
  // Peel the optional trailing `@...` scheduling token. Only the last
  // whitespace-separated token qualifies, so config specs stay free to
  // contain '@' should a policy ever want one.
  const auto tail = text.find_last_of(" \t");
  if (tail != std::string::npos && text[tail + 1] == '@') {
    item.sched = text.substr(tail + 2);
    text = text.substr(0, text.find_last_not_of(" \t", tail) + 1);
  }
  const auto space = text.find_first_of(" \t");
  if (space == std::string::npos) {
    item.label = std::move(text);
  } else {
    item.label = text.substr(0, space);
    item.config = text.substr(text.find_first_not_of(" \t", space));
  }
  return item;
}

/// Parses the body of a job line's `@PRIO[:DEADLINE_MS]` token. Throws
/// rlim::Error for unknown priorities and malformed deadlines.
std::pair<sched::Priority, std::optional<std::uint64_t>> parse_sched_token(
    const std::string& body) {
  const auto colon = body.find(':');
  const auto priority = sched::parse_priority(body.substr(0, colon));
  std::optional<std::uint64_t> deadline;
  if (colon != std::string::npos) {
    deadline = parse_u64("@" + body.substr(0, colon) + " deadline",
                         body.substr(colon + 1));
    require(*deadline > 0, "@" + body.substr(0, colon) +
                               " deadline must be > 0 milliseconds");
  }
  return {priority, deadline};
}

/// The --priority flag resolved to a default (Normal when absent).
sched::Priority default_priority(const Options& options) {
  return options.priority ? sched::parse_priority(*options.priority)
                          : sched::Priority::Normal;
}

/// Client/router knobs from the command line (defaults from ClientOptions).
net::ClientOptions client_options_from(const Options& options) {
  net::ClientOptions client;
  if (options.retries) {
    client.max_retries = *options.retries;
  }
  if (options.connect_timeout_ms) {
    client.connect_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(*options.connect_timeout_ms));
  }
  if (options.request_timeout_ms) {
    client.request_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(*options.request_timeout_ms));
  }
  if (options.max_frame_bytes) {
    client.max_frame_bytes = *options.max_frame_bytes;
  }
  return client;
}

/// `rlim serve --listen HOST:PORT`: the socket front-end. Binds a
/// net::Server (epoll loop + owned flow::Service) and parks this thread in
/// sigwait until SIGINT/SIGTERM asks for shutdown — jobs arrive as
/// flow::wire frames from `rlim submit`, not from stdin, and configs travel
/// inside the specs.
int cmd_serve_listen(const Options& options, std::ostream& err) {
  require(options.positional.empty(),
          "serve reads jobs from the socket, not the command line");
  require(!options.disasm && !options.verify,
          "serve: --disasm/--verify are compile-only");
  require(!options.format,
          "serve --listen speaks flow::wire frames; --format belongs to "
          "submit");
  require(options.config_spec.empty() && !options.strategy && !options.cap &&
              !options.effort,
          "serve --listen: configs travel inside the submitted job specs "
          "(pass --config/--strategy to `rlim submit`)");

  // Block the shutdown signals before the server spawns its threads so they
  // inherit the mask and sigwait() below is their only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  net::ServerOptions server_options;
  server_options.jobs = options.jobs;
  server_options.cache_dir = resolve_cache_dir(options);
  if (options.max_frame_bytes) {
    server_options.max_frame_bytes = *options.max_frame_bytes;
  }
  net::Server server(net::parse_endpoint(options.listen),
                     std::move(server_options));
  err << "rlim: serve: listening on " << server.endpoint().to_string()
      << " (" << server.stats_reply().workers << " workers)\n";
  err.flush();

  int received = 0;
  sigwait(&mask, &received);
  server.stop();

  const auto stats = server.service_stats();
  const auto counters = server.counters();
  err << "rlim: serve: " << stats.submitted << " jobs over "
      << counters.accepted << " connections, " << stats.executed
      << " executed, " << stats.coalesced << " coalesced, "
      << counters.frames_out << " frames out, " << counters.decode_errors
      << " decode errors, " << counters.dropped_connections
      << " connections dropped\n";
  print_store_summary(server.cache(), err);
  return 0;
}

/// `rlim submit --connect EP[,EP...]`: the client side of the socket
/// transport. Reads the same `NETLIST [CONFIG-SPEC]` lines as
/// `serve --stdin-jobs`, ships them as by-reference flow::wire JobSpecs
/// through a net::ShardRouter (consistent hashing + failover), and prints
/// the same CSV rows in input order — a cluster run is byte-identical to a
/// local one.
int cmd_submit(const Options& options, std::istream& in, std::ostream& out,
               std::ostream& err) {
  require(!options.connect.empty(),
          "submit needs --connect HOST:PORT[,HOST:PORT...]");
  require(options.positional.empty(),
          "submit reads jobs from stdin, not the command line");
  require(!options.disasm && !options.verify,
          "submit: --disasm/--verify are compile-only");
  require(!options.format || *options.format == flow::ReportFormat::Csv,
          "submit streams CSV rows; --format " +
              flow::to_string(format_of(options)) + " cannot stream");
  const auto default_config = config_from(options);

  /// One input line: an index into `specs`, or the parse failure pinned to
  /// the line's stream position.
  struct Line {
    std::string label;
    std::optional<std::size_t> spec;
    std::string error;
  };
  std::vector<Line> lines;
  std::vector<flow::wire::JobSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const auto split = split_job_line(line);
    if (!split) {
      continue;
    }
    Line item;
    item.label = split->label;
    try {
      const auto config = split->config
                              ? core::PipelineConfig::parse(*split->config)
                              : default_config;
      auto spec = flow::wire::JobSpec::reference(item.label, config, item.label);
      spec.priority = default_priority(options);
      spec.deadline_ms = options.deadline_ms;
      if (split->sched) {
        const auto [priority, deadline] = parse_sched_token(*split->sched);
        spec.priority = priority;
        if (deadline) {
          spec.deadline_ms = deadline;
        }
      }
      item.spec = specs.size();
      specs.push_back(std::move(spec));
    } catch (const std::exception& error) {
      item.error = error.what();
    }
    lines.push_back(std::move(item));
  }

  net::ShardRouter router(net::parse_endpoints(options.connect),
                          client_options_from(options));
  const auto results = router.run(specs);

  flow::write_csv_row(summary_columns(), out);
  std::size_t failures = 0;
  for (const auto& item : lines) {
    flow::JobResult parse_failed;
    const flow::JobResult* result = &parse_failed;
    if (item.spec) {
      result = &results[*item.spec];
    } else {
      parse_failed.error = item.error;
    }
    if (!result->ok()) {
      ++failures;
    }
    flow::write_csv_row(
        result_cells(item.label, *result, summary_columns().size()), out);
  }
  out.flush();

  err << "rlim: submit: " << specs.size() << " jobs across "
      << router.shard_count() << " shards, "
      << router.telemetry().failovers << " failovers, "
      << router.telemetry().rerouted << " jobs rerouted, " << failures
      << " failed\n";
  for (std::size_t shard = 0; shard < router.shard_count(); ++shard) {
    const auto& telemetry = router.telemetry(shard);
    err << "rlim: shard " << router.endpoint(shard).to_string() << ": "
        << (router.alive(shard) ? "alive" : "dead") << ", "
        << telemetry.connects << " connects, " << telemetry.retries
        << " retries, " << telemetry.frames_out << " out, "
        << telemetry.frames_in << " in\n";
  }
  return failures == 0 ? 0 : 1;
}

/// `rlim stats --connect EP[,EP...]`: pings every shard and renders one
/// column per endpoint. An unreachable shard keeps its column (dashes) and
/// flips the exit code, so a fleet check reads as one table either way.
int cmd_stats(const Options& options, std::ostream& out) {
  require(!options.connect.empty(),
          "stats needs --connect HOST:PORT[,HOST:PORT...]");
  require(options.positional.empty(), "stats takes no positional arguments");
  const auto endpoints = net::parse_endpoints(options.connect);

  flow::Report doc;
  doc.title = "shard stats";
  doc.columns = {"metric"};
  std::vector<std::optional<flow::wire::StatsReply>> replies;
  bool any_unreachable = false;
  for (const auto& endpoint : endpoints) {
    doc.columns.push_back(endpoint.to_string());
    net::Client client(endpoint, client_options_from(options));
    try {
      replies.push_back(client.ping());
    } catch (const std::exception& error) {
      replies.emplace_back();
      doc.add_note(endpoint.to_string() + ": " + error.what());
      any_unreachable = true;
    }
  }

  using Field = std::uint64_t (*)(const flow::wire::StatsReply&);
  const std::pair<const char*, Field> metrics[] = {
      {"workers", [](const flow::wire::StatsReply& r) {
         return std::uint64_t{r.workers}; }},
      {"submitted", [](const flow::wire::StatsReply& r) { return r.submitted; }},
      {"completed", [](const flow::wire::StatsReply& r) { return r.completed; }},
      {"executed", [](const flow::wire::StatsReply& r) { return r.executed; }},
      {"coalesced", [](const flow::wire::StatsReply& r) { return r.coalesced; }},
      {"cancelled", [](const flow::wire::StatsReply& r) { return r.cancelled; }},
      {"rewrite hits", [](const flow::wire::StatsReply& r) {
         return r.rewrite_hits; }},
      {"rewrite misses", [](const flow::wire::StatsReply& r) {
         return r.rewrite_misses; }},
      {"program hits", [](const flow::wire::StatsReply& r) {
         return r.program_hits; }},
      {"program misses", [](const flow::wire::StatsReply& r) {
         return r.program_misses; }},
  };
  for (const auto& [name, field] : metrics) {
    std::vector<std::string> row{name};
    for (const auto& reply : replies) {
      row.push_back(reply ? std::to_string(field(*reply)) : "-");
    }
    doc.add_row(std::move(row));
  }
  // The store block renders only when some shard has a disk tier — a
  // storeless fleet's table stays short.
  const std::pair<const char*, Field> store_metrics[] = {
      {"store rewrite loads", [](const flow::wire::StatsReply& r) {
         return r.store_rewrite_loads; }},
      {"store program loads", [](const flow::wire::StatsReply& r) {
         return r.store_program_loads; }},
      {"store load misses", [](const flow::wire::StatsReply& r) {
         return r.store_load_misses; }},
      {"store stores", [](const flow::wire::StatsReply& r) {
         return r.store_stores; }},
      {"store failures", [](const flow::wire::StatsReply& r) {
         return r.store_failures; }},
  };
  bool any_store = false;
  for (const auto& reply : replies) {
    any_store |= reply && reply->has_store;
  }
  if (any_store) {
    for (const auto& [name, field] : store_metrics) {
      std::vector<std::string> row{name};
      for (const auto& reply : replies) {
        row.push_back(reply && reply->has_store
                          ? std::to_string(field(*reply))
                          : "-");
      }
      doc.add_row(std::move(row));
    }
  }
  // Scheduler gauges follow the same rule: a freshly started fleet whose
  // shards have never queued, stolen, or parked renders the exact table of
  // previous releases (all-zero gauges stay omitted).
  const std::pair<const char*, Field> sched_metrics[] = {
      {"sched queue depth", [](const flow::wire::StatsReply& r) {
         return r.sched_queue_depth; }},
      {"sched stolen", [](const flow::wire::StatsReply& r) {
         return r.sched_stolen; }},
      {"sched parks", [](const flow::wire::StatsReply& r) {
         return r.sched_parks; }},
      {"sched overflows", [](const flow::wire::StatsReply& r) {
         return r.sched_overflows; }},
      {"sched forked", [](const flow::wire::StatsReply& r) {
         return r.sched_forked; }},
      {"sched jobs low", [](const flow::wire::StatsReply& r) {
         return r.sched_low; }},
      {"sched jobs normal", [](const flow::wire::StatsReply& r) {
         return r.sched_normal; }},
      {"sched jobs high", [](const flow::wire::StatsReply& r) {
         return r.sched_high; }},
  };
  bool any_sched = false;
  for (const auto& reply : replies) {
    if (!reply) {
      continue;
    }
    for (const auto& [name, field] : sched_metrics) {
      any_sched |= field(*reply) != 0;
    }
  }
  if (any_sched) {
    for (const auto& [name, field] : sched_metrics) {
      std::vector<std::string> row{name};
      for (const auto& reply : replies) {
        row.push_back(reply ? std::to_string(field(*reply)) : "-");
      }
      doc.add_row(std::move(row));
    }
  }
  flow::make_sink(format_of(options))->write(doc, out);
  return any_unreachable ? 1 : 0;
}

/// `rlim serve --stdin-jobs`: the async execution path end-to-end. Lines
/// (`NETLIST [CONFIG-SPEC]`) are submitted to a flow::Service as they
/// arrive — execution starts immediately, duplicates are coalesced — and
/// results stream back as CSV rows in submission order, the only order that
/// keeps the stream byte-stable for any worker count. A line that cannot
/// even be submitted (bad netlist spec, bad config) becomes an `error:` row
/// in the same position instead of killing the stream.
int cmd_serve(const Options& options, std::istream& in, std::ostream& out,
              std::ostream& err) {
  require(options.stdin_jobs != !options.listen.empty(),
          "serve needs exactly one transport: --stdin-jobs (newline-delimited "
          "specs on stdin) or --listen HOST:PORT (flow::wire frames over TCP "
          "from `rlim submit`)");
  if (!options.listen.empty()) {
    return cmd_serve_listen(options, err);
  }
  require(options.positional.empty(),
          "serve reads jobs from stdin, not the command line");
  require(!options.disasm && !options.verify,
          "serve: --disasm/--verify are compile-only");
  require(!options.format || *options.format == flow::ReportFormat::Csv,
          "serve streams CSV rows; --format " +
              flow::to_string(format_of(options)) + " cannot stream");
  const auto default_config = config_from(options);

  flow::Service service(
      {.jobs = options.jobs, .cache_dir = resolve_cache_dir(options)});
  flow::write_csv_row(summary_columns(), out);

  /// One input line: a submitted ticket, or the submission failure pinned
  /// to the line's stream position.
  struct Pending {
    std::string label;
    std::optional<flow::Ticket> ticket;
    std::string submit_error;
  };
  std::deque<Pending> pending;
  std::size_t accepted = 0;
  std::size_t failures = 0;

  const auto emit = [&](const Pending& item, const flow::JobResult& result) {
    if (!result.ok()) {
      ++failures;
    }
    flow::write_csv_row(
        result_cells(item.label, result, summary_columns().size()), out);
    out.flush();
  };
  // Streams every result that is ready at the front of the queue; with
  // `block` set, drains the whole queue in order.
  const auto flush_ready = [&](bool block) {
    while (!pending.empty()) {
      const auto& front = pending.front();
      if (!front.ticket) {
        flow::JobResult failed;
        failed.error = front.submit_error;
        emit(front, failed);
      } else if (block) {
        emit(front, service.wait(*front.ticket));
      } else if (auto result = service.try_get(*front.ticket)) {
        emit(front, *result);
      } else {
        return;
      }
      pending.pop_front();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    const auto split = split_job_line(line);
    if (!split) {
      continue;
    }
    Pending item;
    item.label = split->label;
    try {
      flow::Job job;
      job.source = flow::Source::netlist(item.label);
      job.label = item.label;
      job.config = split->config ? core::PipelineConfig::parse(*split->config)
                                 : default_config;
      job.priority = default_priority(options);
      if (options.deadline_ms) {
        job.deadline = std::chrono::milliseconds(
            static_cast<std::int64_t>(*options.deadline_ms));
      }
      if (split->sched) {
        const auto [priority, deadline] = parse_sched_token(*split->sched);
        job.priority = priority;
        if (deadline) {
          job.deadline = std::chrono::milliseconds(
              static_cast<std::int64_t>(*deadline));
        }
      }
      item.ticket = service.submit(std::move(job));
      ++accepted;
    } catch (const std::exception& error) {
      item.submit_error = error.what();
    }
    pending.push_back(std::move(item));
    flush_ready(/*block=*/false);
  }
  flush_ready(/*block=*/true);

  const auto stats = service.stats();
  err << "rlim: serve: " << accepted << " jobs on " << service.workers()
      << " workers, " << stats.executed << " executed, " << stats.coalesced
      << " coalesced, " << failures << " failed\n";
  print_store_summary(service.cache(), err);
  return failures == 0 ? 0 : 1;
}

/// `rlim loadgen`: closed-loop load generator over the serve path. Replays a
/// seeded stream of mini-suite compiles — mixed graph sizes, randomized
/// priorities, occasional soft deadlines, a configurable duplicate ratio —
/// through `--streams` concurrent closed-loop clients, then reports
/// throughput and nearest-rank latency percentiles. Default target: an
/// in-process flow::Service on `--jobs` workers; with --connect, every
/// stream ships inline-graph JobSpecs to the shard fleet through its own
/// router — the same bytes `rlim submit` would send. The job stream is a
/// pure function of --seed; the measured latencies of course are not.
int cmd_loadgen(const Options& options, std::ostream& out, std::ostream& err) {
  require(options.positional.empty(), "loadgen takes no positional arguments");
  require(!options.disasm && !options.verify,
          "loadgen: --disasm/--verify are compile-only");
  const auto count = options.count.value_or(100);
  require(count > 0, "--count must be > 0");
  const auto streams = std::max(1u, options.streams.value_or(2));
  const auto duplicate_pct = options.duplicate_pct.value_or(25);
  require(duplicate_pct <= 100, "--duplicate-pct is a percentage (0..100)");
  const auto config = config_from(options);

  // The generators are cheap; build each graph once so the per-job cost the
  // rig measures is the compile, not graph construction.
  const auto& benchmarks = bench::mini_suite();
  std::vector<mig::Mig> graphs;
  graphs.reserve(benchmarks.size());
  for (const auto& spec : benchmarks) {
    graphs.push_back(spec.build());
  }

  /// One generated request of the replayed stream.
  struct LoadJob {
    std::size_t bench = 0;
    sched::Priority priority = sched::Priority::Normal;
    std::optional<std::uint64_t> deadline_ms;
  };
  util::Xoshiro256 rng(options.seed.value_or(0x10adull));
  std::vector<LoadJob> stream;
  stream.reserve(count);
  std::uint64_t duplicates = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    LoadJob job;
    if (!stream.empty() && rng.below(100) < duplicate_pct) {
      // Re-issue an earlier request verbatim: in flight it coalesces, later
      // it exercises the result caches — both paths the rig should cover.
      job = stream[rng.below(stream.size())];
      ++duplicates;
    } else {
      job.bench = rng.below(graphs.size());
      job.priority = static_cast<sched::Priority>(
          rng.below(sched::kPriorityBands));
      if (rng.below(4) == 0) {
        job.deadline_ms = 20 + rng.below(200);
      }
    }
    // Flags pin the whole stream to one priority/deadline (for measuring a
    // uniform load) instead of the randomized mix.
    if (options.priority) {
      job.priority = default_priority(options);
    }
    if (options.deadline_ms) {
      job.deadline_ms = *options.deadline_ms;
    }
    stream.push_back(job);
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> latency_ms(count, 0.0);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  // Closed loop: each stream issues its next request only after the
  // previous one completed, so per-request latency is directly observable.
  const auto drive = [&](const std::function<bool(const LoadJob&)>& execute) {
    while (true) {
      const auto index = next.fetch_add(1);
      if (index >= count) {
        return;
      }
      const auto start = Clock::now();
      bool ok = false;
      try {
        ok = execute(stream[index]);
      } catch (const std::exception&) {
        ok = false;  // transport exhausted its retries; count and move on
      }
      latency_ms[index] =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      if (!ok) {
        failed.fetch_add(1);
      }
    }
  };
  const auto run_streams = [&](const std::function<void()>& stream_body) {
    std::vector<std::thread> threads;
    threads.reserve(streams);
    for (unsigned i = 0; i < streams; ++i) {
      threads.emplace_back(stream_body);
    }
    for (auto& thread : threads) {
      thread.join();
    }
  };

  std::string target;
  double wall_ms = 0.0;
  if (options.connect.empty()) {
    flow::Service service(
        {.jobs = options.jobs, .cache_dir = resolve_cache_dir(options)});
    std::vector<flow::SourcePtr> sources;
    sources.reserve(benchmarks.size());
    for (const auto& spec : benchmarks) {
      sources.push_back(flow::Source::benchmark(spec));
    }
    const auto begin = Clock::now();
    run_streams([&] {
      drive([&](const LoadJob& item) {
        flow::Job job;
        job.source = sources[item.bench];
        job.config = config;
        job.label = benchmarks[item.bench].name;
        job.priority = item.priority;
        if (item.deadline_ms) {
          job.deadline = std::chrono::milliseconds(
              static_cast<std::int64_t>(*item.deadline_ms));
        }
        return service.wait(service.submit(std::move(job))).ok();
      });
    });
    wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - begin)
                  .count();
    const auto stats = service.stats();
    const auto sched_stats = service.scheduler_stats();
    target = "service (" + std::to_string(service.workers()) + " workers)";
    err << "rlim: loadgen: " << stats.executed << " executed, "
        << stats.coalesced << " coalesced, " << sched_stats.stolen
        << " steals, " << sched_stats.parks << " parks, "
        << sched_stats.forked << " forked\n";
  } else {
    const auto endpoints = net::parse_endpoints(options.connect);
    const auto begin = Clock::now();
    run_streams([&] {
      // One router (own connections) per stream: streams model independent
      // clients, so they must not serialize on a shared socket.
      net::ShardRouter router(endpoints, client_options_from(options));
      drive([&](const LoadJob& item) {
        auto spec = flow::wire::JobSpec::inline_graph(
            graphs[item.bench], benchmarks[item.bench].name, config,
            benchmarks[item.bench].name);
        spec.priority = item.priority;
        spec.deadline_ms = item.deadline_ms;
        return router.run({std::move(spec)}).front().ok();
      });
    });
    wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - begin)
                  .count();
    target = options.connect;
  }

  std::sort(latency_ms.begin(), latency_ms.end());
  const auto permille = [&](unsigned p) {
    return latency_ms[(p * (latency_ms.size() - 1) + 500) / 1000];
  };
  flow::Report doc;
  doc.title = "loadgen — " + std::to_string(count) + " jobs, " +
              std::to_string(streams) + " streams, " +
              config_label(options, config) + " -> " + target;
  doc.columns = {"metric", "value"};
  doc.add_row({"jobs", std::to_string(count)});
  doc.add_row({"streams", std::to_string(streams)});
  doc.add_row({"duplicates", std::to_string(duplicates)});
  doc.add_row({"failed", std::to_string(failed.load())});
  doc.add_row({"wall_ms", util::Table::fixed(wall_ms)});
  doc.add_row({"jobs_per_sec",
               util::Table::fixed(wall_ms > 0.0
                                      ? static_cast<double>(count) * 1000.0 /
                                            wall_ms
                                      : 0.0)});
  doc.add_row({"p50_ms", util::Table::fixed(permille(500))});
  doc.add_row({"p99_ms", util::Table::fixed(permille(990))});
  doc.add_row({"p999_ms", util::Table::fixed(permille(999))});
  flow::make_sink(format_of(options))->write(doc, out);
  return failed.load() == 0 ? 0 : 1;
}

int cmd_policies(const Options& options, std::ostream& out) {
  flow::Report doc;
  doc.title = "registered policies (compose with --config):";
  doc.columns = {"kind", "key", "parameters", "summary"};
  for (const auto kind : registry::kinds()) {
    for (const auto& info : registry::list(kind)) {
      std::string params;
      for (const auto& param : info.params) {
        if (!params.empty()) {
          params += ", ";
        }
        params += param.name + "=" + param.default_value;
      }
      doc.add_row({std::string(kind), info.key, params.empty() ? "-" : params,
                   info.summary});
    }
  }
  doc.add_note(
      "spec grammar: rewrite=KEY[:param=value...],select=KEY,alloc=KEY"
      "[,fault=KEY][,cap=N]");
  doc.add_note(
      "pass sequences: rewrite=seq:passes=PASS,PASS,...[:until=PASS] runs "
      "`pass`-kind entries in order");
  std::string aliases;
  for (const auto& flow : pass::kPaperFlows) {
    aliases += std::string(aliases.empty() ? "" : "; ") +
               std::string(flow.key) + " = " + std::string(flow.passes);
  }
  doc.add_note("seq aliases: " + aliases);
  std::string presets;
  for (const auto& [alias, strategy] : core::strategy_aliases()) {
    if (!presets.empty()) {
      presets += ", ";
    }
    presets += std::string(alias) + " = " +
               core::make_config(strategy).canonical_key();
  }
  doc.add_note("presets: " + presets);
  flow::make_sink(format_of(options))->write(doc, out);
  return 0;
}

/// Maintenance over the persistent store (`rlim cache stats|gc|clear|verify`).
/// `verify` exits 2 when it had to evict anything, so scripted health checks
/// can tell a repaired store from a clean one.
int cmd_cache(const Options& options, std::ostream& out) {
  require(options.positional.size() == 1,
          "cache needs exactly one subcommand (stats, gc, clear, verify)");
  const auto& sub = options.positional[0];
  const auto dir = resolve_cache_dir(options);
  require(!dir.empty(),
          "cache: no store directory (pass --cache-dir or set RLIM_CACHE_DIR)");
  require(std::filesystem::exists(dir),
          "cache: store directory '" + dir + "' does not exist");
  store::Gc gc{std::filesystem::path(dir)};

  flow::Report doc;
  doc.columns = {"metric", "value"};
  const auto kv = [&doc](std::string name, std::uint64_t value) {
    doc.add_row({std::move(name), std::to_string(value)});
  };
  int code = 0;
  if (sub == "stats") {
    const auto summary = gc.summarize();
    doc.title = "cache store " + dir + " (format " +
                std::to_string(store::kFormatVersion) + ")";
    kv("entries", summary.entries);
    kv("bytes", summary.bytes);
    kv("rewrite entries", summary.rewrite_entries);
    kv("program entries", summary.program_entries);
    kv("stale-version entries", summary.stale_version);
    kv("unreadable entries", summary.unreadable);
  } else if (sub == "gc") {
    require(options.max_bytes.has_value() || options.max_age_days.has_value(),
            "cache gc needs --max-bytes and/or --max-age-days");
    store::GcOptions gc_options;
    gc_options.max_bytes = options.max_bytes;
    if (options.max_age_days) {
      // ~274 years; anything larger overflows the nanosecond file-time
      // arithmetic of the age check and is certainly a typo.
      require(*options.max_age_days <= 100000,
              "--max-age-days must be at most 100000");
      gc_options.max_age = std::chrono::seconds(*options.max_age_days * 86400);
    }
    const auto result = gc.collect(gc_options);
    doc.title = "cache gc " + dir;
    kv("scanned", result.scanned);
    kv("evicted", result.evicted);
    kv("bytes before", result.bytes_before);
    kv("bytes after", result.bytes_after);
  } else if (sub == "verify") {
    const auto result = gc.verify();
    doc.title = "cache verify " + dir;
    kv("scanned", result.scanned);
    kv("ok", result.ok);
    kv("ok bytes", result.ok_bytes);
    // Distinct failure classes: map-validation (framing) failures and
    // whole-frame hash mismatches are not the same diagnosis — the former is
    // a foreign/truncated file, the latter bit rot under intact framing —
    // and neither is a payload that merely stopped decoding in this build.
    kv("evicted map-validation", result.evicted_map);
    kv("evicted hash-mismatch", result.evicted_hash);
    kv("evicted undecodable", result.evicted_decode);
    kv("evicted version-mismatch", result.evicted_version);
    kv("evicted bytes", result.evicted_bytes);
    if (result.evicted_corrupt() > 0 || result.evicted_version > 0) {
      code = 2;
    }
  } else if (sub == "clear") {
    doc.title = "cache clear " + dir;
    kv("removed", gc.clear());
  } else {
    throw Error("unknown cache subcommand '" + sub + "'");
  }
  flow::make_sink(format_of(options))->write(doc, out);
  return code;
}

#ifndef RLIM_VERSION
#define RLIM_VERSION "unknown"
#endif

/// Project + on-disk format version, so a mismatching store ("why does my
/// CI sweep recompile everything?") is diagnosable from the field.
int cmd_version(std::ostream& out) {
  out << "rlim " << RLIM_VERSION << " (store format "
      << store::kFormatVersion << ")\n";
  return 0;
}

}  // namespace

int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err) {
  try {
    const auto options = parse(args);
    if (options.command == "info") {
      return cmd_info(options, out);
    }
    if (options.command == "rewrite") {
      return cmd_rewrite(options, out, err);
    }
    if (options.command == "compile") {
      return cmd_compile(options, out, err);
    }
    if (options.command == "suite") {
      return cmd_suite(options, out, err);
    }
    if (options.command == "serve") {
      return cmd_serve(options, in, out, err);
    }
    if (options.command == "submit") {
      return cmd_submit(options, in, out, err);
    }
    if (options.command == "stats") {
      return cmd_stats(options, out);
    }
    if (options.command == "loadgen") {
      return cmd_loadgen(options, out, err);
    }
    if (options.command == "policies") {
      return cmd_policies(options, out);
    }
    if (options.command == "cache") {
      return cmd_cache(options, out);
    }
    if (options.command == "version") {
      return cmd_version(out);
    }
    throw Error("unknown command '" + options.command + "'");
  } catch (const std::exception& error) {
    err << "rlim_cli: " << error.what() << '\n'
        << "usage: rlim_cli info|rewrite|compile|suite|serve|submit|stats|"
           "loadgen|policies|cache|version ... (see tools/cli.hpp)\n";
    return 1;
  }
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  return run(args, std::cin, out, err);
}

}  // namespace rlim::cli
