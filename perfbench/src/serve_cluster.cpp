// serve_cluster: the `serve --listen` + client path at steady state. Two
// in-process net::Server shards listen on loopback; each client stream owns
// a net::ShardRouter and ships inline-graph JobSpecs (the `loadgen
// --connect` recipe: mini-suite graphs x the five presets, a seeded
// duplicate share, random priorities and soft deadlines). Set-up sends every
// distinct (graph, preset) once, so each timed job is a warm program-cache
// hit or a coalesced duplicate: the time goes to wire and store
// (de)serialization, framing and epoll, scheduler hand-off and cache keying,
// never to rewriting or compiling.

#include <iostream>
#include <map>
#include <memory>

#include "bench.hpp"
#include "benchmarks/suite.hpp"
#include "core/config.hpp"
#include "flow/cache.hpp"
#include "flow/wire.hpp"
#include "mig/simulate.hpp"
#include "net/framing.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "plim/controller.hpp"
#include "store/serialize.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using rlim::core::PipelineConfig;
using rlim::flow::wire::JobSpec;

constexpr unsigned kStreams = 2;
constexpr unsigned kShards = 2;
constexpr unsigned kWorkersPerShard = 1;
constexpr double kSliceSeconds = 1.0;
constexpr unsigned kDuplicatePct = 25;
constexpr std::size_t kTableSize = 1u << 18;
constexpr std::uint64_t kTraceJobs = 20000;
constexpr std::uint64_t kReplayJobs = 1000;
constexpr unsigned kPings = 500;

/// One generated request (indices into the graph and preset tables).
struct Request {
  std::uint8_t graph = 0;
  std::uint8_t preset = 0;
  rlim::sched::Priority priority = rlim::sched::Priority::Normal;
  std::uint16_t deadline_ms = 0;  ///< 0 = none
};

/// The seeded request stream: a quarter of the requests re-issue an earlier
/// one verbatim (in flight it coalesces, later it hits the cache).
std::vector<Request> make_requests(std::uint64_t seed, std::size_t graphs) {
  rlim::util::Xoshiro256 rng(rlim::util::mix_seed(seed, 0x5e77e));
  std::vector<Request> requests;
  requests.reserve(kTableSize);
  for (std::size_t i = 0; i < kTableSize; ++i) {
    if (!requests.empty() && rng.below(100) < kDuplicatePct) {
      requests.push_back(requests[rng.below(requests.size())]);
      continue;
    }
    Request request;
    request.graph = static_cast<std::uint8_t>(rng.below(graphs));
    request.preset = static_cast<std::uint8_t>(rng.below(kPresetCount));
    request.priority =
        static_cast<rlim::sched::Priority>(rng.below(rlim::sched::kPriorityBands));
    if (rng.below(4) == 0) {
      request.deadline_ms = static_cast<std::uint16_t>(20 + rng.below(200));
    }
    requests.push_back(request);
  }
  return requests;
}

struct Setup {
  std::vector<rlim::mig::Mig> graphs;  ///< mini_suite() order
  std::vector<std::string> names;
  std::vector<PipelineConfig> configs;  ///< kPresets order
  std::vector<std::unique_ptr<rlim::net::Server>> servers;
  std::vector<rlim::net::Endpoint> endpoints;
  /// One router per client stream (declared after the servers, so routers
  /// close their connections before the shards stop).
  std::vector<std::unique_ptr<rlim::net::ShardRouter>> routers;
};

JobSpec make_spec(const Setup& setup, const Request& request) {
  auto spec = JobSpec::inline_graph(setup.graphs[request.graph],
                                    setup.names[request.graph],
                                    setup.configs[request.preset],
                                    setup.names[request.graph]);
  spec.priority = request.priority;
  if (request.deadline_ms != 0) {
    spec.deadline_ms = request.deadline_ms;
  }
  return spec;
}

std::unique_ptr<Setup> make_setup(Tracer* tracer) {
  auto setup = std::make_unique<Setup>();
  for (const auto& spec : rlim::bench::mini_suite()) {
    Scope scope(tracer, "benchmarks.build", 0);
    setup->graphs.push_back(spec.build());
    setup->names.push_back(spec.name);
  }
  for (const auto* preset : kPresets) {
    setup->configs.push_back(PipelineConfig::parse(preset));
  }
  for (unsigned shard = 0; shard < kShards; ++shard) {
    rlim::net::ServerOptions options;
    options.jobs = kWorkersPerShard;
    setup->servers.push_back(std::make_unique<rlim::net::Server>(
        rlim::net::Endpoint{"127.0.0.1", 0}, options));
    setup->endpoints.push_back(setup->servers.back()->endpoint());
  }
  // Warm-up: every distinct (graph, preset) once, so every timed job is a
  // program-cache hit on the shard its key routes to.
  std::vector<JobSpec> warm;
  for (std::size_t graph = 0; graph < setup->graphs.size(); ++graph) {
    for (std::size_t preset = 0; preset < kPresetCount; ++preset) {
      warm.push_back(make_spec(*setup, Request{static_cast<std::uint8_t>(graph),
                                               static_cast<std::uint8_t>(preset),
                                               {}, 0}));
    }
  }
  rlim::net::ShardRouter warmer(setup->endpoints);
  for (const auto& result : warmer.run(warm)) {
    if (!result.ok()) {
      throw std::runtime_error("serve_cluster warm-up failed: " + result.error);
    }
  }
  for (unsigned stream = 0; stream < kStreams; ++stream) {
    setup->routers.push_back(
        std::make_unique<rlim::net::ShardRouter>(setup->endpoints));
    for (unsigned shard = 0; shard < kShards; ++shard) {
      (void)setup->routers.back()->ping(shard);  // connect before timing
    }
  }
  return setup;
}

/// Server-side counters summed over the shards.
struct ShardTotals {
  std::uint64_t submitted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rewrite_misses = 0;
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;

  static ShardTotals of(const Setup& setup) {
    ShardTotals totals;
    for (const auto& server : setup.servers) {
      const auto stats = server->stats_reply();
      totals.submitted += stats.submitted;
      totals.coalesced += stats.coalesced;
      totals.rewrite_misses += stats.rewrite_misses;
      totals.program_hits += stats.program_hits;
      totals.program_misses += stats.program_misses;
      totals.steals += stats.sched_stolen;
      totals.parks += stats.sched_parks;
    }
    return totals;
  }

  ShardTotals since(const ShardTotals& before) const {
    ShardTotals delta = *this;
    delta.submitted -= before.submitted;
    delta.coalesced -= before.coalesced;
    delta.rewrite_misses -= before.rewrite_misses;
    delta.program_hits -= before.program_hits;
    delta.program_misses -= before.program_misses;
    delta.steals -= before.steals;
    delta.parks -= before.parks;
    return delta;
  }
};

/// How often each distinct result digest came back, per (graph, preset)
/// key: exact, and bounded by the key count instead of the job count.
using Observed = std::vector<std::map<std::uint64_t, std::uint64_t>>;

struct Pass {
  std::vector<Sample> samples;
  Observed observed;
  std::uint64_t errors = 0;
  std::vector<Mark> marks;  ///< every kSliceSeconds
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Pass run_pass(const Setup& setup, const std::vector<Request>& requests,
              const std::function<bool(std::uint64_t)>& keep_going,
              Tracer* tracer) {
  Pass pass;
  const auto keys = setup.graphs.size() * kPresetCount;
  std::vector<Observed> observed(kStreams, Observed(keys));
  Ticker ticker(kSliceSeconds);
  pass.samples = closed_loop(
      kStreams, keep_going,
      [&](unsigned stream, std::uint64_t index, std::int64_t& done) {
        const auto& request = requests[index % requests.size()];
        std::vector<rlim::flow::JobResult> results;
        {
          Scope scope(tracer, "net.router.job", index + 1, 0, stream + 1);
          results = setup.routers[stream]->run({make_spec(setup, request)});
        }
        done = now_ns();
        const auto& result = results.front();
        if (result.ok()) {
          ++observed[stream][request.graph * kPresetCount + request.preset]
                    [report_digest(result.report)];
        }
        return result.ok();
      });
  pass.marks = ticker.stop();
  pass.wall_s =
      static_cast<double>(pass.marks.back().t_ns - pass.marks.front().t_ns) *
      1e-9;
  pass.cpu_s = pass.marks.back().cpu_s - pass.marks.front().cpu_s;
  pass.observed.resize(keys);
  for (const auto& per_stream : observed) {
    for (std::size_t key = 0; key < keys; ++key) {
      for (const auto& [digest, count] : per_stream[key]) {
        pass.observed[key][digest] += count;
      }
    }
  }
  for (const auto& sample : pass.samples) {
    pass.errors += sample.ok ? 0 : 1;
  }
  return pass;
}

/// In-process compiles of every (graph, preset): the gate's reference.
struct Reference {
  std::vector<std::uint64_t> digests;  ///< graph * presets + preset
  std::uint64_t program_mismatches = 0;
  std::string hw_digest;
};

Reference make_reference(const Setup& setup, std::uint64_t seed) {
  Reference reference;
  Digest hw;
  for (std::size_t graph = 0; graph < setup.graphs.size(); ++graph) {
    for (std::size_t preset = 0; preset < kPresetCount; ++preset) {
      const auto& config = setup.configs[preset];
      const auto& original = setup.graphs[graph];
      // The naive preset compiles the graph exactly as constructed.
      const auto prepared = config.rewrite.key == "none"
                                ? original
                                : rlim::core::prepare(original, config);
      const auto report = rlim::core::compile_prepared(
          prepared, config, setup.names[graph], original.num_gates());
      if (!rlim::plim::program_matches_mig(report.program, prepared, 4, seed) ||
          !rlim::mig::equivalent_random(original, prepared, 4, seed)) {
        ++reference.program_mismatches;
        std::cerr << "perfbench: serve_cluster: " << setup.names[graph]
                  << " / " << kPresets[preset]
                  << ": compiled program differs from its graph\n";
      }
      reference.digests.push_back(report_digest(report));
      hw.add(setup.names[graph]).add(kPresets[preset]);
      add_hw_stats(hw, report);
    }
  }
  reference.hw_digest = hw.hex();
  return reference;
}

/// Counts error results and results that differ from the in-process
/// compile of their (graph, preset).
std::uint64_t gate(const Pass& pass, const Reference& reference,
                   WorkloadResult& out) {
  std::uint64_t mismatches = 0;
  for (std::size_t key = 0; key < pass.observed.size(); ++key) {
    for (const auto& [digest, count] : pass.observed[key]) {
      mismatches += digest == reference.digests[key] ? 0 : count;
    }
  }
  if (mismatches != 0) {
    std::cerr << "perfbench: serve_cluster: " << mismatches
              << " results differ from the in-process compile\n";
  }
  out.mismatches += mismatches;
  return pass.errors + mismatches;
}

/// Traced split of `count` jobs of the traced pass: the wire, store, flow
/// and core calls a served job makes, called directly on the same inputs.
void replay(const Setup& setup, const std::vector<Request>& requests,
            std::uint64_t count, Tracer& tracer, std::uint64_t& result_bytes,
            std::uint64_t& wire_bytes) {
  // A warm local cache answers the lookups the way a shard's cache does.
  rlim::flow::PipelineCache cache;
  for (std::size_t graph = 0; graph < setup.graphs.size(); ++graph) {
    const auto source = rlim::flow::Source::graph(setup.graphs[graph],
                                                  setup.names[graph]);
    for (const auto& config : setup.configs) {
      (void)cache.compiled(*source, config);
    }
  }
  for (std::uint64_t index = 0; index < count; ++index) {
    const auto job = index + 1;
    const auto spec = make_spec(setup, requests[index % requests.size()]);
    Scope root(&tracer, "replay", job);

    std::string frame;
    auto encode_id = tracer.open();
    auto start = now_ns();
    frame = rlim::flow::wire::encode(spec);
    tracer.close(encode_id, "flow.wire.encode_spec", job, root.id(), 0, start,
                 now_ns());
    rlim::util::ByteWriter mig_bytes;
    timed_span(&tracer, "store.encode_mig", job, encode_id,
               [&] { rlim::store::encode(mig_bytes, *spec.graph); });

    JobSpec decoded;
    auto decode_id = tracer.open();
    start = now_ns();
    decoded = rlim::flow::wire::decode_job_spec(frame);
    tracer.close(decode_id, "flow.wire.decode_spec", job, root.id(), 0, start,
                 now_ns());
    timed_span(&tracer, "store.decode_mig", job, decode_id, [&] {
      rlim::util::ByteReader reader(mig_bytes.bytes());
      (void)rlim::store::decode_mig(reader);
    });

    rlim::flow::Job executable;
    timed_span(&tracer, "flow.wire.to_job", job, root.id(),
               [&] { executable = decoded.to_job(); });

    rlim::flow::PipelineCache::CompiledEntry entry;
    const auto hit_id = tracer.open();
    start = now_ns();
    entry = cache.compiled(*executable.source, executable.config);
    tracer.close(hit_id, "flow.cache.warm_hit", job, root.id(), 0, start,
                 now_ns());
    timed_span(&tracer, "core.canonical_key", job, hit_id,
               [&] { (void)executable.config.canonical_key(); });

    // What a shard sends back: report and stats, not the prepared graph.
    rlim::flow::JobResult result;
    result.rewrite_stats = entry.rewrite_stats;
    result.report = *entry.report;
    result.report.benchmark = executable.display_label();
    std::string reply;
    timed_span(&tracer, "flow.wire.encode_result", job, root.id(),
               [&] { reply = rlim::flow::wire::encode(result); });
    timed_span(&tracer, "flow.wire.decode_result", job, root.id(),
               [&] { (void)rlim::flow::wire::decode_job_result(reply); });
    result_bytes += reply.size();
    // Both directions travel as net envelopes carrying the job's ticket.
    wire_bytes += rlim::net::envelope(job, frame).size() +
                  rlim::net::envelope(job, reply).size();
  }
}

}  // namespace

WorkloadResult run_serve_cluster(const Options& options, Tracer* trace) {
  WorkloadResult out;
  out.facts["streams"] = std::to_string(kStreams);
  out.facts["shards"] = std::to_string(kShards);
  out.facts["workers"] = std::to_string(kShards * kWorkersPerShard);

  SetupTiming setup_timing;
  auto setup = repeated_setup(setup_timing,
                              [&] { return make_setup(trace); });
  const auto requests = make_requests(options.seed, setup->graphs.size());

  if (trace == nullptr) {
    auto pass = run_pass(*setup, requests,
                         timed_window(options.seconds, kMinTimedJobs,
                                      kWindowCapSeconds),
                         nullptr);
    add_end_to_end(out, pass.samples, pass.marks, true);
    const auto reference = make_reference(*setup, options.seed);
    if (options.corrupt_result) {
      auto& first = pass.observed.front();
      if (!first.empty() && --first.begin()->second == 0) {
        first.erase(first.begin());
      }
      ++first[reference.digests.front() ^ 1];
    }
    out.attempted = pass.samples.size();
    out.failed = gate(pass, reference, out);
    out.failed += reference.program_mismatches;
    out.mismatches += reference.program_mismatches;
    out.hw_digest = reference.hw_digest;
    out.digest_entries = reference.digests.size();
    // The second block of set-ups (see SetupTiming).
    setup.reset();
    (void)repeated_setup(setup_timing, [&] { return make_setup(nullptr); });
    add_setup(out, setup_timing);
    return out;
  }

  // Traced run: the same fixed job list untraced, traced, and untraced
  // again, then the direct-call split of the first kReplayJobs jobs.
  const auto before =
      run_pass(*setup, requests, fixed_count(kTraceJobs), nullptr);
  const auto mid = ShardTotals::of(*setup);
  const auto traced = run_pass(*setup, requests, fixed_count(kTraceJobs), trace);
  const auto delta = ShardTotals::of(*setup).since(mid);
  const auto after =
      run_pass(*setup, requests, fixed_count(kTraceJobs), nullptr);

  std::uint64_t result_bytes = 0;
  std::uint64_t wire_bytes = 0;
  replay(*setup, requests, kReplayJobs, *trace, result_bytes, wire_bytes);
  for (unsigned i = 0; i < kPings; ++i) {
    Scope scope(trace, "net.ping", 0);
    (void)setup->routers.front()->ping(i % kShards);
  }
  probe_enqueue_to_start(*trace, kWorkersPerShard, kStreams, kProbeTasks);

  const auto reference = make_reference(*setup, options.seed);
  out.failed = reference.program_mismatches;
  for (const auto* pass : {&before, &traced, &after}) {
    out.attempted += pass->samples.size();
    out.failed += gate(*pass, reference, out);
  }
  out.mismatches += reference.program_mismatches;
  out.hw_digest = reference.hw_digest;
  out.digest_entries = reference.digests.size();

  double job_ms = 0.0;
  for (const auto& sample : traced.samples) {
    job_ms += sample.latency_ms;
  }
  job_ms /= static_cast<double>(traced.samples.size());
  const auto r = static_cast<double>(kReplayJobs);
  add_layer_times(out, *trace,
                  {{"benchmarks.build_ms", "benchmarks.build",
                    static_cast<double>(setup_timing.times.size()), false},
                   {"flow.wire.encode_spec_us", "flow.wire.encode_spec", r},
                   {"store.encode_mig_us", "store.encode_mig", r},
                   {"flow.wire.decode_spec_us", "flow.wire.decode_spec", r},
                   {"store.decode_mig_us", "store.decode_mig", r},
                   {"flow.wire.to_job_us", "flow.wire.to_job", r},
                   {"flow.cache.warm_hit_us", "flow.cache.warm_hit", r},
                   {"core.canonical_key_us", "core.canonical_key", r},
                   {"flow.wire.encode_result_us", "flow.wire.encode_result", r},
                   {"flow.wire.decode_result_us", "flow.wire.decode_result", r},
                   {"net.ping_rtt_us", "net.ping", static_cast<double>(kPings)},
                   {"sched.enqueue_to_start_us", "sched.enqueue_to_start",
                    static_cast<double>(kProbeTasks)}},
                  job_ms);

  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  for (const auto& router : setup->routers) {
    failovers += router->telemetry().failovers;
    for (std::size_t shard = 0; shard < router->shard_count(); ++shard) {
      retries += router->telemetry(shard).retries;
    }
  }
  const auto lookups = delta.program_hits + delta.program_misses;
  out.metrics.push_back(
      {"mig.rewrite_calls", static_cast<double>(delta.rewrite_misses), "count"});
  out.metrics.push_back({"plim.compile_calls",
                         static_cast<double>(delta.program_misses), "count"});
  out.metrics.push_back(
      {"flow.cache.program_hit_ratio",
       lookups > 0 ? static_cast<double>(delta.program_hits) /
                         static_cast<double>(lookups)
                   : 0.0,
       "ratio"});
  out.metrics.push_back(
      {"flow.service.coalesced_frac",
       static_cast<double>(delta.coalesced) /
           static_cast<double>(std::max<std::uint64_t>(delta.submitted, 1)),
       "frac"});
  out.metrics.push_back({"flow.wire.result_bytes",
                         static_cast<double>(result_bytes) / r, "B"});
  out.metrics.push_back(
      {"net.bytes_per_job", static_cast<double>(wire_bytes) / r, "B"});
  out.metrics.push_back({"net.retries", static_cast<double>(retries), "count"});
  out.metrics.push_back(
      {"net.failovers", static_cast<double>(failovers), "count"});
  out.metrics.push_back(
      {"sched.steals", static_cast<double>(delta.steals), "count"});
  out.metrics.push_back(
      {"sched.parks", static_cast<double>(delta.parks), "count"});
  out.metrics.push_back(
      {"trace.overhead_pct",
       overhead_pct(before.cpu_s, traced.cpu_s, after.cpu_s), "%"});
  out.metrics.push_back(
      {"trace.spans", static_cast<double>(trace->spans().size()), "count"});
  out.facts["trace_jobs"] = std::to_string(kTraceJobs);
  out.facts["replayed_jobs"] = std::to_string(kReplayJobs);
  complete_layer_metrics(out);
  return out;
}

}  // namespace perfbench
