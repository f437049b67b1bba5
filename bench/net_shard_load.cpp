// Shard-load generator: replays a randomized job stream through 1→N
// loopback net::Server shards behind a ShardRouter. Reports cluster
// throughput (items_per_second == jobs/sec, pipelined batches) and the
// p50/p99 of sequential single-job round-trips (microseconds) — the
// transport-plus-cache-path latency once the shards are warm. Compiled
// into the perf_micro binary alongside the pipeline-stage benchmarks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "flow/wire.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace {

using namespace rlim;

// A deterministic pseudo-random stream over a few small benchmarks × a cap
// sweep: enough cell diversity that consistent hashing has keys to spread,
// repeated cells so the shard caches see realistic hit traffic.
std::vector<flow::wire::JobSpec> random_stream(std::size_t count) {
  static const char* const kRefs[] = {"bench:ctrl", "bench:int2float",
                                      "bench:dec", "bench:cavlc"};
  util::Xoshiro256 rng(0x5eedbeef);
  std::vector<flow::wire::JobSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto* ref = kRefs[rng.below(std::size(kRefs))];
    const auto cap = 10 + 10 * static_cast<unsigned>(rng.below(8));
    specs.push_back(flow::wire::JobSpec::reference(
        ref, core::make_config(core::Strategy::FullEndurance, cap)));
  }
  return specs;
}

void BM_ShardLoad(benchmark::State& state) {
  const auto shard_count = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<net::Server>> shards;
  std::vector<net::Endpoint> endpoints;
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards.push_back(std::make_unique<net::Server>(
        net::Endpoint{"127.0.0.1", 0}, net::ServerOptions{.jobs = 1}));
    endpoints.push_back(shards.back()->endpoint());
  }
  net::ShardRouter router(endpoints, {});
  const auto stream = random_stream(64);

  // Warm pass outside the timed loop: first contact compiles every unique
  // cell, the measured iterations exercise the steady transport+cache path.
  benchmark::DoNotOptimize(router.run(stream));

  for (auto _ : state) {
    benchmark::DoNotOptimize(router.run(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));

  // Sequential round-trip latency percentiles over the same stream.
  std::vector<double> micros;
  micros.reserve(stream.size());
  for (const auto& spec : stream) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(router.run({spec}));
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::sort(micros.begin(), micros.end());
  state.counters["p50_us"] = micros[micros.size() / 2];
  state.counters["p99_us"] = micros[(micros.size() * 99) / 100];
}
BENCHMARK(BM_ShardLoad)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();  // jobs/sec must count wall clock, not this thread's CPU

}  // namespace
