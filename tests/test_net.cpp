#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

#include "benchmarks/arithmetic.hpp"
#include "core/registry.hpp"
#include "flow/service.hpp"
#include "flow/wire.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::net {
namespace {

using namespace std::chrono_literals;

core::PipelineConfig config_with_cap(std::uint64_t cap) {
  return core::make_config(core::Strategy::FullEndurance, cap);
}

flow::wire::JobSpec ctrl_spec(std::uint64_t cap) {
  return flow::wire::JobSpec::reference("bench:ctrl", config_with_cap(cap));
}

/// The ground truth a wire round trip must match bit for bit. Resolution
/// failures become error results, exactly as the serving side reports them.
flow::JobResult local_run(const flow::wire::JobSpec& spec) {
  try {
    return flow::run_job(spec.to_job());
  } catch (const std::exception& error) {
    flow::JobResult failed;
    failed.error = error.what();
    return failed;
  }
}

void expect_same_outcome(const flow::JobResult& wire,
                         const flow::JobResult& local) {
  ASSERT_EQ(wire.ok(), local.ok()) << wire.error;
  if (!local.ok()) {
    EXPECT_EQ(wire.error, local.error);
    return;
  }
  EXPECT_EQ(wire.report.benchmark, local.report.benchmark);
  EXPECT_EQ(wire.report.instructions, local.report.instructions);
  EXPECT_EQ(wire.report.rrams, local.report.rrams);
  EXPECT_EQ(wire.report.writes.min, local.report.writes.min);
  EXPECT_EQ(wire.report.writes.max, local.report.writes.max);
  EXPECT_EQ(wire.report.writes.stdev, local.report.writes.stdev);
  EXPECT_EQ(wire.report.program.disassemble(),
            local.report.program.disassemble());
}

/// Fast-failure client knobs for the injection tests: transport failures
/// must be detected in milliseconds, not the production 30 s.
ClientOptions fast_client() {
  ClientOptions options;
  options.connect_timeout = 1000ms;
  options.request_timeout = 300ms;
  options.max_retries = 2;
  options.backoff_base = 5ms;
  options.backoff_cap = 20ms;
  return options;
}

// ---- raw-socket helpers (the byte-level injection harness) -----------------

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    std::size_t sent = 0;
    const auto status = send_some(fd, bytes, sent);
    if (status == IoStatus::Closed) {
      return false;
    }
    if (status == IoStatus::Ok) {
      bytes.remove_prefix(sent);
    } else {
      ::pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
    }
  }
  return true;
}

/// Reads one envelope; nullopt when the server closes the connection first.
std::optional<FramedMessage> recv_frame(int fd, FrameReader& reader) {
  char chunk[4096];
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto message = reader.next()) {
      return message;
    }
    ::pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 100);
    std::size_t received = 0;
    const auto status = recv_some(fd, chunk, sizeof chunk, received);
    if (status == IoStatus::Closed) {
      return std::nullopt;
    }
    if (status == IoStatus::Ok) {
      reader.feed(std::string_view(chunk, received));
    }
  }
  return std::nullopt;
}

// ---- endpoint parsing ------------------------------------------------------

TEST(NetEndpoint, ParsesHostPortForms) {
  const auto plain = parse_endpoint("127.0.0.1:8080");
  EXPECT_EQ(plain.host, "127.0.0.1");
  EXPECT_EQ(plain.port, 8080);
  EXPECT_EQ(plain.to_string(), "127.0.0.1:8080");

  const auto bracketed = parse_endpoint("[::1]:9090");
  EXPECT_EQ(bracketed.host, "::1");
  EXPECT_EQ(bracketed.port, 9090);
  EXPECT_EQ(bracketed.to_string(), "[::1]:9090");

  EXPECT_EQ(parse_endpoint("localhost:0").port, 0);
}

TEST(NetEndpoint, RejectsDamagedSpecs) {
  EXPECT_THROW((void)parse_endpoint("nocolon"), Error);
  EXPECT_THROW((void)parse_endpoint(":123"), Error);
  EXPECT_THROW((void)parse_endpoint("host:"), Error);
  EXPECT_THROW((void)parse_endpoint("host:notaport"), Error);
  EXPECT_THROW((void)parse_endpoint("host:65536"), Error);
  EXPECT_THROW((void)parse_endpoint("host:12x"), Error);
  EXPECT_THROW((void)parse_endpoint("[::1]9090"), Error);
}

TEST(NetEndpoint, ParsesCommaList) {
  const auto list = parse_endpoints("a:1,b:2,c:3");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].to_string(), "a:1");
  EXPECT_EQ(list[2].to_string(), "c:3");
  EXPECT_THROW((void)parse_endpoints(""), Error);
  EXPECT_THROW((void)parse_endpoints("a:1,,b:2"), Error);
}

// ---- stream framing --------------------------------------------------------

TEST(NetFraming, EnvelopeRoundTripsThroughReader) {
  FrameReader reader;
  const auto bytes =
      envelope(7, "alpha") + envelope(8, "") + envelope(9, "gamma");
  // Worst-case delivery: one byte per feed.
  std::vector<FramedMessage> messages;
  for (const char byte : bytes) {
    reader.feed(std::string_view(&byte, 1));
    while (auto message = reader.next()) {
      messages.push_back(*message);
    }
  }
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(messages[0].ticket, 7u);
  EXPECT_EQ(messages[0].frame, "alpha");
  EXPECT_EQ(messages[1].ticket, 8u);
  EXPECT_EQ(messages[1].frame, "");
  EXPECT_EQ(messages[2].ticket, 9u);
  EXPECT_EQ(messages[2].frame, "gamma");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetFraming, RuntLengthPrefixIsRejected) {
  // length = 4 cannot even hold the 8-byte ticket.
  FrameReader reader;
  reader.feed(std::string_view("\x04\x00\x00\x00", 4));
  EXPECT_THROW((void)reader.next(), Error);
}

TEST(NetFraming, OversizeLengthPrefixIsRejectedBeforeTheBodyArrives) {
  FrameReader reader(/*max_frame_bytes=*/1024);
  // 64 MiB claimed; only the 4 prefix bytes are ever delivered. The reader
  // must throw now — buffering (or allocating) toward an absurd length is
  // exactly the attack the ceiling exists to stop.
  reader.feed(std::string_view("\x00\x00\x00\x04", 4));
  EXPECT_THROW((void)reader.next(), Error);
}

TEST(NetFraming, FrameAtTheCeilingStillPasses) {
  FrameReader reader(/*max_frame_bytes=*/5);
  reader.feed(envelope(1, "12345"));
  const auto message = reader.next();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->frame, "12345");
}

// ---- consistent-hash ring --------------------------------------------------

TEST(NetRing, KeyIsStableAndConfigSensitive) {
  const auto a = ShardRouter::key_of(ctrl_spec(100));
  EXPECT_EQ(a, ShardRouter::key_of(ctrl_spec(100)));
  EXPECT_NE(a, ShardRouter::key_of(ctrl_spec(101)));
  EXPECT_NE(a, ShardRouter::key_of(flow::wire::JobSpec::reference(
                   "bench:cavlc", config_with_cap(100))));

  // Inline graphs key on content, so the same graph built twice agrees.
  const auto inline_a = ShardRouter::key_of(flow::wire::JobSpec::inline_graph(
      bench::make_adder(4), "adder4", config_with_cap(100)));
  const auto inline_b = ShardRouter::key_of(flow::wire::JobSpec::inline_graph(
      bench::make_adder(4), "adder4", config_with_cap(100)));
  EXPECT_EQ(inline_a, inline_b);
}

TEST(NetRing, RoutingIsDeterministicAndSpreads) {
  const std::vector<Endpoint> endpoints = {
      {"shard-a", 1}, {"shard-b", 1}, {"shard-c", 1}, {"shard-d", 1}};
  ShardRouter router(endpoints);
  ShardRouter twin(endpoints);
  std::set<std::size_t> used;
  for (std::uint64_t cap = 3; cap <= 202; ++cap) {
    const auto spec = ctrl_spec(cap);
    const auto shard = router.route(spec);
    ASSERT_TRUE(shard.has_value());
    EXPECT_EQ(shard, twin.route(spec));  // same ring in every process
    used.insert(*shard);
  }
  // 200 keys over 4 shards * 64 virtual nodes: every shard owns some.
  EXPECT_EQ(used.size(), endpoints.size());
}

// ---- loopback: the happy path ----------------------------------------------

TEST(NetLoopback, PipelinedBatchMatchesLocalRunExactly) {
  Server server({"127.0.0.1", 0});
  Client client(server.endpoint(), fast_client());

  const std::vector<flow::wire::JobSpec> specs = {
      ctrl_spec(60),
      flow::wire::JobSpec::reference("bench:int2float", config_with_cap(40)),
      ctrl_spec(60),  // duplicate: coalesces or cache-hits server-side
      flow::wire::JobSpec::reference("bench:nope", config_with_cap(10)),
  };
  const auto results = client.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_same_outcome(results[i], local_run(specs[i]));
  }
  EXPECT_FALSE(results[3].ok());  // unknown benchmark fails on the shard
  EXPECT_EQ(client.telemetry().retries, 0u);
  EXPECT_EQ(client.telemetry().frames_out, specs.size());
  EXPECT_EQ(client.telemetry().frames_in, specs.size());

  const auto counters = server.counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.frames_in, specs.size());
  EXPECT_EQ(counters.frames_out, specs.size());
  EXPECT_EQ(counters.dropped_connections, 0u);
}

TEST(NetLoopback, PingReportsServiceAndCacheCounters) {
  Server server({"127.0.0.1", 0});
  Client client(server.endpoint(), fast_client());
  (void)client.run({ctrl_spec(25)});

  const auto stats = client.ping();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_GE(stats.workers, 1u);
  EXPECT_FALSE(stats.has_store);
  EXPECT_EQ(stats.rewrite_misses, 1u);
}

TEST(NetLoopback, ShardStoreWarmsAcrossRestart) {
  const auto dir = test::scratch_dir() / "store";
  ServerOptions options;
  options.cache_dir = dir.string();
  {
    Server server({"127.0.0.1", 0}, options);
    Client client(server.endpoint(), fast_client());
    (void)client.run({ctrl_spec(33)});
    const auto stats = client.ping();
    ASSERT_TRUE(stats.has_store);
    EXPECT_GT(stats.store_stores, 0u);
    EXPECT_EQ(stats.store_rewrite_loads + stats.store_program_loads, 0u);
  }
  {
    // A fresh shard on the same store serves the job from disk.
    Server server({"127.0.0.1", 0}, options);
    Client client(server.endpoint(), fast_client());
    const auto results = client.run({ctrl_spec(33)});
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    const auto stats = client.ping();
    ASSERT_TRUE(stats.has_store);
    EXPECT_GT(stats.store_program_loads, 0u);
  }
}

// ---- loopback: failure injection -------------------------------------------

TEST(NetInjection, TruncatedEnvelopeLeavesServerServing) {
  Server server({"127.0.0.1", 0});
  {
    // Half an envelope, then a hard close mid-message.
    const auto bytes = envelope(1, flow::wire::encode(ctrl_spec(10)));
    auto fd = connect_tcp(server.endpoint(), 1000ms);
    ASSERT_TRUE(send_all(fd.get(), std::string_view(bytes).substr(
                                       0, bytes.size() / 2)));
  }
  // The shard must shrug that off and keep answering real clients.
  Client client(server.endpoint(), fast_client());
  const auto results = client.run({ctrl_spec(11)});
  ASSERT_TRUE(results[0].ok()) << results[0].error;
}

TEST(NetInjection, BitFlippedPayloadGetsErrorReplyOnSameTicket) {
  Server server({"127.0.0.1", 0});
  auto frame = flow::wire::encode(ctrl_spec(12));
  // Flip one bit somewhere in the middle of the authenticated frame: the
  // envelope still delimits it, so the server must answer the damaged
  // ticket with an error JobResult and keep the stream alive.
  frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 0x10);

  auto fd = connect_tcp(server.endpoint(), 1000ms);
  ASSERT_TRUE(send_all(fd.get(), envelope(99, frame)));
  FrameReader reader;
  const auto reply = recv_frame(fd.get(), reader);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->ticket, 99u);
  const auto result = flow::wire::decode_job_result(reply->frame);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("server:"), std::string::npos) << result.error;

  // Same connection, intact frame: still served.
  ASSERT_TRUE(
      send_all(fd.get(), envelope(100, flow::wire::encode(ctrl_spec(12)))));
  const auto good = recv_frame(fd.get(), reader);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->ticket, 100u);
  EXPECT_TRUE(flow::wire::decode_job_result(good->frame).ok());
  EXPECT_EQ(server.counters().decode_errors, 1u);
}

TEST(NetInjection, MiskindedFrameDropsTheConnection) {
  Server server({"127.0.0.1", 0});
  flow::JobResult bogus;
  bogus.error = "client has no business sending results";
  auto fd = connect_tcp(server.endpoint(), 1000ms);
  ASSERT_TRUE(send_all(fd.get(), envelope(1, flow::wire::encode(bogus))));
  FrameReader reader;
  EXPECT_FALSE(recv_frame(fd.get(), reader).has_value());  // closed, no reply
  // Poll until the loop thread has registered the drop.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.counters().dropped_connections == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.counters().dropped_connections, 1u);
}

TEST(NetInjection, OversizeFrameIsRefusedAndClientGivesUp) {
  ServerOptions options;
  options.max_frame_bytes = 256;  // smaller than any real JobSpec frame
  Server server({"127.0.0.1", 0}, options);
  auto client_options = fast_client();
  client_options.max_retries = 1;
  Client client(server.endpoint(), client_options);
  const std::vector<flow::wire::JobSpec> specs = {
      flow::wire::JobSpec::inline_graph(bench::make_adder(6), "adder6",
                                        config_with_cap(100))};
  EXPECT_THROW((void)client.run(specs), Error);
  EXPECT_EQ(client.telemetry().retries, 1u);
  EXPECT_GE(server.counters().dropped_connections, 1u);
}

TEST(NetInjection, SilentPeerTripsRequestTimeoutThenRetryBudget) {
  // A listener whose backlog accepts the handshake but nobody ever reads:
  // the inactivity timeout is the only thing that can unstick the client.
  auto listener = listen_tcp({"127.0.0.1", 0});
  const Endpoint endpoint{"127.0.0.1", local_port(listener)};
  auto options = fast_client();
  options.request_timeout = 100ms;
  Client client(endpoint, options);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.run({ctrl_spec(10)}), Error);
  EXPECT_EQ(client.telemetry().retries, options.max_retries);
  EXPECT_EQ(client.telemetry().frames_in, 0u);
  // 3 attempts x 100 ms inactivity + backoff: an unresponsive shard costs
  // milliseconds, not the production 30 s per attempt.
  EXPECT_LT(std::chrono::steady_clock::now() - started, 5s);
}

TEST(NetInjection, DeadEndpointIsRetriedWithBackoffThenFails) {
  // Bind-then-close yields a port that refuses instantly.
  Endpoint endpoint{"127.0.0.1", 0};
  {
    auto listener = listen_tcp(endpoint);
    endpoint.port = local_port(listener);
  }
  auto options = fast_client();
  Client client(endpoint, options);
  EXPECT_THROW((void)client.run({ctrl_spec(10)}), Error);
  EXPECT_EQ(client.telemetry().retries, options.max_retries);
  EXPECT_EQ(client.telemetry().connects, 0u);
}

TEST(NetInjection, DelayedAcceptsAreToleratedByPatientClients) {
  ServerOptions options;
  options.accept_delay = 50ms;
  Server server({"127.0.0.1", 0}, options);
  ClientOptions patient;  // production defaults: 2 s connect, 30 s request
  Client client(server.endpoint(), patient);
  const auto results = client.run({ctrl_spec(21)});
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(client.telemetry().retries, 0u);
}

// ---- retry backoff jitter --------------------------------------------------

TEST(NetBackoff, DelayStaysInHalfToFullWindowAtEveryAttempt) {
  net::ClientOptions options;  // production defaults: base 50 ms, cap 2 s
  util::Xoshiro256 rng(7);
  for (unsigned attempt = 0; attempt < 40; ++attempt) {
    const auto full = std::min<std::int64_t>(
        options.backoff_cap.count(),
        options.backoff_base.count() *
            (std::int64_t{1} << std::min(attempt, 20u)));
    for (int draw = 0; draw < 64; ++draw) {
      const auto delay = net::backoff_delay(options, attempt, rng).count();
      EXPECT_GE(delay, full / 2) << "attempt " << attempt;
      EXPECT_LE(delay, full) << "attempt " << attempt;
    }
  }
}

TEST(NetBackoff, JitterIsSeedReproducibleAndActuallySpreads) {
  const net::ClientOptions options;
  util::Xoshiro256 same_a(99);
  util::Xoshiro256 same_b(99);
  util::Xoshiro256 other(100);
  bool spread = false;
  for (int draw = 0; draw < 32; ++draw) {
    const auto delay = net::backoff_delay(options, 3, same_a);
    EXPECT_EQ(delay, net::backoff_delay(options, 3, same_b));
    spread |= delay != net::backoff_delay(options, 3, other);
  }
  EXPECT_TRUE(spread);  // two fleets with different seeds must decorrelate
}

TEST(NetBackoff, ZeroBaseMeansNoSleep) {
  net::ClientOptions options;
  options.backoff_base = std::chrono::milliseconds(0);
  util::Xoshiro256 rng(1);
  for (unsigned attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(net::backoff_delay(options, attempt, rng).count(), 0);
  }
}

// ---- loopback: the cluster -------------------------------------------------

TEST(NetCluster, TwoShardsPartitionAndAgreeWithLocalRuns) {
  Server shard_a({"127.0.0.1", 0});
  Server shard_b({"127.0.0.1", 0});
  ShardRouter router({shard_a.endpoint(), shard_b.endpoint()}, fast_client());

  std::vector<flow::wire::JobSpec> specs;
  for (std::uint64_t cap = 30; cap < 42; ++cap) {
    specs.push_back(ctrl_spec(cap));
  }
  const auto results = router.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_same_outcome(results[i], local_run(specs[i]));
  }
  // Consistent hashing actually split the stream (64 virtual nodes and 12
  // distinct keys: both shards get work with overwhelming probability).
  const auto a = shard_a.counters().frames_in;
  const auto b = shard_b.counters().frames_in;
  EXPECT_EQ(a + b, specs.size());
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
  EXPECT_EQ(router.telemetry().failovers, 0u);
}

TEST(NetCluster, KilledShardFailsOverWithoutLosingAJob) {
  Server shard_a({"127.0.0.1", 0});
  // Shard B is doomed: its accept loop is slowed far past the client's
  // inactivity ceiling, so it cannot answer anything before the kill below
  // lands — a deterministic mid-batch death, whatever the scheduler does.
  ServerOptions doomed;
  doomed.accept_delay = 10s;
  Server shard_b({"127.0.0.1", 0}, doomed);
  ShardRouter router({shard_a.endpoint(), shard_b.endpoint()}, fast_client());

  std::vector<flow::wire::JobSpec> specs;
  for (std::uint64_t cap = 50; cap < 62; ++cap) {
    specs.push_back(ctrl_spec(cap));
  }
  // Kill shard B while the batch is in flight: every job routed to it must
  // reroute to shard A after B's retry budget drains, and nothing from A is
  // disturbed.
  std::thread killer([&shard_b] {
    std::this_thread::sleep_for(30ms);
    shard_b.stop();
  });
  const auto results = router.run(specs);
  killer.join();

  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_same_outcome(results[i], local_run(specs[i]));
  }
  EXPECT_FALSE(router.alive(1));
  EXPECT_TRUE(router.alive(0));
  EXPECT_EQ(router.telemetry().failovers, 1u);
  EXPECT_GT(router.telemetry().rerouted, 0u);
  // Every job still produced a real report on shard A.
  EXPECT_EQ(shard_a.counters().frames_out,
            static_cast<std::uint64_t>(specs.size()));
}

TEST(NetCluster, AllShardsDeadYieldsErrorRowsNotAThrow) {
  Endpoint dead{"127.0.0.1", 0};
  {
    auto listener = listen_tcp(dead);
    dead.port = local_port(listener);
  }
  auto options = fast_client();
  options.max_retries = 0;
  ShardRouter router({dead}, options);
  const auto results = router.run({ctrl_spec(10), ctrl_spec(11)});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("no shard available"), std::string::npos)
        << result.error;
  }
}

}  // namespace
}  // namespace rlim::net
