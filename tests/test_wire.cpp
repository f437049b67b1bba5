#include <gtest/gtest.h>

#include <string>

#include "benchmarks/arithmetic.hpp"
#include "flow/service.hpp"
#include "flow/wire.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rlim::flow::wire {
namespace {

core::PipelineConfig sample_config() {
  return core::make_config(core::Strategy::FullEndurance, 100);
}

void expect_reports_equal(const core::EnduranceReport& a,
                          const core::EnduranceReport& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.config.canonical_key(), b.config.canonical_key());
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.rrams, b.rrams);
  EXPECT_EQ(a.writes.min, b.writes.min);
  EXPECT_EQ(a.writes.max, b.writes.max);
  EXPECT_EQ(a.writes.stdev, b.writes.stdev);  // bit-exact (f64 round-trip)
  EXPECT_EQ(a.gates_before_rewrite, b.gates_before_rewrite);
  EXPECT_EQ(a.gates_after_rewrite, b.gates_after_rewrite);
  EXPECT_EQ(a.program.disassemble(), b.program.disassemble());
}

// ---- JobSpec ----------------------------------------------------------------

TEST(FlowWire, ReferenceJobSpecRoundTrips) {
  const auto spec =
      JobSpec::reference("bench:ctrl", sample_config(), "my-label");
  const auto decoded = decode_job_spec(encode(spec));
  EXPECT_EQ(decoded.source_ref, "bench:ctrl");
  EXPECT_FALSE(decoded.graph.has_value());
  EXPECT_EQ(decoded.config_spec, sample_config().canonical_key());
  EXPECT_EQ(decoded.label, "my-label");

  // encode ∘ decode is the identity on frames.
  EXPECT_EQ(encode(decoded), encode(spec));

  const auto job = decoded.to_job();
  EXPECT_EQ(job.display_label(), "my-label");
  EXPECT_EQ(job.config, sample_config());
}

TEST(FlowWire, InlineGraphJobSpecRoundTrips) {
  auto graph = bench::make_adder(6);
  const auto fingerprint = graph.fingerprint();
  const auto spec =
      JobSpec::inline_graph(std::move(graph), "adder6", sample_config());
  const auto decoded = decode_job_spec(encode(spec));
  ASSERT_TRUE(decoded.graph.has_value());
  EXPECT_EQ(decoded.graph->fingerprint(), fingerprint);
  EXPECT_EQ(decoded.graph_label, "adder6");
  EXPECT_EQ(encode(decoded), encode(spec));

  // The decoded spec is executable and matches a direct run bit for bit.
  const auto via_wire = run_job(decoded.to_job());
  const auto direct = run_job(
      {Source::graph(bench::make_adder(6), "adder6"), sample_config(), {}});
  ASSERT_TRUE(via_wire.ok()) << via_wire.error;
  ASSERT_TRUE(direct.ok());
  expect_reports_equal(via_wire.report, direct.report);
}

TEST(FlowWire, JobSpecSchedulingFieldsRoundTrip) {
  // v5 additions: priority band plus an optional soft deadline.
  auto spec = JobSpec::reference("bench:ctrl", sample_config(), "hot");
  spec.priority = sched::Priority::High;
  spec.deadline_ms = 250;
  const auto decoded = decode_job_spec(encode(spec));
  EXPECT_EQ(decoded.priority, sched::Priority::High);
  ASSERT_TRUE(decoded.deadline_ms.has_value());
  EXPECT_EQ(*decoded.deadline_ms, 250u);
  EXPECT_EQ(encode(decoded), encode(spec));

  const auto job = decoded.to_job();
  EXPECT_EQ(job.priority, sched::Priority::High);
  ASSERT_TRUE(job.deadline.has_value());
  EXPECT_EQ(job.deadline->count(), 250);
}

TEST(FlowWire, JobSpecDefaultSchedulingFieldsRoundTrip) {
  // A spec that never touches the scheduling fields must arrive with the
  // defaults intact: Normal priority, no deadline.
  const auto spec = JobSpec::reference("bench:ctrl", sample_config());
  const auto decoded = decode_job_spec(encode(spec));
  EXPECT_EQ(decoded.priority, sched::Priority::Normal);
  EXPECT_FALSE(decoded.deadline_ms.has_value());
  EXPECT_EQ(encode(decoded), encode(spec));
  EXPECT_FALSE(decoded.to_job().deadline.has_value());
}

TEST(FlowWire, EveryPriorityBandRoundTrips) {
  for (const auto priority : {sched::Priority::Low, sched::Priority::Normal,
                              sched::Priority::High}) {
    auto spec = JobSpec::reference("bench:ctrl", sample_config());
    spec.priority = priority;
    EXPECT_EQ(decode_job_spec(encode(spec)).priority, priority);
  }
}

TEST(FlowWire, JobSpecValidatesConfigAtDecode) {
  auto spec = JobSpec::reference("bench:ctrl", sample_config());
  spec.config_spec = "select=unregistered";
  EXPECT_THROW(static_cast<void>(decode_job_spec(encode(spec))), Error);
}

TEST(FlowWire, JobSpecWithoutSourceIsRejected) {
  JobSpec empty;
  empty.config_spec = "full";
  EXPECT_THROW(static_cast<void>(decode_job_spec(encode(empty))), Error);
}

// ---- JobResult --------------------------------------------------------------

TEST(FlowWire, SuccessfulResultRoundTrips) {
  const auto result = run_job(
      {Source::graph(bench::make_adder(6), "adder6"), sample_config(), {}});
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.prepared, nullptr);

  const auto decoded = decode_job_result(encode(result));
  ASSERT_TRUE(decoded.ok());
  expect_reports_equal(decoded.report, result.report);
  EXPECT_EQ(decoded.rewrite_stats.initial_gates,
            result.rewrite_stats.initial_gates);
  EXPECT_EQ(decoded.rewrite_stats.final_gates,
            result.rewrite_stats.final_gates);
  EXPECT_EQ(decoded.rewrite_stats.cycles_run, result.rewrite_stats.cycles_run);
  ASSERT_NE(decoded.prepared, nullptr);
  EXPECT_EQ(decoded.prepared->fingerprint(), result.prepared->fingerprint());
  EXPECT_EQ(encode(decoded), encode(result));
}

TEST(FlowWire, FailedResultRoundTrips) {
  const auto result = run_job({Source::netlist("/nonexistent/x.mig"),
                               core::make_config(core::Strategy::Naive),
                               {}});
  ASSERT_FALSE(result.ok());
  const auto decoded = decode_job_result(encode(result));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error, result.error);
  EXPECT_EQ(decoded.prepared, nullptr);
  EXPECT_EQ(encode(decoded), encode(result));
}

TEST(FlowWire, ResultWithoutPreparedGraphRoundTrips) {
  auto result = run_job(
      {Source::graph(bench::make_adder(4), "adder4"), sample_config(), {}});
  ASSERT_TRUE(result.ok());
  result.prepared = nullptr;  // a sender may strip the graph to save bytes
  const auto decoded = decode_job_result(encode(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.prepared, nullptr);
  expect_reports_equal(decoded.report, result.report);
}

// ---- ping / stats -----------------------------------------------------------

TEST(FlowWire, PingRoundTrips) {
  const auto frame = encode_ping();
  EXPECT_EQ(peek_kind(frame), MessageKind::Ping);
  EXPECT_NO_THROW(decode_ping(frame));
  // Ping authenticates like everything else: a damaged frame is rejected.
  auto corrupt = frame;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);
  EXPECT_THROW(decode_ping(corrupt), Error);
}

StatsReply sample_stats() {
  StatsReply stats;
  stats.submitted = 101;
  stats.completed = 100;
  stats.executed = 73;
  stats.coalesced = 21;
  stats.cancelled = 1;
  stats.rewrite_hits = 50;
  stats.rewrite_misses = 23;
  stats.program_hits = 40;
  stats.program_misses = 33;
  stats.has_store = true;
  stats.store_rewrite_loads = 7;
  stats.store_program_loads = 8;
  stats.store_load_misses = 9;
  stats.store_stores = 10;
  stats.store_failures = 1;
  stats.store_evicted_corrupt = 2;
  stats.store_evicted_version = 3;
  stats.workers = 16;
  stats.sched_queue_depth = 4;
  stats.sched_stolen = 12;
  stats.sched_parks = 5;
  stats.sched_overflows = 2;
  stats.sched_forked = 48;
  stats.sched_low = 11;
  stats.sched_normal = 70;
  stats.sched_high = 20;
  return stats;
}

TEST(FlowWire, StatsReplyRoundTrips) {
  const auto stats = sample_stats();
  const auto frame = encode(stats);
  EXPECT_EQ(peek_kind(frame), MessageKind::Stats);
  EXPECT_EQ(decode_stats(frame), stats);

  // The storeless variant drops the store block entirely.
  StatsReply storeless = stats;
  storeless.has_store = false;
  storeless.store_rewrite_loads = 0;
  storeless.store_program_loads = 0;
  storeless.store_load_misses = 0;
  storeless.store_stores = 0;
  storeless.store_failures = 0;
  storeless.store_evicted_corrupt = 0;
  storeless.store_evicted_version = 0;
  const auto short_frame = encode(storeless);
  EXPECT_LT(short_frame.size(), frame.size());
  EXPECT_EQ(decode_stats(short_frame), storeless);
}

TEST(FlowWire, StatsKindIsChecked) {
  EXPECT_THROW(static_cast<void>(decode_stats(encode_ping())), Error);
  EXPECT_THROW(decode_ping(encode(sample_stats())), Error);
  EXPECT_THROW(static_cast<void>(decode_job_spec(encode(sample_stats()))),
               Error);
}

TEST(FlowWire, StatsBitFlipsAreRejected) {
  const auto frame = encode(sample_stats());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW(static_cast<void>(decode_stats(corrupt)), Error)
        << "flip at byte " << i << " must not decode";
  }
}

// ---- framing ----------------------------------------------------------------

TEST(FlowWire, PeekKindDispatches) {
  const auto spec_frame =
      encode(JobSpec::reference("bench:ctrl", sample_config()));
  EXPECT_EQ(peek_kind(spec_frame), MessageKind::JobSpec);
  const auto result = run_job(
      {Source::graph(bench::make_adder(4), "adder4"), sample_config(), {}});
  EXPECT_EQ(peek_kind(encode(result)), MessageKind::JobResult);
}

TEST(FlowWire, KindMismatchIsRejected) {
  const auto spec_frame =
      encode(JobSpec::reference("bench:ctrl", sample_config()));
  EXPECT_THROW(static_cast<void>(decode_job_result(spec_frame)), Error);
}

TEST(FlowWire, EveryTruncationIsRejected) {
  const auto frame = encode(JobSpec::reference("bench:ctrl", sample_config()));
  for (std::size_t length = 0; length < frame.size(); ++length) {
    EXPECT_THROW(
        static_cast<void>(decode_job_spec({frame.data(), length})), Error)
        << "prefix of " << length << " bytes must not decode";
  }
}

TEST(FlowWire, EveryBitFlipIsRejected) {
  // The integrity hash covers the entire frame: any single corrupted byte —
  // header, payload, or the hash itself — must throw, never mis-decode.
  const auto frame = encode(JobSpec::reference("bench:ctrl", sample_config()));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_THROW(static_cast<void>(decode_job_spec(corrupt)), Error)
        << "flip at byte " << i << " must not decode";
  }
}

TEST(FlowWire, DeadlineFrameTruncationsAndBitFlipsAreRejected) {
  // The v5 scheduling tail (priority byte + optional deadline) is covered by
  // the same frame hash as everything else: damage anywhere in a
  // deadline-bearing frame must throw, never decode to a different deadline.
  auto spec = JobSpec::reference("bench:ctrl", sample_config());
  spec.priority = sched::Priority::Low;
  spec.deadline_ms = 1234;
  const auto frame = encode(spec);
  for (std::size_t length = 0; length < frame.size(); ++length) {
    EXPECT_THROW(
        static_cast<void>(decode_job_spec({frame.data(), length})), Error)
        << "prefix of " << length << " bytes must not decode";
  }
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x08);
    EXPECT_THROW(static_cast<void>(decode_job_spec(corrupt)), Error)
        << "flip at byte " << i << " must not decode";
  }
}

TEST(FlowWire, ForeignVersionIsRejectedLoudly) {
  auto frame = encode(JobSpec::reference("bench:ctrl", sample_config()));
  // Patch the version field (right after the 4-byte magic) and re-sign the
  // frame, simulating an otherwise-intact message from a newer build.
  util::ByteWriter version;
  version.u32(kWireVersion + 1);
  frame.replace(4, 4, version.bytes());
  util::ByteWriter hash;
  hash.u64(util::fnv1a64({frame.data(), frame.size() - 8}));
  frame.replace(frame.size() - 8, 8, hash.bytes());
  try {
    static_cast<void>(decode_job_spec(frame));
    FAIL() << "foreign version must not decode";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("version mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST(FlowWire, ForeignMagicIsRejected) {
  auto frame = encode(JobSpec::reference("bench:ctrl", sample_config()));
  frame[0] = 'X';
  EXPECT_THROW(static_cast<void>(peek_kind(frame)), Error);
}

}  // namespace
}  // namespace rlim::flow::wire
