#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "benchmarks/arithmetic.hpp"
#include "core/endurance.hpp"
#include "mig/rewriting.hpp"
#include "pass/seq.hpp"
#include "store/disk_store.hpp"
#include "store/format.hpp"
#include "store/gc.hpp"
#include "store/serialize.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rlim::store {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the test temp root, wiped at entry so reruns see a
/// clean store.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = test::scratch_dir() / ("store_" + name);
  fs::remove_all(dir);
  return dir;
}

/// The store's sharded entry path for (kind, fingerprint, key) — the one
/// place the tests encode the production layout formula.
fs::path path_of(const fs::path& root, EntryKind kind,
                 std::uint64_t fingerprint, const std::string& key) {
  const auto name = entry_file_name(kind, fingerprint, key);
  return objects_dir(root) / name.substr(0, 2) / name;
}

mig::Mig sample_graph() { return bench::make_adder(6); }

/// `graph` after two cycles of the paper's endurance flow.
mig::Mig endurance_rewrite(const mig::Mig& graph) {
  return pass::make_rewrite({"endurance", {{"effort", "2"}}})(graph, nullptr);
}

mig::RewriteStats sample_stats() {
  mig::RewriteStats stats;
  stats.initial_gates = 41;
  stats.final_gates = 37;
  stats.initial_complement_edges = 12;
  stats.final_complement_edges = 7;
  stats.cycles_run = 3;
  stats.total_applications = 19;
  // Negative deltas exercise the signed u64 cast in the codec.
  stats.per_pass.push_back({"maj", 3, 12, -4, -5, -1, 1234});
  stats.per_pass.push_back({"dist", 3, 7, 0, 2, 0, 567});
  return stats;
}

core::EnduranceReport sample_report() {
  // Label-agnostic, the way PipelineCache stores it.
  return core::run_pipeline(sample_graph(),
                            core::make_config(core::Strategy::FullEndurance),
                            {});
}

void expect_same_graph(const mig::Mig& a, const mig::Mig& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_EQ(a.complement_edge_count(), b.complement_edge_count());
  for (std::uint32_t pi = 0; pi < a.num_pis(); ++pi) {
    EXPECT_EQ(a.pi_name(pi), b.pi_name(pi));
  }
  for (std::uint32_t po = 0; po < a.num_pos(); ++po) {
    EXPECT_EQ(a.po_at(po), b.po_at(po));
    EXPECT_EQ(a.po_name(po), b.po_name(po));
  }
}

void expect_same_program(const plim::Program& a, const plim::Program& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.instructions()[i], b.instructions()[i]) << "instruction " << i;
  }
  EXPECT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.pi_cells().size(), b.pi_cells().size());
  ASSERT_EQ(a.po_cells().size(), b.po_cells().size());
  for (std::size_t i = 0; i < a.pi_cells().size(); ++i) {
    EXPECT_EQ(a.pi_cells()[i], b.pi_cells()[i]);
  }
  for (std::size_t i = 0; i < a.po_cells().size(); ++i) {
    EXPECT_EQ(a.po_cells()[i], b.po_cells()[i]);
  }
}

// ---- serialization round-trips ---------------------------------------------

TEST(StoreSerialize, MigRoundTripsExactly) {
  const auto graph = endurance_rewrite(sample_graph());
  util::ByteWriter out;
  encode(out, graph);
  util::ByteReader in(out.bytes());
  const auto decoded = decode_mig(in);
  in.expect_end();
  expect_same_graph(graph, decoded);
}

TEST(StoreSerialize, RewriteStatsRoundTrip) {
  const auto stats = sample_stats();
  util::ByteWriter out;
  encode(out, stats);
  util::ByteReader in(out.bytes());
  const auto decoded = decode_rewrite_stats(in);
  EXPECT_EQ(decoded.initial_gates, stats.initial_gates);
  EXPECT_EQ(decoded.final_gates, stats.final_gates);
  EXPECT_EQ(decoded.initial_complement_edges, stats.initial_complement_edges);
  EXPECT_EQ(decoded.final_complement_edges, stats.final_complement_edges);
  EXPECT_EQ(decoded.cycles_run, stats.cycles_run);
  EXPECT_EQ(decoded.total_applications, stats.total_applications);
  EXPECT_EQ(decoded.per_pass, stats.per_pass);  // incl. signed deltas + wall
}

TEST(StoreSerialize, ForgedPassCountIsRejectedBeforeAllocating) {
  // A JobResult frame or store entry claiming 2^32-1 per-pass records in a
  // few bytes must cost an rlim::Error, not a multi-GB resize.
  util::ByteWriter out;
  encode(out, mig::RewriteStats{});
  auto bytes = out.take();
  util::ByteWriter count;
  count.u32(0xFFFFFFFFu);
  bytes.replace(bytes.size() - 4, 4, count.bytes());
  util::ByteReader in(bytes);
  EXPECT_THROW(static_cast<void>(decode_rewrite_stats(in)), Error);
}

TEST(StoreSerialize, ReportRoundTripsBitExactly) {
  const auto report = sample_report();
  util::ByteWriter out;
  encode(out, report);
  util::ByteReader in(out.bytes());
  const auto decoded = decode_report(in);
  EXPECT_EQ(decoded.benchmark, report.benchmark);
  EXPECT_EQ(decoded.config, report.config);
  EXPECT_EQ(decoded.instructions, report.instructions);
  EXPECT_EQ(decoded.rrams, report.rrams);
  EXPECT_EQ(decoded.gates_before_rewrite, report.gates_before_rewrite);
  EXPECT_EQ(decoded.gates_after_rewrite, report.gates_after_rewrite);
  EXPECT_EQ(decoded.writes.count, report.writes.count);
  EXPECT_EQ(decoded.writes.min, report.writes.min);
  EXPECT_EQ(decoded.writes.max, report.writes.max);
  EXPECT_EQ(decoded.writes.total, report.writes.total);
  // Doubles travel as IEEE-754 bit patterns: equality must be exact, or
  // warm-store reports would not be byte-identical to cold ones.
  EXPECT_EQ(decoded.writes.mean, report.writes.mean);
  EXPECT_EQ(decoded.writes.stdev, report.writes.stdev);
  expect_same_program(report.program, decoded.program);
  EXPECT_FALSE(decoded.fault_sweep.has_value());
}

TEST(StoreSerialize, FaultSweepBlockRoundTripsExactly) {
  // A report compiled under a fault config carries the distribution through
  // the store (and therefore the pipeline cache and the wire) unchanged.
  auto report = sample_report();
  report.config = core::PipelineConfig::parse(
      "full,fault=stuck:rate=0.02:endurance=60:trials=4:runs=30");
  fault::LifetimeDistribution dist;
  dist.trials = 4;
  dist.runs_cap = 30;
  dist.censored = 1;
  dist.lifetime_min = 3;
  dist.lifetime_p50 = 11;
  dist.lifetime_p99 = 29;
  dist.lifetime_max = 30;
  dist.lifetime_mean = 18.25;
  dist.failed_cells_min = 1;
  dist.failed_cells_max = 6;
  dist.failed_cells_mean = 3.5;
  dist.remapped_total = 2;
  dist.dropped_writes = 17;
  report.fault_sweep = dist;

  util::ByteWriter out;
  encode(out, report);
  util::ByteReader in(out.bytes());
  const auto decoded = decode_report(in);
  EXPECT_EQ(decoded.config, report.config);
  ASSERT_TRUE(decoded.fault_sweep.has_value());
  EXPECT_EQ(*decoded.fault_sweep, dist);
}

TEST(StoreSerialize, TruncatedPayloadThrowsInsteadOfMisdecoding) {
  RewritePayload payload{sample_graph(), sample_stats()};
  const auto bytes = encode_payload(payload);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    EXPECT_THROW(
        static_cast<void>(decode_rewrite_payload(bytes.substr(0, keep))),
        Error)
        << "kept " << keep << " bytes";
  }
  EXPECT_THROW(static_cast<void>(decode_rewrite_payload(bytes + "x")), Error)
      << "trailing garbage must be rejected";
}

TEST(StoreSerialize, RandomizedTruncationNeverReadsPastTheEnd) {
  // Every prefix of a valid payload must throw rlim::Error from the
  // bounds-checked reader — never crash, hang, or decode. A fixed seed keeps
  // failures reproducible.
  ProgramPayload payload{endurance_rewrite(sample_graph()),
                         sample_stats(), sample_report()};
  const auto bytes = encode_payload(payload);
  ASSERT_GT(bytes.size(), 64u);
  std::mt19937 rng(0x51f0u);
  for (int i = 0; i < 200; ++i) {
    const auto keep = rng() % bytes.size();
    EXPECT_THROW(
        static_cast<void>(decode_program_payload(bytes.substr(0, keep))),
        Error)
        << "kept " << keep << " bytes";
  }
}

TEST(StoreSerialize, RejectsInconsistentSectionTable) {
  const auto graph = sample_graph();
  util::ByteWriter out;
  encode(out, graph);
  auto bytes = out.take();
  // Offset 20 holds sections_bytes (after the five u32 counts); nudging it
  // must be caught by the header/section cross-check, not by a misread.
  ASSERT_GT(bytes.size(), 24u);
  bytes[20] = static_cast<char>(static_cast<unsigned char>(bytes[20]) + 1);
  util::ByteReader in(bytes);
  EXPECT_THROW(static_cast<void>(decode_mig(in)), Error);
}

TEST(StoreSerialize, RejectsTamperedFaninSection) {
  // Flip a bit inside the bulk fanin section: the result either violates the
  // canonical-form validation or no longer matches the embedded fingerprint
  // — either way decode must throw rather than return a different graph.
  const auto graph = sample_graph();
  util::ByteWriter out;
  encode(out, graph);
  auto bytes = out.take();
  const auto num_pis = graph.num_pis();
  const auto num_pos = graph.num_pos();
  const std::size_t fanin_offset = 24 + 4ull * num_pis +
                                   graph.pi_names().pool().size() +
                                   4ull * num_pos +
                                   graph.po_names().pool().size();
  ASSERT_GT(graph.num_gates(), 2u);
  ASSERT_LT(fanin_offset + 12ull * graph.num_gates(), bytes.size());
  bytes[fanin_offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[fanin_offset]) ^ 0x01);
  util::ByteReader in(bytes);
  EXPECT_THROW(static_cast<void>(decode_mig(in)), Error);
}

// ---- disk store ------------------------------------------------------------

TEST(DiskStore, RewriteEntryRoundTripsThroughDisk) {
  DiskStore disk(fresh_dir("rewrite_roundtrip"));
  const auto graph = endurance_rewrite(sample_graph());
  const auto fingerprint = sample_graph().fingerprint();
  EXPECT_FALSE(disk.load_rewrite(fingerprint, "endurance:effort=2"));
  ASSERT_TRUE(
      disk.store_rewrite(fingerprint, "endurance:effort=2", graph,
                         sample_stats()));
  const auto loaded = disk.load_rewrite(fingerprint, "endurance:effort=2");
  ASSERT_TRUE(loaded.has_value());
  expect_same_graph(graph, loaded->graph);
  EXPECT_EQ(loaded->stats.final_gates, sample_stats().final_gates);
  const auto counters = disk.counters();
  EXPECT_EQ(counters.rewrite_loads, 1u);
  EXPECT_EQ(counters.load_misses, 1u);
  EXPECT_EQ(counters.stores, 1u);
}

TEST(DiskStore, ProgramEntryRoundTripsThroughDisk) {
  DiskStore disk(fresh_dir("program_roundtrip"));
  const auto report = sample_report();
  const auto prepared = endurance_rewrite(sample_graph());
  const auto fingerprint = sample_graph().fingerprint();
  const auto key = report.config.canonical_key();
  ASSERT_TRUE(disk.store_program(fingerprint, key, prepared, sample_stats(),
                                 report));
  const auto loaded = disk.load_program(fingerprint, key);
  ASSERT_TRUE(loaded.has_value());
  expect_same_graph(prepared, loaded->prepared);
  EXPECT_EQ(loaded->report.instructions, report.instructions);
  EXPECT_EQ(loaded->report.writes.stdev, report.writes.stdev);
  // Kind is part of the content address: a program entry never answers a
  // rewrite lookup for the same (fingerprint, key).
  EXPECT_FALSE(disk.load_rewrite(fingerprint, key));
}

TEST(DiskStore, TruncatedEntryIsEvictedAndFallsBackToMiss) {
  const auto root = fresh_dir("truncated");
  DiskStore disk(root);
  const auto graph = sample_graph();
  ASSERT_TRUE(disk.store_rewrite(1, "k", graph, sample_stats()));
  const auto path = path_of(root, EntryKind::Rewrite, 1, "k");
  ASSERT_TRUE(fs::exists(path));
  fs::resize_file(path, fs::file_size(path) / 2);

  EXPECT_FALSE(disk.load_rewrite(1, "k"));
  EXPECT_FALSE(fs::exists(path)) << "damaged entry must be evicted";
  EXPECT_EQ(disk.counters().evicted_corrupt, 1u);
  // The store heals: a fresh write-through restores service.
  ASSERT_TRUE(disk.store_rewrite(1, "k", graph, sample_stats()));
  EXPECT_TRUE(disk.load_rewrite(1, "k").has_value());
}

TEST(DiskStore, BitFlippedEntryIsRejectedByIntegrityHash) {
  const auto root = fresh_dir("bitflip");
  DiskStore disk(root);
  ASSERT_TRUE(disk.store_rewrite(2, "k", sample_graph(), sample_stats()));
  const auto path = path_of(root, EntryKind::Rewrite, 2, "k");

  // Flip one bit somewhere in the middle of the frame.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_FALSE(disk.load_rewrite(2, "k"));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(disk.counters().evicted_corrupt, 1u);
}

TEST(DiskStore, VersionMismatchedEntryIsEvictedNotDecoded) {
  const auto root = fresh_dir("version");
  DiskStore disk(root);
  // Hand-craft an otherwise perfectly authenticated entry from a future
  // format version: integrity hash valid, version field one ahead.
  util::ByteWriter out;
  out.raw(kMagic)
      .u32(kFormatVersion + 1)
      .u8(static_cast<std::uint8_t>(EntryKind::Rewrite))
      .u64(3)
      .str("k");
  out.u32(4).raw("past");
  out.u64(util::fnv1a64_lanes(out.bytes()));
  const auto path = path_of(root, EntryKind::Rewrite, 3, "k");
  fs::create_directories(path.parent_path());
  {
    std::ofstream os(path, std::ios::binary);
    os.write(out.bytes().data(),
             static_cast<std::streamsize>(out.bytes().size()));
  }

  // Before any load touches it, stats classify the entry as stale.
  EXPECT_EQ(Gc(root).summarize().stale_version, 1u);

  EXPECT_FALSE(disk.load_rewrite(3, "k"));
  EXPECT_FALSE(fs::exists(path));
  const auto counters = disk.counters();
  EXPECT_EQ(counters.evicted_version, 1u);
  EXPECT_EQ(counters.evicted_corrupt, 0u);
}

TEST(DiskStore, AuthenticatedGarbagePayloadIsEvicted) {
  const auto root = fresh_dir("garbage_payload");
  DiskStore disk(root);
  // Valid frame (current version, matching hash) around an undecodable
  // payload — the decode layer must reject it, not crash or mis-table.
  util::ByteWriter out;
  out.raw(kMagic)
      .u32(kFormatVersion)
      .u8(static_cast<std::uint8_t>(EntryKind::Program))
      .u64(4)
      .str("k");
  out.u32(7).raw("garbage");
  out.u64(util::fnv1a64_lanes(out.bytes()));
  const auto path = path_of(root, EntryKind::Program, 4, "k");
  fs::create_directories(path.parent_path());
  {
    std::ofstream os(path, std::ios::binary);
    os.write(out.bytes().data(),
             static_cast<std::streamsize>(out.bytes().size()));
  }

  EXPECT_FALSE(disk.load_program(4, "k"));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(disk.counters().evicted_corrupt, 1u);
}

TEST(DiskStore, HashCollisionSurfacesAsPlainMiss) {
  const auto root = fresh_dir("collision");
  DiskStore disk(root);
  ASSERT_TRUE(disk.store_rewrite(5, "key_a", sample_graph(), sample_stats()));
  const auto collided = path_of(root, EntryKind::Rewrite, 5, "key_a");
  // A real 64-bit collision cannot be provoked through the API, so emulate
  // one by moving key_a's file to where key_b's entry would live.
  const auto target = path_of(root, EntryKind::Rewrite, 5, "key_b");
  fs::create_directories(target.parent_path());
  fs::rename(collided, target);

  EXPECT_FALSE(disk.load_rewrite(5, "key_b"));
  EXPECT_TRUE(fs::exists(target)) << "a foreign entry must not be evicted";
  EXPECT_EQ(disk.counters().evicted_corrupt, 0u);
}

// ---- garbage collection ----------------------------------------------------

/// Seeds `count` rewrite entries with strictly increasing mtimes, oldest
/// first, and returns their paths in that order.
std::vector<fs::path> seed_entries(DiskStore& disk, const fs::path& root,
                                   std::size_t count) {
  std::vector<fs::path> paths;
  const auto graph = sample_graph();
  const auto base = fs::file_time_type::clock::now() - std::chrono::hours(24);
  for (std::size_t i = 0; i < count; ++i) {
    const auto key = "k" + std::to_string(i);
    EXPECT_TRUE(disk.store_rewrite(i, key, graph, sample_stats()));
    auto path = path_of(root, EntryKind::Rewrite, i, key);
    fs::last_write_time(path, base + std::chrono::minutes(i));
    paths.push_back(std::move(path));
  }
  return paths;
}

TEST(StoreGc, MaxBytesEvictsOldestFirst) {
  const auto root = fresh_dir("gc_bytes");
  DiskStore disk(root);
  const auto paths = seed_entries(disk, root, 4);
  std::uint64_t total = 0;
  for (const auto& path : paths) {
    total += fs::file_size(path);
  }
  // Leave room for all but ~1.5 entries: exactly the two oldest must go.
  const auto entry_size = fs::file_size(paths[0]);
  Gc gc(root);
  const auto result = gc.collect({.max_bytes = total - entry_size * 3 / 2});

  EXPECT_EQ(result.scanned, 4u);
  EXPECT_EQ(result.evicted, 2u);
  EXPECT_FALSE(fs::exists(paths[0]));
  EXPECT_FALSE(fs::exists(paths[1]));
  EXPECT_TRUE(fs::exists(paths[2]));
  EXPECT_TRUE(fs::exists(paths[3]));
  EXPECT_LE(result.bytes_after, total - entry_size * 3 / 2);
}

TEST(StoreGc, MaxAgeEvictsOnlyStaleEntries) {
  const auto root = fresh_dir("gc_age");
  DiskStore disk(root);
  const auto paths = seed_entries(disk, root, 3);
  // Entries sit 24h in the past (minutes apart); a 48h horizon keeps all,
  // a 23h horizon drops all three.
  Gc gc(root);
  const auto none = gc.collect({.max_age = std::chrono::hours(48)});
  EXPECT_EQ(none.evicted, 0u);
  const auto all = gc.collect({.max_age = std::chrono::hours(23)});
  EXPECT_EQ(all.evicted, 3u);
  for (const auto& path : paths) {
    EXPECT_FALSE(fs::exists(path));
  }
}

TEST(StoreGc, ManifestListsSurvivorsAfterCollect) {
  const auto root = fresh_dir("gc_manifest");
  DiskStore disk(root);
  const auto paths = seed_entries(disk, root, 3);
  Gc gc(root);
  (void)gc.collect({.max_bytes = fs::file_size(paths[0]) * 2});
  ASSERT_TRUE(fs::exists(gc.manifest_path()));
  std::ifstream is(gc.manifest_path());
  std::string header;
  std::getline(is, header);
  EXPECT_NE(header.find("rlim-store-manifest"), std::string::npos);
  std::size_t lines = 0;
  for (std::string line; std::getline(is, line);) {
    ++lines;
  }
  // Survivors only (the two newest fit under the cap of two entry sizes).
  EXPECT_EQ(lines, 2u);
}

TEST(StoreGc, VerifyEvictsDamageAndKeepsHealth) {
  const auto root = fresh_dir("gc_verify");
  DiskStore disk(root);
  const auto paths = seed_entries(disk, root, 3);
  fs::resize_file(paths[1], 10);
  Gc gc(root);
  const auto result = gc.verify();
  EXPECT_EQ(result.scanned, 3u);
  EXPECT_EQ(result.ok, 2u);
  EXPECT_EQ(result.evicted_corrupt(), 1u);
  // A 10-byte stump cannot hold even the frame prefix: that is a
  // map-validation failure, not a hash mismatch or decode failure.
  EXPECT_EQ(result.evicted_map, 1u);
  EXPECT_EQ(result.evicted_hash, 0u);
  EXPECT_EQ(result.evicted_decode, 0u);
  EXPECT_GT(result.ok_bytes, 0u);
  EXPECT_EQ(result.evicted_bytes, 10u);
  EXPECT_FALSE(fs::exists(paths[1]));
  EXPECT_TRUE(fs::exists(paths[0]));
  EXPECT_TRUE(fs::exists(paths[2]));
}

TEST(StoreGc, VerifyDistinguishesHashMismatchFromMisframing) {
  const auto root = fresh_dir("gc_verify_classes");
  DiskStore disk(root);
  const auto paths = seed_entries(disk, root, 3);
  // paths[0]: flip a bit mid-frame — framing stays intact, the whole-frame
  // hash disagrees.
  {
    std::string bytes;
    std::ifstream is(paths[0], std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
    is.close();
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    std::ofstream os(paths[0], std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // paths[1]: replace with a foreign file — map validation fails at magic.
  {
    std::ofstream os(paths[1], std::ios::binary | std::ios::trunc);
    os << "this is not an rlim entry but it is long enough to read";
  }
  const auto result = Gc(root).verify();
  EXPECT_EQ(result.scanned, 3u);
  EXPECT_EQ(result.ok, 1u);
  EXPECT_EQ(result.evicted_hash, 1u);
  EXPECT_EQ(result.evicted_map, 1u);
  EXPECT_EQ(result.evicted_decode, 0u);
  EXPECT_EQ(result.evicted_corrupt(), 2u);
}

TEST(StoreGc, ClearRemovesEverything) {
  const auto root = fresh_dir("gc_clear");
  DiskStore disk(root);
  (void)seed_entries(disk, root, 3);
  Gc gc(root);
  EXPECT_EQ(gc.clear(), 3u);
  EXPECT_EQ(gc.scan().size(), 0u);
  EXPECT_EQ(gc.summarize().entries, 0u);
}

TEST(StoreGc, SummarizeCountsKinds) {
  const auto root = fresh_dir("gc_summary");
  DiskStore disk(root);
  const auto report = sample_report();
  ASSERT_TRUE(disk.store_rewrite(1, "a", sample_graph(), sample_stats()));
  ASSERT_TRUE(disk.store_program(1, "b", sample_graph(), sample_stats(),
                                 report));
  const auto summary = Gc(root).summarize();
  EXPECT_EQ(summary.entries, 2u);
  EXPECT_EQ(summary.rewrite_entries, 1u);
  EXPECT_EQ(summary.program_entries, 1u);
  EXPECT_EQ(summary.stale_version, 0u);
  EXPECT_EQ(summary.unreadable, 0u);
  EXPECT_GT(summary.bytes, 0u);
}

}  // namespace
}  // namespace rlim::store
