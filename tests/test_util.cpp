#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "test_helpers.hpp"
#include "util/codec.hpp"
#include "util/mmap_file.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/registry.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rlim::util {
namespace {

TEST(Stats, EmptyInputYieldsZeros) {
  const auto stats = compute_stats({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_DOUBLE_EQ(stats.stdev, 0.0);
}

TEST(Stats, SingleValue) {
  const std::vector<std::uint64_t> writes{7};
  const auto stats = compute_stats(writes);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.min, 7u);
  EXPECT_EQ(stats.max, 7u);
  EXPECT_DOUBLE_EQ(stats.mean, 7.0);
  EXPECT_DOUBLE_EQ(stats.stdev, 0.0);
}

TEST(Stats, KnownPopulationStdev) {
  // Population stdev of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
  const std::vector<std::uint64_t> writes{2, 4, 4, 4, 5, 5, 7, 9};
  const auto stats = compute_stats(writes);
  EXPECT_EQ(stats.min, 2u);
  EXPECT_EQ(stats.max, 9u);
  EXPECT_EQ(stats.total, 40u);
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_DOUBLE_EQ(stats.stdev, 2.0);
}

TEST(Stats, UniformDistributionHasZeroStdev) {
  const std::vector<std::uint64_t> writes(100, 13);
  EXPECT_DOUBLE_EQ(compute_stats(writes).stdev, 0.0);
}

TEST(Stats, ImprovementPercentMatchesPaperConvention) {
  // Paper Table I: naive 12.60 -> 6.09 is a 51.66% improvement.
  EXPECT_NEAR(improvement_percent(12.60, 6.09), 51.67, 0.01);
  // Worsening yields a negative improvement (paper: div -86.69%).
  EXPECT_LT(improvement_percent(121.98, 227.73), 0.0);
  EXPECT_DOUBLE_EQ(improvement_percent(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_percent(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(improvement_percent(10.0, 0.0), 100.0);
}

TEST(Stats, HistogramBucketsCoverRange) {
  const std::vector<std::uint64_t> writes{0, 1, 2, 3, 4, 5, 6, 7};
  const auto bins = histogram(writes, 4);
  ASSERT_EQ(bins.size(), 4u);
  for (const auto bin : bins) {
    EXPECT_EQ(bin, 2u);
  }
}

TEST(Stats, HistogramAllZeroWrites) {
  const std::vector<std::uint64_t> writes(10, 0);
  const auto bins = histogram(writes, 4);
  EXPECT_EQ(bins[0], 10u);
  EXPECT_EQ(bins[1] + bins[2] + bins[3], 0u);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t state = 0;
  const auto first = splitmix64(state);
  const auto second = splitmix64(state);
  EXPECT_NE(first, second);
}

TEST(Table, RendersHeaderAndRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fixed(12.6, 2), "12.60");
  EXPECT_EQ(Table::percent(86.65), "86.65%");
  EXPECT_EQ(Table::fixed(-0.5, 1), "-0.5");
}

TEST(Hash, Fnv1a64KnownVectors) {
  // Reference values of the canonical FNV-1a 64-bit function.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, IntegerUpdatesAreByteOrderIndependent) {
  // u32/u64 hash their little-endian byte sequences.
  EXPECT_EQ(Fnv1a64().u32(0x01020304u).digest(),
            Fnv1a64().bytes("\x04\x03\x02\x01", 4).digest());
  EXPECT_EQ(Fnv1a64().u64(0x0102030405060708ULL).digest(),
            Fnv1a64().bytes("\x08\x07\x06\x05\x04\x03\x02\x01", 8).digest());
}

TEST(Hash, StreamingMatchesOneShot) {
  EXPECT_EQ(Fnv1a64().str("foo").str("bar").digest(), fnv1a64("foobar"));
}

TEST(Error, RequirePassesAndThrows) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "boom"), Error);
  try {
    require(false, "specific message");
    FAIL();
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("specific message"), std::string::npos);
  }
}

TEST(Spec, CanonicalSortsParamsAndRoundTrips) {
  const PolicySpec spec{"start_gap", {{"interval", "8"}}};
  EXPECT_EQ(spec.canonical(), "start_gap:interval=8");
  EXPECT_EQ(PolicySpec::parse(spec.canonical()), spec);

  // std::map keeps parameters sorted whatever the input order.
  const auto multi = PolicySpec::parse("key:zeta=1:alpha=2");
  EXPECT_EQ(multi.canonical(), "key:alpha=2:zeta=1");
  EXPECT_EQ(PolicySpec::parse(multi.canonical()), multi);

  const auto bare = PolicySpec::parse("lifo");
  EXPECT_EQ(bare.key, "lifo");
  EXPECT_TRUE(bare.params.empty());
  EXPECT_EQ(bare.canonical(), "lifo");
}

TEST(Spec, ParseRejectsMalformedText) {
  EXPECT_THROW(static_cast<void>(PolicySpec::parse("")), Error);
  EXPECT_THROW(static_cast<void>(PolicySpec::parse("Bad-Key")), Error);
  EXPECT_THROW(static_cast<void>(PolicySpec::parse("key:paramonly")), Error);
  EXPECT_THROW(static_cast<void>(PolicySpec::parse("key:=value")), Error);
  EXPECT_THROW(static_cast<void>(PolicySpec::parse(":p=v")), Error);
  // Duplicate parameters are hard errors, mirroring the config grammar's
  // duplicate-clause check.
  EXPECT_THROW(static_cast<void>(PolicySpec::parse("key:p=1:p=2")), Error);
}

TEST(Spec, TypedParamAccessors) {
  const Params params{{"interval", "16"}, {"effort", "-2"}, {"bad", "12x"}};
  EXPECT_EQ(param_u64(params, "interval"), 16u);
  EXPECT_EQ(param_int(params, "effort"), -2);
  EXPECT_THROW(static_cast<void>(param_u64(params, "missing")), Error);
  EXPECT_THROW(static_cast<void>(param_u64(params, "bad")), Error);
  EXPECT_THROW(static_cast<void>(param_u64(params, "effort")), Error);
}

TEST(Registry, NormalizeFillsDefaultsAndRejectsUnknowns) {
  Registry<int (*)(const Params&)> registry("thing");
  registry.add({"alpha", "first", {{"knob", "7", "a knob"}}},
               [](const Params& params) {
                 return static_cast<int>(param_u64(params, "knob"));
               });
  const auto normalized = registry.normalize({"alpha", {}});
  EXPECT_EQ(normalized.canonical(), "alpha:knob=7");
  EXPECT_EQ(registry.make({"alpha", {{"knob", "9"}}}), 9);
  EXPECT_THROW(static_cast<void>(registry.normalize({"alpha", {{"x", "1"}}})),
               Error);
  EXPECT_THROW(static_cast<void>(registry.normalize({"beta", {}})), Error);
  EXPECT_THROW(registry.add({"alpha", "dup", {}}, nullptr), Error);
  EXPECT_THROW(registry.add({"Bad Key", "", {}}, nullptr), Error);
}

// ---- binary codec -----------------------------------------------------------

TEST(Codec, RoundTripsEveryFieldType) {
  ByteWriter out;
  out.u8(0xab)
      .u32(0xdeadbeef)
      .u64(0x0123456789abcdefULL)
      .f64(-3.25e-7)
      .str("hello\0world")  // embedded NUL stops here, as string literals do
      .str("")
      .raw("tail");
  ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.f64(), -3.25e-7);
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.remaining(), 4u);
}

TEST(Codec, EncodingIsLittleEndianBytes) {
  // The format is defined byte by byte, independent of the host: a reader
  // on any machine must see these exact bytes.
  ByteWriter out;
  out.u32(0x01020304);
  const auto& bytes = out.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(Codec, TruncatedReadsThrow) {
  ByteWriter out;
  out.u32(7);
  ByteReader in(out.bytes());
  EXPECT_THROW(static_cast<void>(in.u64()), Error);

  // A string whose length prefix promises more bytes than exist.
  ByteWriter lying;
  lying.u32(1000).raw("short");
  ByteReader liar(lying.bytes());
  EXPECT_THROW(static_cast<void>(liar.str()), Error);
}

TEST(Codec, ExpectEndRejectsTrailingBytes) {
  ByteWriter out;
  out.u8(1).u8(2);
  ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 1u);
  EXPECT_THROW(in.expect_end(), Error);
  EXPECT_EQ(in.u8(), 2u);
  in.expect_end();
  EXPECT_TRUE(in.exhausted());
}

TEST(Codec, BulkU32ArrayRoundTripsAndBoundsChecks) {
  const std::vector<std::uint32_t> values{0, 1, 0x01020304, 0xffffffffu};
  ByteWriter out;
  out.u32_array(values.data(), values.size());
  ASSERT_EQ(out.size(), 16u);
  // Bulk writes produce the same little-endian bytes as element writes.
  ByteWriter scalar;
  for (const auto v : values) scalar.u32(v);
  EXPECT_EQ(out.bytes(), scalar.bytes());

  std::vector<std::uint32_t> back(values.size());
  ByteReader in(out.bytes());
  in.u32_array(back.data(), back.size());
  EXPECT_EQ(back, values);
  in.expect_end();

  // Reading one element more than was written must throw, not over-read.
  ByteReader short_read(out.bytes());
  std::vector<std::uint32_t> too_many(values.size() + 1);
  EXPECT_THROW(short_read.u32_array(too_many.data(), too_many.size()), Error);
}

TEST(Codec, HostileArrayCountDoesNotOverflow) {
  // count * 4 would wrap in 32-bit (and even size_t) arithmetic if the
  // bounds check were written naively; the reader must reject it outright.
  ByteWriter out;
  out.u32(1).u32(2);
  ByteReader in(out.bytes());
  std::array<std::uint32_t, 1> sink{};
  EXPECT_THROW(
      in.u32_array(sink.data(), std::numeric_limits<std::size_t>::max() / 2),
      Error);
  // The failed bulk read consumed nothing.
  EXPECT_EQ(in.remaining(), 8u);
}

TEST(Codec, ViewAndStrViewAreZeroCopy) {
  ByteWriter out;
  out.str("payload").raw("xy");
  ByteReader in(out.bytes());
  const auto sv = in.str_view();
  EXPECT_EQ(sv, "payload");
  // The view aliases the writer's buffer — no copy was made.
  EXPECT_GE(sv.data(), out.bytes().data());
  EXPECT_LT(sv.data(), out.bytes().data() + out.bytes().size());
  EXPECT_EQ(in.view(2), "xy");
  EXPECT_THROW(static_cast<void>(in.view(1)), Error);
}

TEST(Codec, UnderflowErrorsReportWhatAndWhere) {
  ByteWriter out;
  out.u8(1);
  ByteReader in(out.bytes());
  in.skip(1);
  try {
    static_cast<void>(in.u64());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string_view what = e.what();
    EXPECT_NE(what.find("u64"), std::string_view::npos) << what;
    EXPECT_NE(what.find("8"), std::string_view::npos) << what;
  }
}

TEST(Codec, PatchU32BackfillsLengthPrefix) {
  ByteWriter out;
  out.u8(0xcc);
  const auto at = out.size();
  out.u32(0);  // placeholder
  out.raw("abcdef");
  out.patch_u32(at, static_cast<std::uint32_t>(out.size() - at - 4));
  ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xcc);
  EXPECT_EQ(in.u32(), 6u);
  EXPECT_EQ(in.view(6), "abcdef");
  // Patching outside the written range is a bug, not a silent resize.
  EXPECT_THROW(out.patch_u32(out.size() - 3, 0), Error);
}

TEST(Codec, RecycledWriterReusesCapacityAndStartsEmpty) {
  ByteWriter first;
  first.raw(std::string(4096, 'z'));
  auto storage = first.take();
  const auto* data = storage.data();
  ByteWriter second(std::move(storage));
  EXPECT_EQ(second.size(), 0u);
  second.u32(42);
  EXPECT_EQ(second.bytes().data(), data);  // same heap block, no realloc
}

TEST(MmapFileTest, MapsWholeFileAndCloses) {
  const auto path = test::scratch_dir() / "mmap_probe.bin";
  const std::string payload = "rlim mmap probe\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
  }
  MmapFile file;
  ASSERT_TRUE(file.open(path));
  EXPECT_TRUE(file.is_open());
  EXPECT_EQ(file.bytes(), payload);
  EXPECT_EQ(file.is_mapped(), MmapFile::mmap_enabled());
  file.close();
  EXPECT_FALSE(file.is_open());
  EXPECT_TRUE(file.bytes().empty());
}

TEST(MmapFileTest, MissingFileIsAMissNotAnError) {
  MmapFile file;
  EXPECT_FALSE(file.open(test::scratch_dir() / "does_not_exist.bin"));
  EXPECT_FALSE(file.is_open());
}

TEST(MmapFileTest, MoveTransfersTheView) {
  const auto path = test::scratch_dir() / "mmap_move.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "abc";
  }
  MmapFile a;
  ASSERT_TRUE(a.open(path));
  MmapFile b = std::move(a);
  EXPECT_FALSE(a.is_open());
  EXPECT_EQ(b.bytes(), "abc");
}

TEST(Codec, DoublesSurviveBitExactly) {
  for (const double value : {0.0, -0.0, 1.0 / 3.0, 6.02214076e23,
                             std::numeric_limits<double>::infinity()}) {
    ByteWriter out;
    out.f64(value);
    ByteReader in(out.bytes());
    const auto back = in.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value));
  }
}

}  // namespace
}  // namespace rlim::util
