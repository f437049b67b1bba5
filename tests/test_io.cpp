#include <gtest/gtest.h>

#include <sstream>

#include "mig/io.hpp"
#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::mig {
namespace {

Mig sample_graph() {
  Mig mig;
  const auto a = mig.create_pi("a");
  const auto b = mig.create_pi("b");
  const auto c = mig.create_pi("c");
  const auto g1 = mig.create_maj(a, !b, c);
  const auto g2 = mig.create_and(g1, a);
  mig.create_po(g2, "f");
  mig.create_po(!g1, "g");
  mig.create_po(Mig::get_constant(true), "one");
  return mig;
}

TEST(MigFormat, RoundTripPreservesEverything) {
  const auto mig = sample_graph();
  std::stringstream ss;
  write_mig(mig, ss);
  const auto back = read_mig(ss);
  EXPECT_EQ(back.num_pis(), mig.num_pis());
  EXPECT_EQ(back.num_pos(), mig.num_pos());
  EXPECT_EQ(back.num_gates(), mig.num_gates());
  EXPECT_EQ(back.pi_name(0), "a");
  EXPECT_EQ(back.po_name(1), "g");
  EXPECT_TRUE(equivalent_exhaustive(mig, back));
}

TEST(MigFormat, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto mig = test::random_mig(seed, 8, 60, 4).cleanup();
    std::stringstream ss;
    write_mig(mig, ss);
    const auto back = read_mig(ss);
    EXPECT_TRUE(equivalent_random(mig, back, 8, seed))
        << "seed " << seed;
  }
}

TEST(MigFormat, ForwardReferenceThrows) {
  std::stringstream ss(".mig 1 1 1\n.pi a\n.gate 6 2 0\n.po 4 f\n.end\n");
  EXPECT_THROW(read_mig(ss), Error);
}

TEST(MigFormat, MissingHeaderThrows) {
  std::stringstream ss(".pi a\n.end\n");
  EXPECT_THROW(read_mig(ss), Error);
}

TEST(MigFormat, UnknownDirectiveThrows) {
  std::stringstream ss(".mig 0 0 0\n.bogus\n.end\n");
  EXPECT_THROW(read_mig(ss), Error);
}

TEST(MigFormat, CountMismatchThrows) {
  std::stringstream ss(".mig 2 0 0\n.pi a\n.end\n");
  EXPECT_THROW(read_mig(ss), Error);
}

TEST(MigFormat, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# hello\n\n.mig 1 1 0\n.pi a\n# mid comment\n.po 2 f\n.end\n");
  const auto mig = read_mig(ss);
  EXPECT_EQ(mig.num_pis(), 1u);
  EXPECT_EQ(mig.num_pos(), 1u);
}

TEST(Blif, RoundTripPreservesFunction) {
  const auto mig = sample_graph();
  std::stringstream ss;
  write_blif(mig, ss, "sample");
  const auto back = read_blif(ss);
  EXPECT_EQ(back.num_pis(), mig.num_pis());
  EXPECT_EQ(back.num_pos(), mig.num_pos());
  EXPECT_TRUE(equivalent_exhaustive(mig, back));
}

TEST(Blif, MajorityCoversReadBackAsSingleGates) {
  Mig mig;
  const auto a = mig.create_pi("a");
  const auto b = mig.create_pi("b");
  const auto c = mig.create_pi("c");
  mig.create_po(mig.create_maj(a, !b, c), "f");
  std::stringstream ss;
  write_blif(mig, ss);
  const auto back = read_blif(ss);
  EXPECT_EQ(back.num_gates(), 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, back));
}

TEST(Blif, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const auto mig = test::random_mig(seed, 7, 40, 3).cleanup();
    std::stringstream ss;
    write_blif(mig, ss);
    const auto back = read_blif(ss);
    EXPECT_TRUE(equivalent_random(mig, back, 8, seed)) << "seed " << seed;
  }
}

TEST(Blif, ParsesOutOfOrderNames) {
  std::stringstream ss(
      ".model t\n.inputs a b\n.outputs f\n"
      ".names mid f\n1 1\n"     // uses `mid` before its definition
      ".names a b mid\n11 1\n"
      ".end\n");
  const auto mig = read_blif(ss);
  Mig expect;
  const auto a = expect.create_pi("a");
  const auto b = expect.create_pi("b");
  expect.create_po(expect.create_and(a, b), "f");
  EXPECT_TRUE(equivalent_exhaustive(mig, expect));
}

TEST(Blif, OffsetCoverSupported) {
  std::stringstream ss(
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a b f\n00 0\n01 0\n10 0\n"  // off-set: f = a AND b
      ".end\n");
  const auto mig = read_blif(ss);
  Mig expect;
  const auto a = expect.create_pi("a");
  const auto b = expect.create_pi("b");
  expect.create_po(expect.create_and(a, b), "f");
  EXPECT_TRUE(equivalent_exhaustive(mig, expect));
}

TEST(Blif, WildcardCubes) {
  std::stringstream ss(
      ".model t\n.inputs a b c\n.outputs f\n"
      ".names a b c f\n1-- 1\n-1- 1\n"  // f = a OR b
      ".end\n");
  const auto mig = read_blif(ss);
  Mig expect;
  const auto a = expect.create_pi("a");
  const auto b = expect.create_pi("b");
  expect.create_pi("c");
  expect.create_po(expect.create_or(a, b), "f");
  EXPECT_TRUE(equivalent_exhaustive(mig, expect));
}

TEST(Blif, ConstantCovers) {
  std::stringstream ss(
      ".model t\n.inputs a\n.outputs z o\n"
      ".names z\n"        // empty cover = constant 0
      ".names o\n1\n"     // constant 1
      ".end\n");
  const auto mig = read_blif(ss);
  std::vector<std::uint64_t> pis{0x1234};
  const auto out = simulate(mig, pis);
  EXPECT_EQ(out[0], 0ULL);
  EXPECT_EQ(out[1], ~0ULL);
}

TEST(Blif, LatchThrows) {
  std::stringstream ss(".model t\n.inputs a\n.outputs f\n.latch a f\n.end\n");
  EXPECT_THROW(read_blif(ss), Error);
}

TEST(Blif, WideCoverThrows) {
  std::stringstream ss(
      ".model t\n.inputs a b c d\n.outputs f\n.names a b c d f\n1111 1\n.end\n");
  EXPECT_THROW(read_blif(ss), Error);
}

TEST(Blif, CyclicNamesThrow) {
  std::stringstream ss(
      ".model t\n.inputs a\n.outputs f\n"
      ".names g f\n1 1\n.names f g\n1 1\n.end\n");
  EXPECT_THROW(read_blif(ss), Error);
}

TEST(Blif, UndefinedOutputThrows) {
  std::stringstream ss(".model t\n.inputs a\n.outputs nope\n.end\n");
  EXPECT_THROW(read_blif(ss), Error);
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(read_mig_file("/nonexistent/path.mig"), Error);
  EXPECT_THROW(read_blif_file("/nonexistent/path.blif"), Error);
}

TEST(Files, WriteReadTempFile) {
  const auto mig = sample_graph();
  const auto path = (test::scratch_dir() / "rlim_io_test.mig").string();
  write_mig_file(mig, path);
  const auto back = read_mig_file(path);
  EXPECT_TRUE(equivalent_exhaustive(mig, back));
}

}  // namespace
}  // namespace rlim::mig
