// Cross-module round-trip and regression pinning over the mini suite:
//  * every generator survives .mig and BLIF round trips;
//  * simulation signatures are pinned so accidental semantic changes to the
//    generators (which would silently invalidate EXPERIMENTS.md) fail CI;
//  * cleanup and rewriting keep the signatures.

#include <gtest/gtest.h>

#include <sstream>

#include "benchmarks/suite.hpp"
#include "mig/io.hpp"
#include "mig/simulate.hpp"
#include "pass/seq.hpp"

namespace rlim::bench {
namespace {

class SuiteRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SuiteRoundTrip, MigTextFormat) {
  const auto& spec = mini_suite()[static_cast<std::size_t>(GetParam())];
  const auto graph = spec.build().cleanup();
  std::stringstream stream;
  mig::write_mig(graph, stream);
  const auto back = mig::read_mig(stream);
  EXPECT_TRUE(mig::equivalent_random(graph, back, 8, 5)) << spec.name;
  EXPECT_EQ(back.num_gates(), graph.num_gates()) << spec.name;
}

TEST_P(SuiteRoundTrip, Blif) {
  const auto& spec = mini_suite()[static_cast<std::size_t>(GetParam())];
  const auto graph = spec.build().cleanup();
  std::stringstream stream;
  mig::write_blif(graph, stream, spec.name);
  const auto back = mig::read_blif(stream);
  EXPECT_TRUE(mig::equivalent_random(graph, back, 8, 6)) << spec.name;
}

TEST_P(SuiteRoundTrip, SignatureSurvivesCleanupAndRewriting) {
  const auto& spec = mini_suite()[static_cast<std::size_t>(GetParam())];
  const auto graph = spec.build();
  const auto reference = mig::simulation_signature(graph, 8, 0xC0FFEE);
  EXPECT_EQ(mig::simulation_signature(graph.cleanup(), 8, 0xC0FFEE), reference);
  for (const auto& flow : pass::kPaperFlows) {
    const auto rewritten = pass::make_rewrite(
        {std::string(flow.key), {{"effort", "3"}}})(graph, nullptr);
    EXPECT_EQ(mig::simulation_signature(rewritten, 8, 0xC0FFEE), reference)
        << spec.name << " / " << flow.key;
  }
}

TEST_P(SuiteRoundTrip, GeneratorsAreDeterministic) {
  const auto& spec = mini_suite()[static_cast<std::size_t>(GetParam())];
  const auto first = spec.build();
  const auto second = spec.build();
  EXPECT_EQ(first.num_gates(), second.num_gates());
  EXPECT_EQ(mig::simulation_signature(first, 4, 1),
            mig::simulation_signature(second, 4, 1));
}

INSTANTIATE_TEST_SUITE_P(MiniSuite, SuiteRoundTrip, ::testing::Range(0, 18),
                         [](const auto& info) {
                           auto name = mini_suite()[static_cast<std::size_t>(
                                           info.param)].name;
                           for (auto& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace rlim::bench
