#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mig/mig.hpp"
#include "plim/program.hpp"
#include "util/rng.hpp"

namespace rlim::test {

/// Scratch directory owned by the running test, named after its suite and
/// test name. CTest runs every test case as its own process, in parallel
/// under `ctest -j`, so a shared file name under ::testing::TempDir() races;
/// this one does not. Wiped on the first call of each test and created on
/// every call, so a test always starts empty and may call it repeatedly.
inline std::filesystem::path scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "rlim_" + std::string(info->test_suite_name()) + "." +
                     info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  static std::string wiped;  // the test whose directory was last wiped
  if (wiped != name) {
    std::filesystem::remove_all(dir);
    wiped = name;
  }
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic random MIG for property tests: `gates` is a target (strash
/// and trivial simplification can make the result smaller).
inline mig::Mig random_mig(std::uint64_t seed, std::uint32_t num_pis,
                           std::uint32_t target_gates, std::uint32_t num_pos) {
  util::Xoshiro256 rng(seed);
  mig::Mig graph;
  std::vector<mig::Signal> pool;
  for (std::uint32_t i = 0; i < num_pis; ++i) {
    pool.push_back(graph.create_pi());
  }
  std::uint32_t attempts = 0;
  while (graph.num_gates() < target_gates && attempts < 8 * target_gates + 64) {
    ++attempts;
    auto pick = [&] {
      auto s = pool[rng.below(pool.size())];
      return s ^ rng.chance(2, 5);
    };
    auto a = pick();
    auto b = pick();
    auto c = rng.chance(1, 10) ? mig::Mig::get_constant(rng.chance(1, 2)) : pick();
    const auto out = graph.create_maj(a, b, c);
    if (!out.is_constant()) {
      pool.push_back(out);
    }
  }
  for (std::uint32_t i = 0; i < num_pos; ++i) {
    // Bias POs toward recently created (deep) signals.
    const auto idx = pool.size() - 1 - rng.below((pool.size() + 3) / 4);
    graph.create_po(pool[idx] ^ rng.chance(1, 4));
  }
  return graph;
}

/// Deterministic random straight-line program over `num_cells` cells:
/// operands are constants one time in five, PIs and POs bound to random
/// cells. Not a compiled function of anything — for differential tests of
/// the execution paths.
inline plim::Program random_program(std::uint64_t seed, plim::Cell num_cells,
                                    std::size_t length, std::uint32_t num_pis,
                                    std::uint32_t num_pos) {
  util::Xoshiro256 rng(seed);
  const auto cell = [&] { return static_cast<plim::Cell>(rng.below(num_cells)); };
  const auto operand = [&] {
    return rng.chance(1, 5) ? plim::Operand::constant(rng.chance(1, 2))
                            : plim::Operand::cell(cell());
  };
  plim::Program program;
  for (std::uint32_t i = 0; i < num_pis; ++i) {
    program.bind_pi(cell());
  }
  for (std::size_t i = 0; i < length; ++i) {
    const auto a = operand();
    const auto b = operand();
    program.append(plim::Instruction{a, b, cell()});
  }
  for (std::uint32_t i = 0; i < num_pos; ++i) {
    program.bind_po(cell());
  }
  program.set_num_cells(num_cells);
  return program;
}

}  // namespace rlim::test
