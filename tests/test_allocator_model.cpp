// Randomized model-checking of CellAllocator: a straightforward reference
// model (linear scans, no incremental structures) must agree with the real
// allocator on every decision across long random operation sequences, for
// every policy and cap setting.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "plim/allocator.hpp"
#include "util/rng.hpp"

namespace rlim::plim {
namespace {

/// The reference model's own policy enumeration, independent of the
/// registry it is checked against.
enum class AllocPolicy { Lifo, Fifo, RoundRobin, MinWrite, StartGap };

/// Registry key of the policy the model mirrors.
std::string to_string(AllocPolicy policy) {
  switch (policy) {
    case AllocPolicy::Lifo: return "lifo";
    case AllocPolicy::Fifo: return "fifo";
    case AllocPolicy::RoundRobin: return "round_robin";
    case AllocPolicy::MinWrite: return "min_write";
    case AllocPolicy::StartGap: return "start_gap";
  }
  return "?";
}

/// start_gap's interval in both the model and the real policy: small, so
/// the start pointer roves (and wraps) many times in one sequence.
constexpr std::uint64_t kStartGapInterval = 3;

util::PolicySpec spec_of(AllocPolicy policy) {
  if (policy == AllocPolicy::StartGap) {
    return {"start_gap", {{"interval", std::to_string(kStartGapInterval)}}};
  }
  return {to_string(policy), {}};
}

/// Reference allocator: same contract, naive data structures.
class ModelAllocator {
public:
  ModelAllocator(AllocPolicy policy, std::optional<std::uint64_t> cap)
      : policy_(policy), cap_(cap) {}

  Cell add_live_cell() {
    writes_.push_back(0);
    return static_cast<Cell>(writes_.size() - 1);
  }

  Cell acquire(std::uint64_t headroom) {
    // Pop per policy, skipping cells with insufficient headroom (they stay).
    std::vector<Cell> rejected;
    std::optional<Cell> found;
    while (!free_order_.empty()) {
      const auto cell = pop_candidate();
      if (!cap_ || writes_[cell] + headroom <= *cap_) {
        found = cell;
        break;
      }
      rejected.push_back(cell);
    }
    for (const auto cell : rejected) {
      push_candidate(cell);
    }
    if (found) {
      return *found;
    }
    return add_live_cell();
  }

  void release(Cell cell) {
    if (cap_ && writes_[cell] >= *cap_) {
      return;  // quarantined
    }
    push_candidate(cell);
  }

  void note_write(Cell cell) { ++writes_[cell]; }

  [[nodiscard]] std::uint64_t write_count(Cell cell) const { return writes_[cell]; }
  [[nodiscard]] std::size_t num_cells() const { return writes_.size(); }
  [[nodiscard]] std::size_t free_count() const { return free_order_.size(); }

private:
  void push_candidate(Cell cell) {
    max_cell_ = std::max(max_cell_, cell);
    free_order_.push_back(cell);
  }

  /// Position of the smallest free cell >= `from`, else of the smallest.
  [[nodiscard]] std::size_t first_from(Cell from) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < free_order_.size(); ++i) {
      const auto candidate = free_order_[i];
      const bool candidate_ge = candidate >= from;
      const bool best_ge = best && free_order_[*best] >= from;
      if (!best) {
        best = i;
      } else if (candidate_ge != best_ge) {
        if (candidate_ge) {
          best = i;
        }
      } else if (candidate < free_order_[*best]) {
        best = i;
      }
    }
    return *best;
  }

  Cell pop_candidate() {
    std::size_t pick = 0;
    switch (policy_) {
      case AllocPolicy::Lifo:
        pick = free_order_.size() - 1;
        break;
      case AllocPolicy::Fifo:
        pick = 0;
        break;
      case AllocPolicy::RoundRobin:
        pick = first_from(cursor_);
        cursor_ = free_order_[pick] + 1;
        break;
      case AllocPolicy::StartGap:
        // Served from the roving start; every kStartGapInterval-th pop
        // moves the start one cell, wrapping past the highest cell seen.
        pick = first_from(start_);
        if (++allocations_ % kStartGapInterval == 0) {
          start_ = start_ + 1 > max_cell_ ? 0 : start_ + 1;
        }
        break;
      case AllocPolicy::MinWrite: {
        std::size_t best = 0;
        for (std::size_t i = 1; i < free_order_.size(); ++i) {
          const auto a = free_order_[i];
          const auto b = free_order_[best];
          if (writes_[a] < writes_[b] || (writes_[a] == writes_[b] && a < b)) {
            best = i;
          }
        }
        pick = best;
        break;
      }
    }
    const auto cell = free_order_[pick];
    free_order_.erase(free_order_.begin() + static_cast<long>(pick));
    return cell;
  }

  AllocPolicy policy_;
  std::optional<std::uint64_t> cap_;
  std::vector<std::uint64_t> writes_;
  std::deque<Cell> free_order_;
  Cell cursor_ = 0;
  Cell start_ = 0;
  Cell max_cell_ = 0;
  std::uint64_t allocations_ = 0;
};

class AllocatorModelCheck
    : public ::testing::TestWithParam<std::tuple<AllocPolicy, int, std::uint64_t>> {};

TEST_P(AllocatorModelCheck, AgreesWithReferenceOnRandomSequences) {
  const auto [policy, cap_value, seed] = GetParam();
  const std::optional<std::uint64_t> cap =
      cap_value == 0 ? std::nullopt : std::optional<std::uint64_t>(cap_value);

  CellAllocator real(make_allocator(spec_of(policy)), cap);
  ModelAllocator model(policy, cap);
  util::Xoshiro256 rng(seed);

  std::vector<Cell> in_use;
  for (int pi = 0; pi < 4; ++pi) {
    const auto a = real.add_live_cell();
    const auto b = model.add_live_cell();
    ASSERT_EQ(a, b);
    in_use.push_back(a);
  }

  for (int step = 0; step < 600; ++step) {
    const auto action = rng.below(100);
    if (action < 40 || in_use.empty()) {
      const auto headroom = 1 + rng.below(3);
      const auto a = real.acquire(headroom);
      const auto b = model.acquire(headroom);
      ASSERT_EQ(a, b) << "acquire mismatch at step " << step;
      in_use.push_back(a);
    } else if (action < 75) {
      const auto index = rng.below(in_use.size());
      const auto cell = in_use[index];
      if (real.writable(cell)) {
        real.note_write(cell);
        model.note_write(cell);
      }
    } else {
      const auto index = rng.below(in_use.size());
      const auto cell = in_use[index];
      in_use.erase(in_use.begin() + static_cast<long>(index));
      real.release(cell);
      model.release(cell);
    }
    ASSERT_EQ(real.num_cells(), model.num_cells()) << "step " << step;
    ASSERT_EQ(real.free_count(), model.free_count()) << "step " << step;
  }
  for (Cell cell = 0; cell < real.num_cells(); ++cell) {
    EXPECT_EQ(real.write_count(cell), model.write_count(cell));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesCapsSeeds, AllocatorModelCheck,
    ::testing::Combine(::testing::Values(AllocPolicy::Lifo, AllocPolicy::Fifo,
                                         AllocPolicy::RoundRobin,
                                         AllocPolicy::MinWrite,
                                         AllocPolicy::StartGap),
                       ::testing::Values(0, 5, 12),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_cap" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AllocatorModel, RoundRobinCursorPastLastFreeWord) {
  // The free cells sit in 64-cell words; a cursor in a later word (or past
  // every word the free set has touched) must wrap to the lowest free cell.
  CellAllocator real(make_allocator(spec_of(AllocPolicy::RoundRobin)),
                     std::nullopt);
  ModelAllocator model(AllocPolicy::RoundRobin, std::nullopt);
  for (int i = 0; i < 330; ++i) {
    ASSERT_EQ(real.acquire(1), model.acquire(1));
  }
  const auto release = [&](Cell cell) {
    real.release(cell);
    model.release(cell);
  };
  const auto acquire = [&] {
    const auto cell = real.acquire(1);
    EXPECT_EQ(cell, model.acquire(1));
    return cell;
  };
  release(319);
  release(3);
  EXPECT_EQ(acquire(), 3u);
  EXPECT_EQ(acquire(), 319u);  // cursor 320: beyond the bitset's last word
  release(200);
  release(1);
  EXPECT_EQ(acquire(), 1u);  // wraps
  EXPECT_EQ(acquire(), 200u);
  release(64);
  EXPECT_EQ(acquire(), 64u);  // cursor 201: later words exist but are empty
  EXPECT_EQ(real.free_count(), model.free_count());
}

}  // namespace
}  // namespace rlim::plim
