#include "plim/allocator.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "util/error.hpp"

namespace rlim::plim {

namespace {

/// Most recently freed first — maximizes reuse locality, and wear.
class LifoAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t) override { queue_.push_back(cell); }
  std::optional<Cell> pop() override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    const auto cell = queue_.back();
    queue_.pop_back();
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

private:
  std::deque<Cell> queue_;
};

/// Oldest freed first.
class FifoAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t) override { queue_.push_back(cell); }
  std::optional<Cell> pop() override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    const auto cell = queue_.front();
    queue_.pop_front();
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }

private:
  std::deque<Cell> queue_;
};

/// Cycle through free cells by index: the cursor follows the last allocation.
class RoundRobinAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t) override { by_index_.insert(cell); }
  std::optional<Cell> pop() override {
    if (by_index_.empty()) {
      return std::nullopt;
    }
    auto it = by_index_.lower_bound(cursor_);
    if (it == by_index_.end()) {
      it = by_index_.begin();  // wrap around
    }
    const auto cell = *it;
    by_index_.erase(it);
    cursor_ = cell + 1;
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return by_index_.size(); }

private:
  std::set<Cell> by_index_;
  Cell cursor_ = 0;
};

/// The paper's minimum write count strategy: least-written free cell first.
/// Counts cannot change while a cell is free, so the ordering captured at
/// push time stays valid without rebalancing.
class MinWriteAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t writes) override {
    by_writes_.emplace(writes, cell);
  }
  std::optional<Cell> pop() override {
    if (by_writes_.empty()) {
      return std::nullopt;
    }
    const auto cell = by_writes_.begin()->second;
    by_writes_.erase(by_writes_.begin());
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return by_writes_.size(); }

private:
  std::set<std::pair<std::uint64_t, Cell>> by_writes_;
};

/// Start-Gap-inspired rotation (Qureshi et al., MICRO 2009; modeled at the
/// memory level in core/startgap.hpp): allocations are served from a roving
/// start pointer that advances once every `interval` allocations — on a
/// fixed schedule, unlike round_robin's allocation-following cursor — so
/// reuse pressure slowly rotates across the whole cell array.
class StartGapAllocator final : public Allocator {
public:
  explicit StartGapAllocator(std::uint64_t interval) : interval_(interval) {}

  void push(Cell cell, std::uint64_t) override {
    max_cell_ = std::max(max_cell_, cell);
    free_.insert(cell);
  }

  std::optional<Cell> pop() override {
    if (free_.empty()) {
      return std::nullopt;
    }
    auto it = free_.lower_bound(start_);
    if (it == free_.end()) {
      it = free_.begin();  // wrap around
    }
    const auto cell = *it;
    free_.erase(it);
    if (++allocations_ % interval_ == 0) {
      ++start_;  // the gap roves one slot
      if (start_ > max_cell_) {
        start_ = 0;
      }
    }
    return cell;
  }

  [[nodiscard]] std::size_t size() const override { return free_.size(); }

private:
  std::uint64_t interval_;
  std::uint64_t allocations_ = 0;
  Cell start_ = 0;
  Cell max_cell_ = 0;
  std::set<Cell> free_;
};

}  // namespace

util::Registry<AllocatorFactory>& allocators() {
  static auto* registry = [] {
    auto* reg = new util::Registry<AllocatorFactory>("allocation policy");
    reg->add({"lifo", "most recently freed first (the naive baseline)", {}},
             [](const util::Params&) -> AllocatorPtr {
               return std::make_unique<LifoAllocator>();
             });
    reg->add({"fifo", "oldest freed first", {}},
             [](const util::Params&) -> AllocatorPtr {
               return std::make_unique<FifoAllocator>();
             });
    reg->add({"round_robin", "cycle through free cells by index", {}},
             [](const util::Params&) -> AllocatorPtr {
               return std::make_unique<RoundRobinAllocator>();
             });
    reg->add({"min_write",
              "the paper's minimum write count strategy: least-written free "
              "cell first",
              {}},
             [](const util::Params&) -> AllocatorPtr {
               return std::make_unique<MinWriteAllocator>();
             });
    reg->add({"start_gap",
              "Start-Gap-style rotation [8]: roving start pointer advances "
              "every `interval` allocations",
              {{"interval", "16", "allocations between start advances"}}},
             [](const util::Params& params) -> AllocatorPtr {
               const auto interval = util::param_u64(params, "interval");
               require(interval >= 1,
                       "allocation policy 'start_gap': interval must be >= 1");
               return std::make_unique<StartGapAllocator>(interval);
             });
    return reg;
  }();
  return *registry;
}

AllocatorPtr make_allocator(const util::PolicySpec& spec) {
  return allocators().make(spec);
}

CellAllocator::CellAllocator(AllocatorPtr policy,
                             std::optional<std::uint64_t> max_writes)
    : max_writes_(max_writes), free_list_(std::move(policy)) {
  require(free_list_ != nullptr, "CellAllocator: null allocation policy");
  if (max_writes_) {
    // The copy idioms need up to 3 writes on one fresh cell; smaller caps
    // would make compilation infeasible.
    require(*max_writes_ >= 3, "CellAllocator: max_writes must be at least 3");
  }
}

CellAllocator::~CellAllocator() = default;
CellAllocator::CellAllocator(CellAllocator&&) noexcept = default;
CellAllocator& CellAllocator::operator=(CellAllocator&&) noexcept = default;

Cell CellAllocator::add_live_cell() {
  const auto cell = static_cast<Cell>(writes_.size());
  writes_.push_back(0);
  quarantined_.push_back(false);
  return cell;
}

bool CellAllocator::has_headroom(Cell cell, std::uint64_t headroom) const {
  if (!max_writes_) {
    return true;
  }
  return writes_[cell] + headroom <= *max_writes_;
}

Cell CellAllocator::acquire(std::uint64_t headroom) {
  // Pop until a cell with sufficient headroom appears; set rejects aside and
  // restore them afterwards (free cells always satisfy headroom 1 by the
  // quarantine invariant, but multi-write idioms may need more).
  std::vector<Cell> rejected;
  std::optional<Cell> found;
  while (const auto cell = free_list_->pop()) {
    if (has_headroom(*cell, headroom)) {
      found = cell;
      break;
    }
    rejected.push_back(*cell);
  }
  for (const auto cell : rejected) {
    free_list_->push(cell, writes_[cell]);
  }
  if (found) {
    return *found;
  }
  return add_live_cell();  // grow the array (+1 to the paper's #R)
}

void CellAllocator::release(Cell cell) {
  require(cell < writes_.size(), "CellAllocator::release: unknown cell");
  if (quarantined_[cell]) {
    return;  // retired for good — the maximum write count strategy
  }
  free_list_->push(cell, writes_[cell]);
}

void CellAllocator::note_write(Cell cell) {
  require(cell < writes_.size(), "CellAllocator::note_write: unknown cell");
  ++writes_[cell];
  if (max_writes_ && writes_[cell] >= *max_writes_) {
    quarantined_[cell] = true;
  }
}

bool CellAllocator::writable(Cell cell) const {
  require(cell < writes_.size(), "CellAllocator::writable: unknown cell");
  return has_headroom(cell, 1);
}

std::uint64_t CellAllocator::write_count(Cell cell) const {
  require(cell < writes_.size(), "CellAllocator::write_count: unknown cell");
  return writes_[cell];
}

std::vector<std::uint64_t> CellAllocator::write_counts() const { return writes_; }

Cell CellAllocator::num_cells() const { return static_cast<Cell>(writes_.size()); }

std::size_t CellAllocator::free_count() const { return free_list_->size(); }

std::size_t CellAllocator::quarantined_count() const {
  std::size_t count = 0;
  for (const auto flag : quarantined_) {
    if (flag) {
      ++count;
    }
  }
  return count;
}

}  // namespace rlim::plim
