#include "plim/allocator.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <utility>

#include "util/error.hpp"

namespace rlim::plim {

namespace {

/// Most recently freed first — maximizes reuse locality, and wear.
class LifoAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t) override { stack_.push_back(cell); }
  std::optional<Cell> pop() override {
    if (stack_.empty()) {
      return std::nullopt;
    }
    const auto cell = stack_.back();
    stack_.pop_back();
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return stack_.size(); }

private:
  std::vector<Cell> stack_;
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

/// Free cells as a bitset searched circularly: `take_from(cursor)` removes
/// the first free cell at or after the cursor, else wraps to the first free
/// cell overall — the two index-ordered policies below.
class FreeBitset {
public:
  void insert(Cell cell) {
    const auto word = cell / 64;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    words_[word] |= 1ULL << (cell % 64);
    ++size_;
  }

  /// Requires a non-empty set.
  Cell take_from(Cell cursor) {
    auto cell = find_from(cursor);
    if (!cell) {
      cell = find_from(0);  // wrap around
    }
    words_[*cell / 64] &= ~(1ULL << (*cell % 64));
    --size_;
    return *cell;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

private:
  [[nodiscard]] std::optional<Cell> find_from(Cell cursor) const {
    auto word = static_cast<std::size_t>(cursor / 64);
    if (word >= words_.size()) {
      return std::nullopt;
    }
    auto bits = words_[word] & (~0ULL << (cursor % 64));
    while (bits == 0) {
      if (++word == words_.size()) {
        return std::nullopt;
      }
      bits = words_[word];
    }
    return static_cast<Cell>(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Cycle through free cells by index: the cursor follows the last allocation.
class RoundRobinAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t) override { free_.insert(cell); }
  std::optional<Cell> pop() override {
    if (free_.size() == 0) {
      return std::nullopt;
    }
    const auto cell = free_.take_from(cursor_);
    cursor_ = cell + 1;
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return free_.size(); }

private:
  FreeBitset free_;
  Cell cursor_ = 0;
};

/// The paper's minimum write count strategy: least-written free cell first,
/// ties to the lower index. A binary min-heap on (writes, cell); counts
/// cannot change while a cell is free, so the key captured at push time
/// stays valid without rebalancing.
class MinWriteAllocator final : public Allocator {
public:
  void push(Cell cell, std::uint64_t writes) override {
    heap_.emplace_back(writes, cell);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  std::optional<Cell> pop() override {
    if (heap_.empty()) {
      return std::nullopt;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto cell = heap_.back().second;
    heap_.pop_back();
    return cell;
  }
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }

private:
  std::vector<std::pair<std::uint64_t, Cell>> heap_;
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
    if (free_.size() == 0) {
      return std::nullopt;
    }
    const auto cell = free_.take_from(start_);
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
  FreeBitset free_;
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
  free_.push_back(false);
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
    free_[*found] = false;
    return *found;
  }
  return add_live_cell();  // grow the array (+1 to the paper's #R)
}

void CellAllocator::release(Cell cell) {
  require(cell < writes_.size(), "CellAllocator::release: unknown cell");
  require(!free_[cell], "CellAllocator::release: cell is already free");
  free_[cell] = true;
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
