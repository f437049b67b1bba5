#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "plim/instruction.hpp"
#include "util/registry.hpp"
#include "util/spec.hpp"

namespace rlim::plim {

/// Free-set discipline: orders dead cells for reuse. `push` receives the
/// cell's write count at release time; counts cannot change while a cell is
/// free, so ordering decisions made at push time stay valid. One instance
/// per compilation (factory-constructed); implementations may keep state.
///
/// A cell is pushed at most once while free: CellAllocator rejects a double
/// release, so a policy must not rely on deduplicating cells the way a
/// sorted set would. Every built-in ordering is total — by release order, or
/// by a key that ends in the unique cell index — so flat heaps and bitsets
/// pop in exactly the order a sorted set would.
class Allocator {
public:
  virtual ~Allocator() = default;

  virtual void push(Cell cell, std::uint64_t writes) = 0;
  virtual std::optional<Cell> pop() = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
};

using AllocatorPtr = std::unique_ptr<Allocator>;
using AllocatorFactory = std::function<AllocatorPtr(const util::Params&)>;

/// Registry of allocation policies — how the compiler picks a cell from the
/// free set when it requests one. Built-ins:
///   lifo         naive: most recently freed first (maximizes reuse
///                locality — and wear)
///   fifo         oldest freed first
///   round_robin  cycle through free cells by index
///   min_write    the paper's *minimum write count strategy*
///   start_gap    (parameter `interval`, default 16) a Start-Gap-style
///                rotating allocator — free cells are served from a roving
///                start pointer that advances on a fixed allocation schedule
///                (core/startgap.hpp models the memory-level original),
///                rotating reuse pressure across the array instead of
///                following the last allocation the way round_robin does
[[nodiscard]] util::Registry<AllocatorFactory>& allocators();

/// Normalizes `spec` against allocators() and constructs the policy object.
[[nodiscard]] AllocatorPtr make_allocator(const util::PolicySpec& spec);

/// Compile-time RRAM cell allocator with write accounting.
///
/// Implements both direct endurance-management techniques of the paper:
///  * **minimum write count strategy** — the `min_write` policy returns the
///    free cell with the smallest write count;
///  * **maximum write count strategy** — with `max_writes` set, a cell whose
///    write count reaches the cap is *quarantined*: it is never returned to
///    the free set and `writable()` rejects it as an in-place destination,
///    forcing the compiler to allocate fresh cells (area/latency cost).
///
/// The free-set ordering itself is delegated to a policy object (Allocator);
/// write counts are maintained by the compiler calling `note_write` once per
/// emitted instruction (writes are statically known — every RM3 writes its
/// destination exactly once).
class CellAllocator {
public:
  /// Factory-constructed policy. `max_writes` is the paper's cap W; below 3
  /// it is rejected with a clear error: the copy idioms need up to 3 writes
  /// on one fresh cell, so smaller caps make compilation infeasible.
  CellAllocator(AllocatorPtr policy, std::optional<std::uint64_t> max_writes);
  ~CellAllocator();
  CellAllocator(CellAllocator&&) noexcept;
  CellAllocator& operator=(CellAllocator&&) noexcept;
  CellAllocator(const CellAllocator&) = delete;
  CellAllocator& operator=(const CellAllocator&) = delete;

  /// Registers a pre-existing live cell (a primary input resident in the
  /// array). It starts in-use with zero writes.
  Cell add_live_cell();

  /// Returns a cell that can absorb at least `headroom` further writes,
  /// taking from the free set per policy or growing the array. `headroom`
  /// covers multi-write idioms (init + copy + destination = up to 3).
  Cell acquire(std::uint64_t headroom = 1);

  /// Returns a dead cell to the free set (quarantined cells are retired
  /// instead and never come back). Throws rlim::Error when the cell is
  /// already free or retired.
  void release(Cell cell);

  /// Accounts one write; quarantines the cell when it reaches the cap.
  void note_write(Cell cell);

  /// True when the cell can absorb one more write under the cap.
  [[nodiscard]] bool writable(Cell cell) const;

  [[nodiscard]] std::uint64_t write_count(Cell cell) const;
  /// Snapshot over the full cell space (the paper's write distribution).
  [[nodiscard]] std::vector<std::uint64_t> write_counts() const;

  /// Total cells ever allocated — the paper's #R.
  [[nodiscard]] Cell num_cells() const;
  [[nodiscard]] std::size_t free_count() const;
  [[nodiscard]] std::size_t quarantined_count() const;

private:
  [[nodiscard]] bool has_headroom(Cell cell, std::uint64_t headroom) const;

  std::optional<std::uint64_t> max_writes_;
  std::vector<std::uint64_t> writes_;
  std::vector<bool> quarantined_;
  std::vector<bool> free_;  ///< released (free or retired), not yet reacquired
  AllocatorPtr free_list_;
};

}  // namespace rlim::plim
