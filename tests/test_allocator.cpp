#include <gtest/gtest.h>

#include "plim/allocator.hpp"
#include "util/error.hpp"

namespace rlim::plim {
namespace {

/// A CellAllocator over the registered allocation policy `key`.
CellAllocator with_policy(const char* key,
                          std::optional<std::uint64_t> cap = std::nullopt) {
  return CellAllocator(make_allocator({key, {}}), cap);
}

TEST(Allocator, GrowsWhenFreeSetEmpty) {
  auto alloc = with_policy("lifo");
  EXPECT_EQ(alloc.acquire(), 0u);
  EXPECT_EQ(alloc.acquire(), 1u);
  EXPECT_EQ(alloc.num_cells(), 2u);
  EXPECT_EQ(alloc.free_count(), 0u);
}

TEST(Allocator, LifoReturnsMostRecentlyFreed) {
  auto alloc = with_policy("lifo");
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  const auto c = alloc.acquire();
  alloc.release(a);
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.acquire(), c);
  EXPECT_EQ(alloc.acquire(), b);
  EXPECT_EQ(alloc.acquire(), a);
}

TEST(Allocator, FifoReturnsOldestFreed) {
  auto alloc = with_policy("fifo");
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  alloc.release(b);
  alloc.release(a);
  EXPECT_EQ(alloc.acquire(), b);
  EXPECT_EQ(alloc.acquire(), a);
}

TEST(Allocator, RoundRobinCyclesThroughIndices) {
  auto alloc = with_policy("round_robin");
  const auto a = alloc.acquire();  // 0
  const auto b = alloc.acquire();  // 1
  const auto c = alloc.acquire();  // 2
  alloc.release(a);
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.acquire(), a);  // cursor at 0
  alloc.release(a);
  // Cursor moved past 0: next pick is 1, then 2, then wraps to 0.
  EXPECT_EQ(alloc.acquire(), b);
  EXPECT_EQ(alloc.acquire(), c);
  EXPECT_EQ(alloc.acquire(), a);
}

TEST(Allocator, MinWritePicksLeastWrittenCell) {
  auto alloc = with_policy("min_write");
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  const auto c = alloc.acquire();
  alloc.note_write(a);
  alloc.note_write(a);
  alloc.note_write(b);
  alloc.release(a);
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.acquire(), c);  // 0 writes
  EXPECT_EQ(alloc.acquire(), b);  // 1 write
  EXPECT_EQ(alloc.acquire(), a);  // 2 writes
}

TEST(Allocator, MinWriteTieBreaksDeterministically) {
  auto alloc = with_policy("min_write");
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  alloc.release(b);
  alloc.release(a);
  EXPECT_EQ(alloc.acquire(), a);  // equal writes → lower index
  EXPECT_EQ(alloc.acquire(), b);
}

TEST(Allocator, AddLiveCellStartsInUse) {
  auto alloc = with_policy("lifo");
  const auto pi = alloc.add_live_cell();
  EXPECT_EQ(alloc.num_cells(), 1u);
  EXPECT_EQ(alloc.free_count(), 0u);
  EXPECT_EQ(alloc.write_count(pi), 0u);
  alloc.release(pi);
  EXPECT_EQ(alloc.acquire(), pi);
}

TEST(Allocator, WriteAccounting) {
  auto alloc = with_policy("lifo");
  const auto a = alloc.acquire();
  alloc.note_write(a);
  alloc.note_write(a);
  EXPECT_EQ(alloc.write_count(a), 2u);
  EXPECT_EQ(alloc.write_counts(), (std::vector<std::uint64_t>{2}));
}

TEST(Allocator, CapBelowThreeThrows) {
  EXPECT_THROW(static_cast<void>(with_policy("lifo", 2)), Error);
  EXPECT_NO_THROW(static_cast<void>(with_policy("lifo", 3)));
}

TEST(Allocator, QuarantineAtCapRetiresCell) {
  auto alloc = with_policy("lifo", 3);
  const auto a = alloc.acquire();
  alloc.note_write(a);
  alloc.note_write(a);
  EXPECT_TRUE(alloc.writable(a));
  alloc.note_write(a);  // reaches cap 3
  EXPECT_FALSE(alloc.writable(a));
  EXPECT_EQ(alloc.quarantined_count(), 1u);
  alloc.release(a);  // retired, not freed
  EXPECT_EQ(alloc.free_count(), 0u);
  EXPECT_NE(alloc.acquire(), a);  // a never comes back
}

TEST(Allocator, HeadroomSkipsNearCapCells) {
  auto alloc = with_policy("min_write", 4);
  const auto a = alloc.acquire();
  alloc.note_write(a);
  alloc.note_write(a);  // 2 writes; headroom left = 2
  alloc.release(a);
  // Needs 3 writes: a (headroom 2) is skipped, a fresh cell appears...
  const auto b = alloc.acquire(3);
  EXPECT_NE(b, a);
  // ...but a stays in the free set for smaller requests.
  EXPECT_EQ(alloc.acquire(2), a);
}

TEST(Allocator, WritableWithoutCapAlwaysTrue) {
  auto alloc = with_policy("lifo");
  const auto a = alloc.acquire();
  for (int i = 0; i < 100; ++i) {
    alloc.note_write(a);
  }
  EXPECT_TRUE(alloc.writable(a));
  EXPECT_EQ(alloc.quarantined_count(), 0u);
}

TEST(Allocator, UnknownCellThrows) {
  auto alloc = with_policy("lifo");
  EXPECT_THROW(alloc.release(3), Error);
  EXPECT_THROW(alloc.note_write(3), Error);
  EXPECT_THROW(static_cast<void>(alloc.write_count(3)), Error);
  EXPECT_THROW(static_cast<void>(alloc.writable(3)), Error);
}

TEST(Allocator, PolicyNames) {
  // The registry keys are the canonical `alloc=` spellings inside config
  // keys, store entries, and CSV title lines.
  for (const char* key :
       {"lifo", "fifo", "round_robin", "min_write", "start_gap"}) {
    EXPECT_NE(allocators().find(key), nullptr) << key;
  }
}

TEST(Allocator, MoveSemantics) {
  auto alloc = with_policy("lifo");
  const auto a = alloc.acquire();
  alloc.note_write(a);
  CellAllocator moved = std::move(alloc);
  EXPECT_EQ(moved.write_count(a), 1u);
  EXPECT_EQ(moved.num_cells(), 1u);
}

// ---- quarantine under the rotating policies --------------------------------

TEST(Allocator, RoundRobinSkipsQuarantinedCellsMidRotation) {
  // Cap reached mid-rotation: the quarantined cell drops out of the cycle
  // while the rest keep rotating in index order.
  auto alloc = with_policy("round_robin", 3);
  const auto a = alloc.acquire();  // 0
  const auto b = alloc.acquire();  // 1
  const auto c = alloc.acquire();  // 2
  // b hits the cap while in use.
  alloc.note_write(b);
  alloc.note_write(b);
  alloc.note_write(b);
  EXPECT_FALSE(alloc.writable(b));
  alloc.release(a);
  alloc.release(b);  // retired — never re-enters the rotation
  alloc.release(c);
  EXPECT_EQ(alloc.free_count(), 2u);
  EXPECT_EQ(alloc.quarantined_count(), 1u);
  EXPECT_EQ(alloc.acquire(), a);
  EXPECT_EQ(alloc.acquire(), c);  // b skipped
  // Free set exhausted: the next acquire grows the array past b.
  const auto d = alloc.acquire();
  EXPECT_EQ(d, 3u);
  EXPECT_EQ(alloc.num_cells(), 4u);
}

TEST(Allocator, FifoDropsQuarantinedCellsFromTheQueue) {
  auto alloc = with_policy("fifo", 3);
  const auto a = alloc.acquire();
  const auto b = alloc.acquire();
  alloc.note_write(a);
  alloc.note_write(a);
  alloc.note_write(a);  // a saturates while in use
  alloc.release(a);     // retired
  alloc.release(b);
  EXPECT_EQ(alloc.free_count(), 1u);
  EXPECT_EQ(alloc.quarantined_count(), 1u);
  EXPECT_EQ(alloc.acquire(), b);  // oldest *surviving* entry
  const auto c = alloc.acquire();
  EXPECT_EQ(c, 2u);  // growth, not resurrection of a
}

// ---- the registry-only start_gap policy ------------------------------------

TEST(Allocator, StartGapServesFromRovingStart) {
  // interval=2: the start pointer advances after every 2nd allocation,
  // detaching the service order from the allocation stream (unlike
  // round-robin, whose cursor follows every allocation).
  CellAllocator alloc(make_allocator(util::PolicySpec{"start_gap",
                                                      {{"interval", "2"}}}),
                      std::nullopt);
  const auto a = alloc.acquire();  // 0
  const auto b = alloc.acquire();  // 1
  const auto c = alloc.acquire();  // 2
  alloc.release(a);
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.acquire(), a);  // start=0 → cell 0 (1st alloc)
  alloc.release(a);
  EXPECT_EQ(alloc.acquire(), a);  // still start=0 (2nd alloc) → start moves
  EXPECT_EQ(alloc.acquire(), b);  // start=1 → cell 1
  EXPECT_EQ(alloc.acquire(), c);
}

TEST(Allocator, StartGapIntervalMustBePositive) {
  EXPECT_THROW(
      static_cast<void>(make_allocator(
          util::PolicySpec{"start_gap", {{"interval", "0"}}})),
      Error);
}

TEST(Allocator, DoubleReleaseThrows) {
  // Every policy trusts that a free cell is pushed once; a second release
  // must fail loudly instead of deduplicating (a set) or handing the cell
  // out twice (a queue, heap or bitset).
  for (const auto* key :
       {"lifo", "fifo", "round_robin", "min_write", "start_gap"}) {
    auto alloc = with_policy(key, 4);
    const auto a = alloc.acquire();
    const auto b = alloc.acquire();
    alloc.release(a);
    EXPECT_THROW(alloc.release(a), Error) << key;
    EXPECT_EQ(alloc.free_count(), 1u) << key;
    EXPECT_EQ(alloc.acquire(), a) << key;
    alloc.release(a);  // free again after the reacquire
    // A retired (quarantined) cell counts as released too.
    for (int i = 0; i < 4; ++i) {
      alloc.note_write(b);
    }
    alloc.release(b);
    EXPECT_THROW(alloc.release(b), Error) << key;
    EXPECT_EQ(alloc.free_count(), 1u) << key;
  }
}

TEST(Allocator, NullPolicyRejected) {
  EXPECT_THROW(CellAllocator(AllocatorPtr{}, std::nullopt), Error);
}

}  // namespace
}  // namespace rlim::plim
