// Tests for the memory timing model and the partitioned L2 bus slave:
// the published 5/28/56-cycle transaction classes, partition isolation,
// atomic bypass, dirty write-back accounting.
#include <gtest/gtest.h>

#include "bus/request.hpp"
#include "mem/memory_timings.hpp"
#include "mem/partitioned_l2.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::mem {
namespace {

cache::CacheConfig tiny_partition() {
  return cache::CacheConfig{.size_bytes = 1024,
                            .line_bytes = 32,
                            .ways = 2,
                            .placement = cache::PlacementKind::kModulo,
                            .replacement = cache::ReplacementKind::kLru};
}

bus::BusRequest req_of(MasterId m, Addr addr,
                       MemOpKind kind = MemOpKind::kLoad) {
  bus::BusRequest r;
  r.master = m;
  r.addr = addr;
  r.kind = kind;
  return r;
}

// --- MemoryTimings -------------------------------------------------------------

TEST(MemoryTimings, PaperLatencyTable) {
  const MemoryTimings t;
  EXPECT_EQ(t.hold_for(AccessOutcome::kHit), 5u);
  EXPECT_EQ(t.hold_for(AccessOutcome::kMissClean), 28u);
  EXPECT_EQ(t.hold_for(AccessOutcome::kMissDirty), 56u);
  EXPECT_EQ(t.hold_for(AccessOutcome::kUncached), 56u);
  EXPECT_EQ(t.max_latency(), 56u);
}

TEST(MemoryTimings, ValidationRejectsInverted) {
  MemoryTimings t;
  t.l2_hit = 30;
  t.mem_access = 20;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// --- PartitionedL2: transaction classes -------------------------------------------

TEST(PartitionedL2, ReadHitIs5Cycles) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100), 0), 28u);  // cold miss
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100), 0), 5u);   // now a hit
  EXPECT_EQ(l2.stats(0).hits, 1u);
  EXPECT_EQ(l2.stats(0).misses_clean, 1u);
}

TEST(PartitionedL2, CleanMissIs28Cycles) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100), 0), 28u);
  EXPECT_EQ(l2.stats(0).memory_accesses, 1u);
}

TEST(PartitionedL2, DirtyEvictionIs56Cycles) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  // Fill set 0 of the 2-way partition with two STORES (dirty lines):
  // lines 0, 16 map to set 0 under modulo with 16 sets.
  (void)l2.begin_transaction(req_of(0, 0, MemOpKind::kStore), 0);
  (void)l2.begin_transaction(req_of(0, 16 * 32, MemOpKind::kStore), 0);
  // A third line in set 0 evicts a dirty victim: write-back + fetch = 56.
  EXPECT_EQ(l2.begin_transaction(req_of(0, 32 * 32), 0), 56u);
  EXPECT_EQ(l2.stats(0).misses_dirty, 1u);
  EXPECT_EQ(l2.stats(0).memory_accesses, 2u + 2u);  // 2 fills + wb + fetch
}

TEST(PartitionedL2, StoreMissAllocatesDirty) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100, MemOpKind::kStore), 0),
            28u);  // write-allocate fetch
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100, MemOpKind::kStore), 0),
            5u);  // write hit
}

TEST(PartitionedL2, AtomicAlwaysTwoMemoryAccesses) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100, MemOpKind::kAtomic), 0),
            56u);
  // Atomics bypass the cache: the line is NOT resident afterwards.
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100), 0), 28u);
  EXPECT_EQ(l2.stats(0).atomics, 1u);
}

TEST(PartitionedL2, HoldsWithinPublishedRange) {
  // Property: every possible transaction takes between 5 and 56 cycles
  // (the paper's published bounds and the MaxL upper bound).
  rng::RandBank bank(9);
  PartitionedL2 l2(2, tiny_partition(), MemoryTimings{}, bank);
  std::uint64_t state = 777;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ULL + 1;
    const Addr addr = static_cast<Addr>(state % 8192) * 4;
    const auto kind = static_cast<MemOpKind>(state % 3);
    const Cycle hold = l2.begin_transaction(req_of(0, addr, kind), 0);
    ASSERT_GE(hold, 5u);
    ASSERT_LE(hold, 56u);
  }
}

// --- partition isolation -------------------------------------------------------------

TEST(PartitionedL2, PartitionsAreIndependent) {
  rng::RandBank bank(1);
  PartitionedL2 l2(4, tiny_partition(), MemoryTimings{}, bank);
  (void)l2.begin_transaction(req_of(0, 0x100), 0);
  // Same address from another master: its own partition, so a cold miss.
  EXPECT_EQ(l2.begin_transaction(req_of(1, 0x100), 0), 28u);
  // And master 0 still hits.
  EXPECT_EQ(l2.begin_transaction(req_of(0, 0x100), 0), 5u);
}

TEST(PartitionedL2, MassiveTrafficFromOneMasterNeverEvictsAnother) {
  rng::RandBank bank(2);
  PartitionedL2 l2(2, tiny_partition(), MemoryTimings{}, bank);
  (void)l2.begin_transaction(req_of(1, 0x500), 0);  // master 1 resident line
  for (Addr a = 0; a < 64; ++a) {
    (void)l2.begin_transaction(req_of(0, a * 32), 0);  // thrash partition 0
  }
  EXPECT_EQ(l2.begin_transaction(req_of(1, 0x500), 0), 5u)
      << "partitioning must isolate storage interference";
}

// --- classify (read-only preview) -----------------------------------------------------

TEST(PartitionedL2, ClassifyDoesNotMutate) {
  rng::RandBank bank(4);
  PartitionedL2 l2(2, tiny_partition(), MemoryTimings{}, bank);
  EXPECT_EQ(l2.classify(req_of(0, 0x100)), AccessOutcome::kMissClean);
  EXPECT_EQ(l2.classify(req_of(0, 0x100)), AccessOutcome::kMissClean);
  (void)l2.begin_transaction(req_of(0, 0x100), 0);
  EXPECT_EQ(l2.classify(req_of(0, 0x100)), AccessOutcome::kHit);
  EXPECT_EQ(l2.classify(req_of(0, 0x100, MemOpKind::kAtomic)),
            AccessOutcome::kUncached);
}

TEST(PartitionedL2, StatsPerMaster) {
  rng::RandBank bank(5);
  PartitionedL2 l2(2, tiny_partition(), MemoryTimings{}, bank);
  (void)l2.begin_transaction(req_of(0, 0x100), 0);
  (void)l2.begin_transaction(req_of(0, 0x100), 0);
  EXPECT_EQ(l2.stats(0).transactions, 2u);
  EXPECT_EQ(l2.stats(1).transactions, 0u);
  EXPECT_THROW((void)l2.stats(9), std::invalid_argument);
}

// --- DRAM bank model -------------------------------------------------------------

TEST(Dram, RowHitFasterThanRowMiss) {
  DramModel dram(DramConfig{});
  const Cycle first = dram.access(0x1000);   // opens the row
  const Cycle second = dram.access(0x1004);  // same row
  EXPECT_EQ(first, 28u);
  EXPECT_EQ(second, 20u);
  EXPECT_EQ(dram.stats().row_hits, 1u);
  EXPECT_EQ(dram.stats().row_misses, 1u);
}

TEST(Dram, DifferentRowSameBankCloses) {
  DramConfig cfg;
  DramModel dram(cfg);
  (void)dram.access(0);  // row 0, bank 0
  // Same bank, different row: rows interleave across banks, so row index
  // must differ by `banks` to land on bank 0 again.
  const Addr same_bank_other_row = cfg.row_bytes * cfg.banks;
  EXPECT_EQ(dram.access(same_bank_other_row), cfg.row_miss);
}

TEST(Dram, BankInterleavingKeepsNeighbouringRowsOpen) {
  DramConfig cfg;
  DramModel dram(cfg);
  // Touch 4 consecutive rows (4 different banks), then revisit them all:
  // every revisit is a row hit.
  for (std::uint32_t r = 0; r < cfg.banks; ++r) {
    (void)dram.access(r * cfg.row_bytes);
  }
  for (std::uint32_t r = 0; r < cfg.banks; ++r) {
    EXPECT_EQ(dram.access(r * cfg.row_bytes + 64), cfg.row_hit);
  }
}

TEST(Dram, WorstCaseBoundsMaxL) {
  DramModel dram(DramConfig{});
  EXPECT_EQ(dram.worst_case(), 28u);
  std::uint64_t state = 1;
  for (int i = 0; i < 10'000; ++i) {
    state = state * 6364136223846793005ULL + 1;
    const Cycle latency = dram.access(static_cast<Addr>(state));
    ASSERT_LE(latency, dram.worst_case());
    ASSERT_GE(latency, DramConfig{}.row_hit);
  }
}

TEST(Dram, ConfigValidation) {
  DramConfig bad;
  bad.banks = 3;  // not a power of two
  EXPECT_THROW(DramModel{bad}, std::invalid_argument);
  bad = DramConfig{};
  bad.row_hit = 30;
  bad.row_miss = 20;
  EXPECT_THROW(DramModel{bad}, std::invalid_argument);
}

TEST(PartitionedL2WithDram, StreamingGetsRowHits) {
  rng::RandBank bank(6);
  PartitionedL2 l2(1, tiny_partition(), MemoryTimings{}, bank, DramConfig{});
  ASSERT_NE(l2.dram(), nullptr);
  // Sequential lines in one row: first miss opens the row (28), later
  // line fetches from the same row cost 20.
  const Cycle first = l2.begin_transaction(req_of(0, 0x0), 0);
  const Cycle second = l2.begin_transaction(req_of(0, 0x20), 0);
  EXPECT_EQ(first, 28u);
  EXPECT_EQ(second, 20u);
}

TEST(PartitionedL2WithDram, HoldsStayWithinMaxL) {
  rng::RandBank bank(7);
  PartitionedL2 l2(1, tiny_partition(), MemoryTimings{}, bank, DramConfig{});
  std::uint64_t state = 99;
  for (int i = 0; i < 3000; ++i) {
    state = state * 6364136223846793005ULL + 1;
    const Addr addr = static_cast<Addr>(state % (1u << 20)) & ~3u;
    const auto kind = static_cast<MemOpKind>(state % 3);
    const Cycle hold = l2.begin_transaction(req_of(0, addr, kind), 0);
    ASSERT_LE(hold, 56u) << "MaxL must still bound every transaction";
    ASSERT_GE(hold, 5u);
  }
}

TEST(PartitionedL2WithDram, RejectsBankModelExceedingFlatLatency) {
  rng::RandBank bank(8);
  DramConfig cfg;
  cfg.row_miss = 40;  // > mem_access = 28: MaxL would be stale
  EXPECT_THROW(
      PartitionedL2(1, tiny_partition(), MemoryTimings{}, bank, cfg),
      std::invalid_argument);
}

// --- split-protocol service through the real L2 -------------------------------------

TEST(PartitionedL2Split, HitResponse) {
  rng::RandBank bank(9);
  PartitionedL2 l2(1, tiny_partition(), MemoryTimings{}, bank);
  (void)l2.begin_transaction(req_of(0, 0x100), 0);  // warm the line
  const bus::SplitResponse r =
      l2.begin_split_transaction(req_of(0, 0x100), 0);
  EXPECT_FALSE(r.atomic_hold);
  // addr(1) + latency + beats == non-split hit hold (5).
  EXPECT_EQ(1 + r.latency + r.data_beats, 5u);
}

TEST(PartitionedL2Split, MissResponse) {
  rng::RandBank bank(10);
  PartitionedL2 l2(1, tiny_partition(), MemoryTimings{}, bank);
  const bus::SplitResponse r =
      l2.begin_split_transaction(req_of(0, 0x100), 0);
  EXPECT_EQ(1 + r.latency + r.data_beats, 28u);
}

TEST(PartitionedL2Split, AtomicResponseHoldsFullDuration) {
  rng::RandBank bank(11);
  PartitionedL2 l2(1, tiny_partition(), MemoryTimings{}, bank);
  const bus::SplitResponse r =
      l2.begin_split_transaction(req_of(0, 0x100, MemOpKind::kAtomic), 0);
  EXPECT_TRUE(r.atomic_hold);
  EXPECT_EQ(r.latency, 56u);
}

}  // namespace
}  // namespace cbus::mem
