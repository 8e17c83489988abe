// The slave side of the bus: a per-core-partitioned, write-back L2 backed
// by a memory controller (paper §IV-A). Partitioning means each master
// owns an independent L2 slice, so cores interfere only through *bus
// bandwidth* -- never through L2 capacity -- which isolates exactly the
// effect the paper studies.
//
// Serves both bus protocols: the paper's non-split bus (one hold time per
// transaction) and the split-transaction variant (address phase, off-bus
// service, data phase; atomics still hold the bus, §III-C). Memory
// latency is the paper's flat 28 cycles, or the optional open-page DRAM
// bank model.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bus/interfaces.hpp"
#include "bus/split_bus.hpp"
#include "cache/set_assoc_cache.hpp"
#include "common/types.hpp"
#include "mem/dram.hpp"
#include "mem/memory_timings.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::mem {

struct L2Stats {
  std::uint64_t transactions = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses_clean = 0;
  std::uint64_t misses_dirty = 0;
  std::uint64_t atomics = 0;
  std::uint64_t memory_accesses = 0;  ///< DRAM operations issued
};

class PartitionedL2 final : public bus::BusSlave, public bus::SplitSlave {
 public:
  /// One `partition_config`-shaped slice per master. Passing a DramConfig
  /// replaces the flat memory latency with the open-page bank model.
  PartitionedL2(std::uint32_t n_masters,
                const cache::CacheConfig& partition_config,
                const MemoryTimings& timings, rng::RandBank& bank,
                std::optional<DramConfig> dram = std::nullopt);

  // Non-split protocol (paper baseline).
  Cycle begin_transaction(const bus::BusRequest& request, Cycle now) override;

  // Split protocol (§III-C variant).
  bus::SplitResponse begin_split_transaction(const bus::BusRequest& request,
                                             Cycle now) override;

  /// Classify the outcome a request *would* have (no state change).
  [[nodiscard]] AccessOutcome classify(const bus::BusRequest& request) const;

  [[nodiscard]] const L2Stats& stats(MasterId master) const;
  [[nodiscard]] const cache::SetAssocCache& partition(MasterId master) const;
  [[nodiscard]] cache::SetAssocCache& partition(MasterId master);
  [[nodiscard]] const MemoryTimings& timings() const noexcept {
    return timings_;
  }
  /// The DRAM bank model, if enabled.
  [[nodiscard]] const DramModel* dram() const noexcept { return dram_.get(); }

 private:
  /// One memory access for `addr`: flat latency or bank-model latency.
  [[nodiscard]] Cycle memory_latency(Addr addr, MasterId master);

  /// Full service time of the request (cache update included); shared by
  /// both protocols.
  [[nodiscard]] Cycle service(const bus::BusRequest& request);

  MemoryTimings timings_;
  std::vector<std::unique_ptr<cache::SetAssocCache>> partitions_;
  std::vector<L2Stats> stats_;
  std::unique_ptr<DramModel> dram_;
};

}  // namespace cbus::mem
