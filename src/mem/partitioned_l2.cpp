#include "mem/partitioned_l2.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"

namespace cbus::mem {

PartitionedL2::PartitionedL2(std::uint32_t n_masters,
                             const cache::CacheConfig& partition_config,
                             const MemoryTimings& timings,
                             rng::RandBank& bank,
                             std::optional<DramConfig> dram)
    : timings_(timings), stats_(n_masters) {
  CBUS_EXPECTS(n_masters >= 1 && n_masters <= kMaxMasters);
  timings_.validate();
  partitions_.reserve(n_masters);
  for (MasterId m = 0; m < n_masters; ++m) {
    partitions_.push_back(std::make_unique<cache::SetAssocCache>(
        partition_config, bank, "l2.part" + std::to_string(m)));
  }
  if (dram.has_value()) {
    CBUS_EXPECTS_MSG(dram->row_miss <= timings_.mem_access,
                     "bank-model worst case must not exceed the flat memory "
                     "latency, or MaxL = 2 x mem_access stops being an "
                     "upper bound");
    dram_ = std::make_unique<DramModel>(*dram);
  }
}

Cycle PartitionedL2::memory_latency(Addr addr, MasterId master) {
  ++stats_[master].memory_accesses;
  return dram_ ? dram_->access(addr) : timings_.mem_access;
}

AccessOutcome PartitionedL2::classify(const bus::BusRequest& request) const {
  CBUS_EXPECTS(request.master < partitions_.size());
  if (request.kind == MemOpKind::kAtomic) return AccessOutcome::kUncached;
  const auto& part = *partitions_[request.master];
  if (part.probe(request.addr)) return AccessOutcome::kHit;
  // The victim (and hence its dirtiness) is only known when the replacement
  // decision is actually made; classify() answers conservatively with the
  // clean-miss class. Timing-accurate classification happens in service().
  return AccessOutcome::kMissClean;
}

Cycle PartitionedL2::service(const bus::BusRequest& request) {
  CBUS_EXPECTS(request.master < partitions_.size());
  auto& stats = stats_[request.master];
  ++stats.transactions;

  if (request.kind == MemOpKind::kAtomic) {
    // Atomics bypass the caches: one read + one write to memory; the bus
    // is held for both because atomic sequences cannot be split (SIII-C).
    ++stats.atomics;
    return memory_latency(request.addr, request.master) +
           memory_latency(request.addr, request.master);
  }

  auto& part = *partitions_[request.master];
  // Stores reaching L2 come from the write-through L1: they dirty the L2
  // line (the L2 is write-back towards memory). Loads fill clean lines.
  const bool is_store = request.kind == MemOpKind::kStore;
  const cache::AccessResult result =
      part.access(request.addr, /*allocate_on_miss=*/true,
                  /*mark_dirty=*/is_store);

  if (result.hit) {
    ++stats.hits;
    return timings_.l2_hit;
  }
  if (result.victim_valid && result.victim_dirty) {
    // Write the dirty victim back, then fetch the requested line.
    ++stats.misses_dirty;
    const Cycle writeback = memory_latency(
        result.victim_line * partitions_[request.master]->config().line_bytes,
        request.master);
    return writeback + memory_latency(request.addr, request.master);
  }
  ++stats.misses_clean;
  return memory_latency(request.addr, request.master);
}

Cycle PartitionedL2::begin_transaction(const bus::BusRequest& request,
                                       Cycle /*now*/) {
  return service(request);
}

bus::SplitResponse PartitionedL2::begin_split_transaction(
    const bus::BusRequest& request, Cycle /*now*/) {
  const Cycle total = service(request);
  bus::SplitResponse response;
  if (request.kind == MemOpKind::kAtomic) {
    response.atomic_hold = true;
    response.latency = total;  // bus held for the full read+write pair
    return response;
  }
  // Keep end-to-end service equal to the non-split hold: 1 address cycle
  // + off-bus latency + data beats == total.
  response.data_beats = std::min<Cycle>(timings_.split_data_beats,
                                        std::max<Cycle>(1, total - 1));
  response.latency = total - 1 - response.data_beats;
  return response;
}

const L2Stats& PartitionedL2::stats(MasterId master) const {
  CBUS_EXPECTS(master < stats_.size());
  return stats_[master];
}

const cache::SetAssocCache& PartitionedL2::partition(MasterId master) const {
  CBUS_EXPECTS(master < partitions_.size());
  return *partitions_[master];
}

cache::SetAssocCache& PartitionedL2::partition(MasterId master) {
  CBUS_EXPECTS(master < partitions_.size());
  return *partitions_[master];
}

}  // namespace cbus::mem
