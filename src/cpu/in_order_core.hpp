// A pipelined in-order core model (LEON3-class, paper §IV-A).
//
// Timing abstraction: the pipeline retires one compute cycle per clock;
// memory operations go through the private data L1:
//
//   * load hit  -- 1 cycle, no bus traffic;
//   * load miss -- blocks the pipeline, issues an L2 read on the bus
//     (after draining buffered stores: write-through ordering), resumes the
//     cycle after completion;
//   * store     -- writes through: updates the L1 on hit (no write
//     allocate), retires into the store buffer (1 cycle) and drains to the
//     bus in FIFO order in the background; the core stalls only when the
//     buffer is full;
//   * atomic    -- drains the store buffer, then holds the bus for a
//     read+write memory pair (56 cycles), blocking.
//
// This is deliberately the simplest pipeline for which the paper's
// traffic classes exist: frequent short transactions (store write-through,
// L2 hits) and long transactions (L2 misses, dirty evictions, atomics).
#pragma once

#include <memory>
#include <optional>

#include "bus/interfaces.hpp"
#include "cache/set_assoc_cache.hpp"
#include "cache/store_buffer.hpp"
#include "cpu/core_config.hpp"
#include "cpu/op_stream.hpp"
#include "rng/rand_bank.hpp"
#include "sim/component.hpp"

namespace cbus::cpu {

class InOrderCore final : public sim::Component, public bus::BusMaster {
 public:
  InOrderCore(MasterId id, const CoreConfig& config, OpStream& stream,
              bus::BusPort& bus, rng::RandBank& bank);

  void tick(Cycle now) override;

  /// Event horizon: the end of a compute countdown (t + 1 +
  /// compute_remaining); t + 1 when a buffered store can go on the bus or
  /// the next op can run; kNever while a wait only a bus completion ends
  /// (an outstanding load or atomic, or a stall behind a store drain in
  /// flight) and once done.
  [[nodiscard]] Cycle next_event(Cycle now) const override;

  /// Count `cycles` cycles into `cycles` and into the compute, bus-stall
  /// or store-buffer-stall counter the current state ticks.
  void skip(Cycle from, Cycle cycles) override;

  void on_grant(const bus::BusRequest& request, Cycle now,
                Cycle hold) override;
  void on_complete(const bus::BusRequest& request, Cycle now) override;

  /// The stream is exhausted, the store buffer drained, nothing in flight.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Cycle at which done() became true.
  [[nodiscard]] Cycle finish_cycle() const noexcept { return finish_cycle_; }

  [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cache::SetAssocCache& dl1() const noexcept {
    return *dl1_;
  }
  [[nodiscard]] MasterId id() const noexcept { return id_; }

 private:
  enum class Wait : std::uint8_t { kNone, kLoad, kAtomic };

  /// Try to put the oldest buffered store on the bus.
  void drain_store_buffer(Cycle now);

  /// Fetch the next op from the stream into current_op_.
  void advance_stream();

  MasterId id_;
  CoreConfig config_;
  OpStream& stream_;
  bus::BusPort& bus_;
  std::unique_ptr<cache::SetAssocCache> dl1_;
  cache::StoreBuffer store_buffer_;

  std::optional<MemOp> current_op_;
  std::uint32_t compute_remaining_ = 0;
  Wait waiting_ = Wait::kNone;
  bool store_in_flight_ = false;  ///< the bus request in flight is a drain
  bool miss_recorded_ = false;    ///< current load already counted as a miss
  bool done_ = false;
  Cycle finish_cycle_ = 0;

  CoreStats stats_;
};

}  // namespace cbus::cpu
