// SyntheticMaster: a bus master issuing a fixed number of forced-hold
// requests separated by fixed think time. The direct embodiment of the
// paper's §II illustrative example ("one of them having 5-cycle requests
// and the other 45-cycle requests", "1,000 requests ... 6 cycles once
// granted"), free of cache noise so the measured numbers can be checked
// against the paper's closed-form arithmetic.
#pragma once

#include <cstdint>

#include "bus/interfaces.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::platform {

struct SyntheticMasterConfig {
  MasterId id = 0;
  Cycle hold = 5;            ///< bus occupancy per request
  std::uint64_t requests = 1000;  ///< 0 == unbounded (contender)
  std::uint32_t gap = 4;     ///< compute cycles between completion and next
  /// Idle cycles before the first request (e.g. to bank credit -- the
  /// history-dependence scenario of the budget-saturation ablation).
  std::uint32_t initial_delay = 0;
  /// With gap == 0, re-raise the next request in the same cycle the
  /// previous one completes (models a master that keeps REQ asserted,
  /// so it participates in the overlapped re-arbitration). Off by
  /// default: the one-cycle re-raise matches cores that need a cycle to
  /// turn the response around.
  bool instant_rerequest = false;
};

class SyntheticMaster final : public sim::Component, public bus::BusMaster {
 public:
  SyntheticMaster(const SyntheticMasterConfig& config, bus::BusPort& bus);

  void tick(Cycle now) override;
  /// The cycle that raises the next request once the gap has run out;
  /// kNever while a request is in flight (the bus completes it) or after
  /// the last one.
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Counts `cycles` gap cycles down, as that many ticks would.
  void skip(Cycle from, Cycle cycles) override;
  void on_grant(const bus::BusRequest& request, Cycle now,
                Cycle hold) override;
  void on_complete(const bus::BusRequest& request, Cycle now) override;

  /// All requests issued and completed.
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] Cycle finish_cycle() const noexcept { return finish_cycle_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  SyntheticMasterConfig config_;
  bus::BusPort& bus_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint32_t gap_remaining_;
  bool in_flight_ = false;
  bool done_ = false;
  Cycle finish_cycle_ = 0;
};

}  // namespace cbus::platform
