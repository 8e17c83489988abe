// Interfaces between the bus and its neighbours: masters (cores, DMA,
// virtual contenders), the slave side (L2 + memory), and the pluggable
// eligibility filter that CBA implements.
#pragma once

#include <cstdint>

#include "bus/request.hpp"
#include "common/types.hpp"

namespace cbus::bus {

/// Callbacks the bus invokes on the owner of a request.
class BusMaster {
 public:
  virtual ~BusMaster() = default;

  /// The request was granted; its transfer occupies [now, now + hold).
  virtual void on_grant(const BusRequest& request, Cycle now, Cycle hold) = 0;

  /// Arbitration latched the request at cycle `now`; the transfer starts
  /// next cycle. Between the latch and on_grant the master is neither
  /// pending nor holding, so it may legally raise a fresh request.
  /// Only the non-split bus calls it. Default no-op: only masters that
  /// mirror the bus's pending state care -- core::VirtualContender, whose
  /// pending bit ends here, and the batch credit engine's contender banks.
  virtual void on_latch(const BusRequest& /*request*/, Cycle /*now*/) {}

  /// The transfer finished at the end of cycle `now`; the master may use the
  /// result (e.g. load data) from cycle now + 1.
  virtual void on_complete(const BusRequest& request, Cycle now) = 0;
};

/// The slave side of the bus (in the modelled SoC: partitioned L2 backed by
/// the memory controller). Determines how long a transaction holds the bus.
class BusSlave {
 public:
  virtual ~BusSlave() = default;

  /// Transaction starts now; returns the total bus hold time in cycles
  /// (>= 1). State changes (cache fills, dirty evictions) happen here.
  virtual Cycle begin_transaction(const BusRequest& request, Cycle now) = 0;
};

/// The master-side port shared by every bus protocol (non-split and
/// split-transaction): raise requests, query request legality and pending
/// state, register completion callbacks. Cores, virtual contenders and
/// synthetic masters talk to this interface so the platform can swap the
/// bus protocol underneath them.
class BusPort {
 public:
  virtual ~BusPort() = default;

  /// Register the completion-callback target for a master id.
  virtual void connect_master(MasterId master, BusMaster& callbacks) = 0;

  /// Raise a request (preconditions per protocol; see can_request).
  virtual void request(const BusRequest& request, Cycle now) = 0;

  /// True if `master` may legally raise a request now.
  [[nodiscard]] virtual bool can_request(MasterId master) const = 0;

  /// True if the master has a raised-but-not-yet-granted request.
  [[nodiscard]] virtual bool has_pending(MasterId master) const = 0;
};

/// Passive observer of bus activity: request arrival, transfer start and
/// completion. Used by the transaction tracer and by custom instrumentation;
/// observers must not mutate bus state.
class BusObserver {
 public:
  virtual ~BusObserver() = default;
  virtual void on_request(const BusRequest& /*request*/, Cycle /*now*/) {}
  virtual void on_transfer_start(const BusRequest& /*request*/,
                                 Cycle /*start*/, Cycle /*hold*/) {}
  virtual void on_transfer_complete(const BusRequest& /*request*/,
                                    Cycle /*end*/) {}
};

/// Eligibility filter applied before arbitration (paper §III-A: "CBA acts as
/// a filter to determine the pending requests that are eligible to be
/// arbitrated"). The default filter passes everything through.
class EligibilityFilter {
 public:
  virtual ~EligibilityFilter() = default;

  /// Restrict `pending` (bit i == master i has a pending request) to the
  /// masters allowed to compete this cycle.
  [[nodiscard]] virtual std::uint32_t eligible(std::uint32_t pending,
                                               Cycle now) = 0;

  /// Called once per cycle with the master currently holding the bus
  /// (kNoMaster if the bus is idle or arbitrating). Credit bookkeeping
  /// lives here.
  virtual void on_cycle(MasterId holder, Cycle now) = 0;

  /// Burst charge for occupancy this filter's bus never saw: the
  /// segmented interconnect reports the cycles a LOCAL master's
  /// transaction occupied FOREIGN segments, so its home budget pays for
  /// the whole path. Default no-op (the single bus has no foreign
  /// occupancy).
  virtual void on_remote_occupancy(MasterId /*master*/,
                                   Cycle /*occupancy*/) {}

  // --- event horizon (see sim::Component::next_event) ------------------

  /// With the bus idle (on_cycle sees kNoMaster) from `now` on and none
  /// of `pending` eligible at `now`: the first cycle after `now` whose
  /// on_cycle can make one of them eligible. The default, now + 1, never
  /// lets the bus skip an idle arbitration.
  [[nodiscard]] virtual Cycle next_eligible(std::uint32_t /*pending*/,
                                            Cycle now) const {
    return now + 1;
  }

  /// The `cycles` on_cycle(holder, c) calls of c in [from, from + cycles),
  /// with the holder fixed throughout. The default makes them one by one.
  virtual void skip(MasterId holder, Cycle from, Cycle cycles) {
    for (Cycle c = from; c < from + cycles; ++c) on_cycle(holder, c);
  }
};

}  // namespace cbus::bus
