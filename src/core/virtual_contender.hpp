// WCET-estimation-mode contenders (paper §III-B/C, Table I).
//
// During analysis, cores 2..4 are replaced by request generators that
// produce the probabilistic worst-case contention for the task under
// analysis (TuA, master 0):
//
//  * REQi is forced: a contender always has a request "ready".
//  * A granted contender keeps the bus busy for MaxL (56) cycles.
//  * COMPi latches when the contender's budget is full (BUDGi == 228) AND
//    the TuA has a request pending (REQ1); it is reset when the contender
//    is granted. A contender competes -- i.e. actually raises its request
//    towards the arbiter -- only while COMPi is set. This makes contenders
//    greedy exactly when they can hurt the TuA, while never wasting budget
//    when the TuA is idle.
//
// The same class also models the *non-CBA* maximum-contention generator
// (always compete, no budget/COMP gating) used for the RP baseline, via
// ContenderPolicy.
//
// One VirtualContender component drives every contender of a machine. Per
// contender it keeps three bits -- COMP, pending, holding -- that its own
// requests and the bus callbacks keep current, so a tick raises the
// requests of `comp & ~pending & ~holding` with a few word operations and
// asks the bus nothing but the TuA's pending flag, and only while some
// latch is down. Pending ends where the interconnect ends it: at on_latch
// on the non-split bus (a contender may re-request in the cycle between
// the latch and its grant), at on_grant on the split bus and the
// segmented interconnect, which never call on_latch.
//
// Tick order: register the component after the cores and BEFORE the bus
// it drives (as Multicore does). A tick reads the budgets and the pending
// flags the bus left at the end of the previous cycle, and the horizon's
// closed forms count the credit updates from that order; with the bus
// ticked first the skipping run and the every-cycle reference would
// diverge. The order is a checked precondition: every bus callback must
// come in a cycle the component has already ticked.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "bus/interfaces.hpp"
#include "common/contracts.hpp"
#include "core/credit_state.hpp"
#include "sim/component.hpp"

namespace cbus::core {

enum class ContenderPolicy : std::uint8_t {
  /// Always have a request raised (baseline maximum contention, no CBA).
  kAlwaysCompete,
  /// Table I behaviour: compete only while the COMP latch is set.
  kCompLatch,
};

struct VirtualContenderConfig {
  MasterId self = 1;
  MasterId tua = 0;
  Cycle hold = 56;  ///< bus occupancy per grant (MaxL in WCET mode)
  ContenderPolicy policy = ContenderPolicy::kCompLatch;
  /// The slot this contender's BUDGi occupies in the CreditState it
  /// watches. kNoMaster means `self` -- the single-bus case; on a
  /// segmented interconnect each segment keeps its own credit state and
  /// the contender watches its LOCAL slot there.
  MasterId credit_slot = kNoMaster;
};

class VirtualContender final : public sim::Component, public bus::BusMaster {
 public:
  /// One contender of the component.
  struct Contender {
    VirtualContenderConfig config;
    /// The credit state holding its BUDGi (its home segment's); may be
    /// null only for kAlwaysCompete (no budget to watch).
    const CreditState* credits = nullptr;
  };

  /// `contenders`: at least one, in ascending `self` order (the order
  /// their requests are raised in a cycle), all against the same TuA.
  VirtualContender(std::span<const Contender> contenders, bus::BusPort& bus);

  void tick(Cycle now) override;

  /// Event horizon, the earliest over the contenders. With the latch up
  /// (or the policy always competing): t + 1 if the port is free, else
  /// kNever -- the bus's latch or completion frees it. With the latch
  /// down: the cycle whose tick first sees BUDGi saturated while the TuA
  /// is pending; kNever while the TuA is not pending, or while our own
  /// transfer holds the bus below the cap (a holder's budget cannot
  /// rise).
  [[nodiscard]] Cycle next_event(Cycle now) const override;

  /// Skipped ticks only re-assert the always-competing latches.
  void skip(Cycle from, Cycle cycles) override;

  void on_latch(const bus::BusRequest& request, Cycle now) override;
  void on_grant(const bus::BusRequest& request, Cycle now,
                Cycle hold) override;
  void on_complete(const bus::BusRequest& request, Cycle now) override;

  /// COMP latch of contender `m` (a master id this component drives).
  [[nodiscard]] bool comp(MasterId m) const { return (comp_ & bit(m)) != 0; }
  /// Grants contender `m` has received.
  [[nodiscard]] std::uint64_t grants(MasterId m) const {
    return grants_[checked(m)];
  }

 private:
  /// Per contender, indexed by master id.
  struct Slot {
    Cycle hold = 0;
    const CreditState* credits = nullptr;
    MasterId credit_slot = 0;
  };

  // The slow paths of tick and next_event, out of line so that their
  // common calls (nothing to latch or request, every port busy) need no
  // stack frame: both run after every executed cycle.
  [[gnu::noinline]] void latch_and_request(Cycle now);
  [[gnu::noinline]] Cycle latch_horizon(Cycle now) const;

  [[nodiscard]] std::uint32_t bit(MasterId m) const {
    return 1u << checked(m);
  }
  [[nodiscard]] MasterId checked(MasterId m) const;
  [[nodiscard]] bool saturated(MasterId m) const {
    return slots_[m].credits->saturated(slots_[m].credit_slot);
  }

  /// Throws unless the component ticked in cycle `now` (the contenders
  /// tick before their bus).
  void expect_ticked(Cycle now) const {
    CBUS_EXPECTS_MSG(now == ticked_,
                     "the contenders must tick before their bus: register "
                     "the component before the interconnect");
  }

  bus::BusPort& bus_;
  MasterId tua_;
  /// The cycle of the last tick (kNever before the first).
  Cycle ticked_ = kNever;
  std::uint32_t members_ = 0;  ///< every contender
  std::uint32_t always_ = 0;   ///< kAlwaysCompete contenders
  std::uint32_t latch_ = 0;    ///< kCompLatch contenders
  // The three Table-I bits plus `latched_`: arbitration consumed the
  // request (on_latch) and its grant is still to come.
  std::uint32_t comp_ = 0;
  std::uint32_t pending_ = 0;
  std::uint32_t holding_ = 0;
  std::uint32_t latched_ = 0;
  std::array<Slot, kMaxMasters> slots_{};
  std::array<std::uint64_t, kMaxMasters> grants_{};
};

}  // namespace cbus::core
