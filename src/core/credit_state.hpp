// The per-master budget counters (BUDGi of Table I) and their update rules.
//
// Every cycle each counter gains increment[i] units, saturating at its cap;
// the master holding the bus additionally pays `scale` units in the same
// cycle (net -(scale - increment) while holding, the paper's "-4" with the
// "+1" folded in). A master is eligible when its budget has reached the
// threshold -- which guarantees it can pay for any transaction up to MaxL
// without the counter underflowing. If a transaction exceeds MaxL (a
// mis-configured upper bound, explored by the MaxL ablation), the counter
// clamps at zero like its hardware counterpart and the event is counted.
//
// Representation: each counter is a token bucket (rate = increment, depth =
// cap) stored as its level when it was last settled plus the tick count it
// is settled through. The state keeps one tick count and the holder of the
// ticks since the last holder change, so tick() and advance() only compare
// the holder and add to the count. A slot's unsettled ticks are charge
// ticks if it is the holder and recovery ticks otherwise; every read
// applies the closed form of those ticks to the stored level and writes
// nothing, so reads stay const.
//
// Settle points (the only writes to a slot's stored level):
//  * a holder change settles the outgoing and the incoming holder before
//    the new ticks count;
//  * charge, set_budget and set_increment settle the slot they write, and
//    reset the whole state, before writing.
// underflow_clamps() adds the holder's unsettled clamped ticks to the
// settled count.
//
// Lane views: a state over a CreditLaneView keeps its levels in the arena.
// The batch credit engine updates those words itself and never calls
// tick() or advance() on its lanes' states, so their tick count stays 0
// and every read returns the arena word the engine wrote.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "core/cba_config.hpp"

namespace cbus::core {

/// A strided window into a CreditSoA arena: slot i of this lane lives at
/// values[i * stride] (and its recovery increment at incs[i * stride]).
/// The COUNTER-MAJOR layout puts slot i of consecutive lanes at
/// consecutive addresses (stride == padded lane count), so the batch
/// credit engine updates one slot across every lane as one vertical
/// row operation; a CreditState over the view reads and writes the
/// very same words scalar-wise, which is what keeps the engine and
/// classic paths bit-identical by construction.
struct CreditLaneView {
  std::uint64_t* values = nullptr;
  std::uint64_t* incs = nullptr;
  std::size_t stride = 0;  ///< elements between consecutive slots
  std::size_t slots = 0;   ///< slots visible through this view

  [[nodiscard]] bool empty() const noexcept { return values == nullptr; }

  /// Slots [offset, offset + n) as their own view (the segmented
  /// interconnect carves one lane into per-segment credit states).
  [[nodiscard]] CreditLaneView subview(std::size_t offset,
                                       std::size_t n) const {
    CBUS_EXPECTS(offset + n <= slots);
    return CreditLaneView{values + offset * stride, incs + offset * stride,
                          stride, n};
  }
};

class CreditState {
 public:
  explicit CreditState(CbaConfig config);

  /// Counters live in caller-provided storage -- one lane of the
  /// counter-major CreditSoA arena used by batched campaigns -- instead
  /// of an own allocation. The view must outlive this object and span at
  /// least n_masters slots; behaviour is identical to the owning
  /// constructor.
  CreditState(CbaConfig config, const CreditLaneView& view);

  CreditState(const CreditState&) = delete;
  CreditState& operator=(const CreditState&) = delete;
  CreditState(CreditState&&) = default;
  CreditState& operator=(CreditState&&) = default;

  /// One clock edge: recovery for everyone, occupancy charge for `holder`
  /// (pass kNoMaster when the bus is idle or arbitrating).
  void tick(MasterId holder) { advance(holder, 1); }

  /// `cycles` consecutive tick(holder) calls (the quiescence
  /// fast-forward): a non-holder ends at min(v + cycles * increment, cap);
  /// the holder pays its net charge (scale - increment) per cycle until the
  /// counter can no longer pay, and every cycle after that clamps at zero
  /// and is counted, exactly as the per-cycle update counts it. O(1): the
  /// ticks are settled when a slot is read or written.
  void advance(MasterId holder, Cycle cycles) {
    if (holder != holder_) change_holder(holder);
    ticks_ += cycles;
  }

  /// Holder-free ticks until some master in `mask` is eligible: 0 if one
  /// already is, kNever if none ever can be.
  [[nodiscard]] Cycle ticks_to_eligible(std::uint32_t mask) const;

  /// Holder-free ticks until master m's counter sits at its cap: 0 if it
  /// already does, kNever if it never can.
  [[nodiscard]] Cycle ticks_to_saturation(MasterId m) const;

  /// Burst debit of `occupancy` cycles against master m's budget (at
  /// `scale` units per cycle), clamping at zero like the hardware
  /// counter and counting the clamp. Used by the segmented interconnect
  /// to charge a master's HOME budget for the cycles its transaction
  /// occupied foreign segments, so the Table-I equation
  /// budget = initial + increment*t - scale*total_path_occupancy keeps
  /// holding per master across contention points.
  void charge(MasterId m, Cycle occupancy);

  /// Budget of master m, in scaled units.
  [[nodiscard]] std::uint64_t budget(MasterId m) const;

  /// Budget of master m, in cycles of credit (units / scale).
  [[nodiscard]] double budget_cycles(MasterId m) const;

  /// True iff master m's budget has reached its eligibility threshold.
  /// Inline: the bus consults eligibility on every arbitration, which in
  /// a batched campaign happens millions of times per second.
  [[nodiscard]] bool eligible(MasterId m) const {
    CBUS_EXPECTS(m < config_.n_masters);
    return current(m) >= config_.threshold[m];
  }

  /// Restrict a pending mask to eligible masters.
  [[nodiscard]] std::uint32_t eligible_mask(std::uint32_t pending) const {
    std::uint32_t mask = 0;
    for (std::uint32_t p = pending & slots_mask_; p != 0; p &= p - 1) {
      const auto m = static_cast<MasterId>(std::countr_zero(p));
      if (current(m) >= config_.threshold[m]) mask |= 1u << m;
    }
    return mask;
  }

  /// True iff the counter is at its saturation cap (Table I's BUDGi == 228).
  /// Inline: the Table-I contenders test it on every tick the TuA is
  /// pending with a latch down.
  [[nodiscard]] bool saturated(MasterId m) const {
    CBUS_EXPECTS(m < config_.n_masters);
    return current(m) == config_.saturation[m];
  }

  /// Force a budget value (WCET mode zeroes the TuA's budget at run start).
  void set_budget(MasterId m, std::uint64_t units);

  /// Retune master m's Table-I recovery increment (ctrl feedback loop).
  /// Takes effect from the next tick; the budget counter is untouched.
  /// Requires 1 <= units <= scale (a zero increment would strand the
  /// master below threshold forever).
  void set_increment(MasterId m, std::uint64_t units);

  /// Restore every counter to its configured initial value.
  void reset();

  /// Attribute one clamped cycle of master m to this state. The batch
  /// credit engine performs the Table-I update vertically in the SoA
  /// arena and routes the (cold) clamp events back here, so
  /// underflow_clamps() counts identically on both paths.
  void note_clamp(MasterId m) {
    CBUS_EXPECTS(m < config_.n_masters);
    ++underflow_clamps_;
    ++underflows_by_master_[m];
  }

  /// Cycles on which a holder's counter could not pay the full occupancy
  /// charge and clamped at zero (only possible when MaxL is under-estimated
  /// or the threshold is configured below the worst-case cost).
  [[nodiscard]] std::uint64_t underflow_clamps() const noexcept {
    return underflow_clamps_ + unsettled_clamps();
  }

  /// Per-master share of underflow_clamps() (same unit: clamped cycles).
  /// Lets observability attribute each clamp to the master whose counter
  /// bottomed out; the sum over masters equals the global count.
  [[nodiscard]] std::uint64_t underflow_clamps(MasterId m) const {
    CBUS_EXPECTS(m < config_.n_masters);
    return underflows_by_master_[m] + (m == holder_ ? unsettled_clamps() : 0);
  }

  [[nodiscard]] const CbaConfig& config() const noexcept { return config_; }

 private:
  /// A holder's level after `ticks` charge ticks, and the ticks of those
  /// that clamped.
  struct Paid {
    std::uint64_t value;
    Cycle clamped;
  };

  [[nodiscard]] std::uint64_t& value(MasterId m) noexcept {
    return values_[static_cast<std::size_t>(m) * stride_];
  }
  [[nodiscard]] std::uint64_t value(MasterId m) const noexcept {
    return values_[static_cast<std::size_t>(m) * stride_];
  }

  // Division-free closed forms: each compares a product with the distance
  // to the bound. A product that overflows 64 bits (a jump to an
  // unbounded budget's end) is past any bound.

  /// Slot m's level after `ticks` recovery ticks: k steps of
  /// min(v + inc, cap) are min(v + k * inc, cap).
  [[nodiscard]] std::uint64_t recovered(MasterId m,
                                        Cycle ticks) const noexcept {
    const std::uint64_t v = value(m);
    const std::uint64_t cap = config_.saturation[m];
    std::uint64_t units = 0;
    return v >= cap ||
                   __builtin_mul_overflow(ticks, config_.increment[m],
                                          &units) ||
                   units >= cap - v
               ? cap
               : v + units;
  }

  /// Slot m's level after `ticks` charge ticks. The holder's counter never
  /// exceeds its cap and increment <= scale, so each tick subtracts
  /// net = scale - inc while v >= net and clamps to zero (counted) from the
  /// first tick it cannot pay -- after which every tick clamps again.
  [[nodiscard]] Paid paid(MasterId m, Cycle ticks) const noexcept {
    const std::uint64_t v = value(m);
    const std::uint64_t net = config_.scale - config_.increment[m];
    std::uint64_t units = 0;
    if (!__builtin_mul_overflow(ticks, net, &units) && units <= v) {
      return {v - units, 0};
    }
    // The budget runs dry inside the ticks (only with MaxL
    // under-estimated): the first v / net ticks pay (net > 0 here, as
    // units > v >= 0), the rest clamp.
    return {0, ticks - v / net};
  }

  /// Slot m's current level: its stored level plus its unsettled ticks.
  [[nodiscard]] std::uint64_t current(MasterId m) const noexcept {
    const Cycle ticks = ticks_ - synced_[m];
    return m == holder_ ? paid(m, ticks).value : recovered(m, ticks);
  }

  /// The holder's clamped ticks not yet in underflow_clamps_.
  [[nodiscard]] Cycle unsettled_clamps() const noexcept {
    return holder_ < config_.n_masters
               ? paid(holder_, ticks_ - synced_[holder_]).clamped
               : 0;
  }

  /// Point the state at its stored levels and set them to the initial
  /// budgets (both constructors).
  void attach(std::uint64_t* values, std::uint64_t* incs, std::size_t stride);
  /// Fold slot m's unsettled ticks into its stored level (and the clamp
  /// counts); a no-op for a slot id outside the state (kNoMaster).
  void settle(MasterId m);
  /// Settle the outgoing and the incoming holder, then switch.
  void change_holder(MasterId holder);

  CbaConfig config_;
  /// Backing store when self-owned (empty in the SoA-view case). A vector
  /// move keeps its heap buffer, so `values_` survives moves either way.
  std::vector<std::uint64_t> owned_;
  /// The stored levels: `owned_` (stride 1) or a CreditSoA lane view.
  std::uint64_t* values_ = nullptr;
  /// Arena mirror of config_.increment (view mode; null when owned).
  /// set_increment writes through so the engine's vertical tick reads
  /// the retuned rate the same cycle a scalar tick would.
  std::uint64_t* incs_ = nullptr;
  std::size_t stride_ = 1;
  /// Ticks since construction, and per slot the tick count its stored
  /// level is settled through.
  Cycle ticks_ = 0;
  std::vector<Cycle> synced_;
  /// The holder of every tick since the last holder change.
  MasterId holder_ = kNoMaster;
  /// One bit per slot: the masters eligible_mask looks at.
  std::uint32_t slots_mask_ = 0;
  std::uint64_t underflow_clamps_ = 0;
  /// Per-master clamp attribution, settled ticks only.
  std::vector<std::uint64_t> underflows_by_master_;
};

/// Counter-major credit storage for a batch of replicas: slot m of lane l
/// lives at row(m)[l], with the lane count padded to vec::kLaneAlign so
/// one slot's counters across all lanes form a contiguous, vector-width
/// row. The batch credit engine ticks whole rows vertically; the classic
/// path hands lane(l) (a strided CreditLaneView) to each replica's
/// CreditState/CreditFilter and runs exactly the scalar update it always
/// has -- over the same words. The arena must outlive its users.
class CreditSoA {
 public:
  /// `slots_per_lane` widens a lane beyond n_masters counters -- the
  /// segmented interconnect carves one lane into per-segment credit
  /// states (cores + bridge-port slots). 0 means n_masters.
  CreditSoA(std::size_t lanes, const CbaConfig& config,
            std::size_t slots_per_lane = 0);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::size_t slots_per_lane() const noexcept {
    return slots_;
  }
  /// Lane count rounded up to vec::kLaneAlign -- the row length.
  [[nodiscard]] std::size_t padded_lanes() const noexcept { return padded_; }

  /// Lane `l`'s strided counter view (sized slots_per_lane()).
  [[nodiscard]] CreditLaneView lane(std::size_t l);

  /// Slot `m`'s value row across lanes (padded_lanes() elements).
  [[nodiscard]] std::uint64_t* values_row(std::size_t m) {
    CBUS_EXPECTS(m < slots_);
    return values_.data() + m * padded_;
  }
  /// Slot `m`'s increment row across lanes (padded_lanes() elements).
  [[nodiscard]] const std::uint64_t* incs_row(std::size_t m) const {
    CBUS_EXPECTS(m < slots_);
    return incs_.data() + m * padded_;
  }

 private:
  std::size_t lanes_;
  std::size_t slots_;
  std::size_t padded_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> incs_;
};

}  // namespace cbus::core
