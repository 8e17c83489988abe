// Deficit-weighted age arbitration: a cycle-fair inner policy whose grant
// order follows both accumulated service debt AND request age.
//
// Motivation (ROADMAP "more inner policies"): the paper's inner policies
// are either request-fair (RR, FIFO, lottery, RP) or cycle-fair by
// rotation (DRR). Neither expresses "the master that has waited longest
// *and* has been served least goes first", which is the natural policy
// for multi-timescale burst profiles (Nadas et al., 1903.08075) and for
// weighted fairness across several contention points (Vandalore et al.).
// DeficitAgeArbiter scores every candidate as
//
//     score(m) = deficit(m) + age_weight * (grant_cycle - arrival(m))
//
// and grants the maximum (ties to the lowest master id, so the policy is
// fully deterministic and lane-safe for batched lockstep replicas).
//
// Deficit accounting is RELATIVE and post-paid (the modelled bus only
// learns a transaction's length at completion):
//  * a completed transfer charges its actual hold to the winner, pushing
//    it behind the other contenders by exactly the cycles it consumed;
//  * at every arbitration round the candidate set is rebased so the
//    least-owed candidate sits at zero -- deficit(m) is therefore "cycles
//    of service owed to m relative to the best-served contender", and the
//    counters stay bounded instead of racing a refill stream;
//  * the spread saturates at `bank_cap` (4 quanta -- the Table-I
//    budget-saturation rule transplanted to the inner policy, so one
//    master cannot hoard unbounded priority);
//  * a master with no *eligible* pending request forfeits its deficit
//    (DRR's idle rule). Under a CBA credit filter this means
//    ineligibility also forfeits -- the inner policy never works against
//    the filter's throttle, which is what "Table-I-compatible" means
//    here: CBA gates eligibility first, deficit_age orders the survivors.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/arbiter.hpp"

namespace cbus::bus {

class DeficitAgeArbiter final : public Arbiter {
 public:
  /// `quantum` sizes the deficit-spread cap at 4 quanta (MaxL is the
  /// natural choice); `age_weight` scores one waited cycle as
  /// `age_weight` owed service cycles.
  DeficitAgeArbiter(std::uint32_t n_masters, Cycle quantum,
                    std::uint64_t age_weight = 1);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;
  void on_complete(MasterId master, Cycle hold) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "deficit-age";
  }
  [[nodiscard]] HwCost hw_cost() const override;

  /// Service owed to `master` relative to the best-served contender of
  /// the last arbitration round (>= 0 after a pick; negative only
  /// transiently between a completion charge and the next rebase).
  [[nodiscard]] std::int64_t deficit(MasterId master) const;
  [[nodiscard]] Cycle quantum() const noexcept { return quantum_; }
  [[nodiscard]] std::int64_t bank_cap() const noexcept { return bank_cap_; }

 private:
  Cycle quantum_;
  std::uint64_t age_weight_;
  std::int64_t bank_cap_;  ///< 4 quanta: bounded spread (saturation rule)
  std::vector<std::int64_t> deficit_;
};

}  // namespace cbus::bus
