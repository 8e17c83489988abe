// Deficit round-robin (Shreedhar & Varghese, SIGCOMM 1995) adapted to a
// non-split bus: the classic cycle-fair scheduler from packet networks,
// included as the natural prior-art comparison for CBA.
//
// Each master has a deficit counter; visiting the rotation adds a quantum
// of cycles; a master may be granted while its deficit covers the
// transaction it requests. Unlike CBA there is no eligibility *filter* --
// DRR reorders grants rather than gating them -- and the deficit is reset
// when a master has nothing pending (no banking), which is DRR's version
// of the budget-saturation rule.
//
// Contrast with CBA (both are cycle-fair in the long run):
//  * DRR needs to know the transaction length AT ARBITRATION TIME to
//    check it against the deficit; on the modelled bus the hold time is
//    only known when the slave is consulted, so this implementation
//    charges the deficit at completion (post-paid) -- a master can
//    overdraw by at most MaxL, mirroring how hardware DRR variants work
//    when lengths are unknown a priori (the same problem the paper's
//    TDMA discussion describes).
//  * CBA gates *eligibility* before any inner policy; DRR IS the policy.
#pragma once

#include <vector>

#include "bus/arbiter.hpp"

namespace cbus::bus {

class DeficitRoundRobinArbiter final : public Arbiter {
 public:
  /// `quantum` cycles of credit added per rotation visit (a natural
  /// choice is MaxL, giving every master one worst-case transaction per
  /// round).
  DeficitRoundRobinArbiter(std::uint32_t n_masters, Cycle quantum);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;

  /// Post-paid charge: the bus reports the actual hold after completion.
  void on_complete(MasterId master, Cycle hold) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "deficit-round-robin";
  }
  [[nodiscard]] HwCost hw_cost() const override;

  [[nodiscard]] std::int64_t deficit(MasterId master) const;
  [[nodiscard]] Cycle quantum() const noexcept { return quantum_; }

 private:
  Cycle quantum_;
  std::vector<std::int64_t> deficit_;
  MasterId cursor_;
};

}  // namespace cbus::bus
