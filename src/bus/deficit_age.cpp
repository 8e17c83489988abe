#include "bus/deficit_age.hpp"

#include <algorithm>
#include <limits>

namespace cbus::bus {

DeficitAgeArbiter::DeficitAgeArbiter(std::uint32_t n_masters, Cycle quantum,
                                     std::uint64_t age_weight)
    : Arbiter(n_masters),
      quantum_(quantum),
      age_weight_(age_weight),
      bank_cap_(4 * static_cast<std::int64_t>(quantum)),
      deficit_(n_masters, 0) {
  CBUS_EXPECTS(quantum >= 1);
}

MasterId DeficitAgeArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  const std::uint32_t n = n_masters();

  // Pass 1: forfeit absent masters (idle, or gated by the eligibility
  // filter -- DRR's idle rule) and find the best-served candidate.
  std::int64_t floor = std::numeric_limits<std::int64_t>::max();
  for (MasterId m = 0; m < n; ++m) {
    if (((input.candidates >> m) & 1u) == 0) {
      deficit_[m] = 0;
      continue;
    }
    floor = std::min(floor, deficit_[m]);
  }

  // Pass 2: rebase the candidate set to that floor (capping the spread),
  // score deficit + weighted age, and grant the maximum. Rebased scores
  // are >= 0, and the strict `>` keeps the first maximum of the
  // ascending scan: ties go to the lowest master.
  MasterId winner = kNoMaster;
  std::int64_t best = -1;
  for (MasterId m = 0; m < n; ++m) {
    if (((input.candidates >> m) & 1u) == 0) continue;
    deficit_[m] = std::min(deficit_[m] - floor, bank_cap_);
    CBUS_ASSERT(input.grant_cycle >= input.arrival[m]);
    const auto age =
        static_cast<std::int64_t>(input.grant_cycle - input.arrival[m]);
    const std::int64_t score =
        deficit_[m] + static_cast<std::int64_t>(age_weight_) * age;
    if (score > best) {
      winner = m;
      best = score;
    }
  }
  CBUS_ASSERT(winner != kNoMaster);
  return winner;
}

void DeficitAgeArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
}

void DeficitAgeArbiter::on_complete(MasterId master, Cycle hold) {
  CBUS_EXPECTS(master < n_masters());
  // Post-paid: charge the actual occupancy; the winner drops behind the
  // other contenders by exactly the cycles it consumed, and the next
  // pick's rebase folds the charge into the relative spread.
  deficit_[master] -= static_cast<std::int64_t>(hold);
}

std::int64_t DeficitAgeArbiter::deficit(MasterId master) const {
  CBUS_EXPECTS(master < n_masters());
  return deficit_[master];
}

HwCost DeficitAgeArbiter::hw_cost() const {
  const unsigned n = n_masters();
  unsigned q_bits = 0;
  for (Cycle v = quantum_; v != 0; v >>= 1) ++q_bits;
  // Signed deficit counter (quantum + 2 bits of headroom for the cap and
  // overdraw) plus an age adder per master, and a comparator tree.
  return HwCost{n * (q_bits + 3),
                8 * n,
                "per-master deficit counter + age adder + max-score tree"};
}

}  // namespace cbus::bus
