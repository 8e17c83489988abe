#include "bus/deficit_round_robin.hpp"

namespace cbus::bus {

DeficitRoundRobinArbiter::DeficitRoundRobinArbiter(std::uint32_t n_masters,
                                                   Cycle quantum)
    : Arbiter(n_masters),
      quantum_(quantum),
      deficit_(n_masters, 0),
      cursor_(0) {
  CBUS_EXPECTS(quantum >= 1);
}

MasterId DeficitRoundRobinArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  const std::uint32_t n = n_masters();
  // Walk the rotation at most 2N visits (every master gains a quantum per
  // visit, so within two rounds some pending master's deficit is
  // positive).
  for (std::uint32_t visit = 0; visit < 2 * n + 1; ++visit) {
    const MasterId m = (cursor_ + visit) % n;
    const bool pending = ((input.candidates >> m) & 1u) != 0;
    if (!pending) {
      // DRR rule: an idle flow's deficit does not accumulate.
      deficit_[m] = 0;
      continue;
    }
    if (deficit_[m] > 0) {
      cursor_ = m;  // stay on this master until its deficit is spent
      return m;
    }
    deficit_[m] += static_cast<std::int64_t>(quantum_);
    if (deficit_[m] > 0) {
      cursor_ = m;
      return m;
    }
  }
  CBUS_ASSERT(false);  // unreachable: quanta accumulate for pending masters
  return kNoMaster;
}

void DeficitRoundRobinArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
}

void DeficitRoundRobinArbiter::on_complete(MasterId master, Cycle hold) {
  CBUS_EXPECTS(master < n_masters());
  deficit_[master] -= static_cast<std::int64_t>(hold);
  // Move the rotation on when the master's allowance is exhausted.
  if (deficit_[master] <= 0) cursor_ = (master + 1) % n_masters();
}

std::int64_t DeficitRoundRobinArbiter::deficit(MasterId master) const {
  CBUS_EXPECTS(master < n_masters());
  return deficit_[master];
}

HwCost DeficitRoundRobinArbiter::hw_cost() const {
  const unsigned n = n_masters();
  unsigned q_bits = 0;
  for (Cycle v = quantum_; v != 0; v >>= 1) ++q_bits;
  // Signed deficit counters wide enough for quantum + MaxL overdraw.
  return HwCost{n * (q_bits + 2), 4 * n,
                "per-master deficit counter + rotation cursor"};
}

}  // namespace cbus::bus
