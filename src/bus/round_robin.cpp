#include "bus/round_robin.hpp"

#include <bit>

namespace cbus::bus {

RoundRobinArbiter::RoundRobinArbiter(std::uint32_t n_masters)
    : Arbiter(n_masters), last_granted_(n_masters - 1) {}

MasterId RoundRobinArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  // Hardware form of the scan: rotate the candidate word so the pointer's
  // successor lands at bit 0, then the priority encoder (countr_zero)
  // yields the first candidate at or after it.
  const std::uint32_t n = n_masters();
  const std::uint32_t start = (last_granted_ + 1) % n;
  const std::uint32_t mask =
      n >= 32 ? ~0u : ((std::uint32_t{1} << n) - 1u);
  const std::uint32_t candidates = input.candidates & mask;
  CBUS_ASSERT(candidates != 0);
  const std::uint32_t rotated =
      start == 0 ? candidates
                 : ((candidates >> start) | (candidates << (n - start))) &
                       mask;
  const auto offset = static_cast<std::uint32_t>(std::countr_zero(rotated));
  return (start + offset) % n;
}

void RoundRobinArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
  last_granted_ = master;
}

HwCost RoundRobinArbiter::hw_cost() const {
  // State: log2(N) pointer bits. Logic: rotate + priority encoder.
  const unsigned n = n_masters();
  unsigned bits = 0;
  for (unsigned v = n - 1; v != 0; v >>= 1) ++bits;
  return HwCost{bits, 2 * n, "rotating pointer + priority encoder"};
}

}  // namespace cbus::bus
