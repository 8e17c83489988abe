#include "bus/fifo.hpp"

#include <limits>

namespace cbus::bus {

FifoArbiter::FifoArbiter(std::uint32_t n_masters)
    : Arbiter(n_masters), last_granted_(n_masters - 1) {}

MasterId FifoArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  CBUS_EXPECTS(input.arrival.size() >= n_masters());
  Cycle oldest = std::numeric_limits<Cycle>::max();
  for (MasterId m = 0; m < n_masters(); ++m) {
    if (((input.candidates >> m) & 1u) && input.arrival[m] < oldest) {
      oldest = input.arrival[m];
    }
  }
  // Round-robin tie-break among requests sharing the oldest arrival cycle.
  const std::uint32_t n = n_masters();
  for (std::uint32_t offset = 1; offset <= n; ++offset) {
    const MasterId candidate = (last_granted_ + offset) % n;
    if (((input.candidates >> candidate) & 1u) &&
        input.arrival[candidate] == oldest) {
      return candidate;
    }
  }
  CBUS_ASSERT(false);
  return kNoMaster;
}

void FifoArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
  last_granted_ = master;
}

HwCost FifoArbiter::hw_cost() const {
  // State: an order queue of log2(N)-bit entries. Logic: comparator tree.
  const unsigned n = n_masters();
  unsigned bits = 0;
  for (unsigned v = n - 1; v != 0; v >>= 1) ++bits;
  return HwCost{n * bits, 3 * n, "arrival-order queue + comparator tree"};
}

}  // namespace cbus::bus
