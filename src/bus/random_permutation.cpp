#include "bus/random_permutation.hpp"

namespace cbus::bus {

RandomPermutationArbiter::RandomPermutationArbiter(std::uint32_t n_masters,
                                                   rng::RandChannel channel)
    : Arbiter(n_masters),
      channel_(std::move(channel)),
      bounds_(rng::shuffle_bounds(n_masters)),
      permutation_(n_masters) {
  redraw();
}

void RandomPermutationArbiter::redraw() {
  rng::random_permutation(channel_, std::span<std::uint32_t>(permutation_),
                          std::span<const rng::BoundedUniform>(bounds_));
  served_ = 0;
}

MasterId RandomPermutationArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  // First unserved master in permutation order with a pending request.
  for (const std::uint32_t m : permutation_) {
    if ((served_ >> m) & 1u) continue;
    if ((input.candidates >> m) & 1u) return static_cast<MasterId>(m);
  }
  // Window exhausted for every pending master: open a new window. A single
  // redraw suffices (the fresh window has no served masters), keeping the
  // policy work-conserving.
  redraw();
  for (const std::uint32_t m : permutation_) {
    if ((input.candidates >> m) & 1u) return static_cast<MasterId>(m);
  }
  CBUS_ASSERT(false);
  return kNoMaster;
}

void RandomPermutationArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
  served_ |= 1u << master;
  if (served_ == (n_masters() >= 32 ? ~0u : (1u << n_masters()) - 1u)) {
    redraw();
  }
}

HwCost RandomPermutationArbiter::hw_cost() const {
  const unsigned n = n_masters();
  unsigned bits = 0;
  for (unsigned v = n - 1; v != 0; v >>= 1) ++bits;
  // State: permutation registers (N x log2 N) + served mask. The PRNG is the
  // shared APRANDBANK, not counted per arbiter.
  return HwCost{n * bits + n, 8 * n,
                "permutation registers + served mask + shuffle network"};
}

}  // namespace cbus::bus
