// Random-permutations arbitration (Jalle et al., DATE 2014) -- the inner
// policy the paper integrates CBA with on the LEON3 prototype.
//
// Arbitration windows: a uniformly random permutation of the masters is
// drawn; within the window each master is granted at most once, served in
// permutation order among those with pending requests. When every master
// has been served -- or no unserved master in the window has a pending
// request (work conservation) -- a fresh permutation is drawn. Randomness
// comes from the per-cycle RandBank channel, modelling the paper's
// APRANDBANK connection.
#pragma once

#include <vector>

#include "bus/arbiter.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::bus {

class RandomPermutationArbiter final : public Arbiter {
 public:
  RandomPermutationArbiter(std::uint32_t n_masters, rng::RandChannel channel);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;
  void reset() override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "random-permutations";
  }
  [[nodiscard]] HwCost hw_cost() const override;

  /// Exposed for testing: the permutation currently in force.
  [[nodiscard]] const std::vector<std::uint32_t>& window() const noexcept {
    return permutation_;
  }

 private:
  void redraw();

  rng::RandChannel channel_;
  std::vector<std::uint32_t> permutation_;
  std::uint32_t served_ = 0;
};

}  // namespace cbus::bus
