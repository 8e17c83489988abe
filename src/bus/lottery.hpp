// Lottery arbitration (Lahiri et al., DAC 2001): every pending request holds
// tickets; a uniformly random draw picks the winner. With equal tickets this
// is request-count fair in expectation and MBPTA-amenable (paper §II).
#pragma once

#include <vector>

#include "bus/arbiter.hpp"
#include "rng/rand_bank.hpp"

namespace cbus::bus {

class LotteryArbiter final : public Arbiter {
 public:
  /// Equal tickets for every master.
  LotteryArbiter(std::uint32_t n_masters, rng::RandChannel channel);

  /// Weighted tickets (all weights >= 1).
  LotteryArbiter(std::uint32_t n_masters, rng::RandChannel channel,
                 std::vector<std::uint32_t> tickets);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "lottery";
  }
  [[nodiscard]] HwCost hw_cost() const override;

 private:
  rng::RandChannel channel_;
  std::vector<std::uint32_t> tickets_;
};

}  // namespace cbus::bus
