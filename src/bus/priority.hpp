// Fixed-priority arbitration. Included as the cautionary baseline: the paper
// (§II) notes priorities are unusable when every core runs real-time tasks,
// because a high-priority core can starve the rest -- our starvation tests
// demonstrate exactly that.
#pragma once

#include <vector>

#include "bus/arbiter.hpp"

namespace cbus::bus {

class FixedPriorityArbiter final : public Arbiter {
 public:
  /// Default priority order: master 0 highest.
  explicit FixedPriorityArbiter(std::uint32_t n_masters);

  /// Custom order: order[0] is the highest-priority master.
  FixedPriorityArbiter(std::uint32_t n_masters,
                       std::vector<MasterId> order);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "fixed-priority";
  }
  [[nodiscard]] HwCost hw_cost() const override;

 private:
  std::vector<MasterId> order_;
};

}  // namespace cbus::bus
