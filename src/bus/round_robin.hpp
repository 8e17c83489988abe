// Round-robin arbitration: rotate priority starting after the last winner.
// Request-count fair, the canonical real-time baseline (paper §II).
#pragma once

#include "bus/arbiter.hpp"

namespace cbus::bus {

class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::uint32_t n_masters);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "round-robin";
  }
  [[nodiscard]] HwCost hw_cost() const override;

 private:
  MasterId last_granted_;
};

}  // namespace cbus::bus
