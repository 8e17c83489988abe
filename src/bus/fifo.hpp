// FIFO arbitration: oldest pending request wins (ties broken round-robin so
// simultaneous arrivals cannot starve a fixed index).
#pragma once

#include "bus/arbiter.hpp"

namespace cbus::bus {

class FifoArbiter final : public Arbiter {
 public:
  explicit FifoArbiter(std::uint32_t n_masters);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  void on_grant(MasterId master, Cycle now) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "fifo";
  }
  [[nodiscard]] HwCost hw_cost() const override;

 private:
  MasterId last_granted_;
};

}  // namespace cbus::bus
