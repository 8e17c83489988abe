// The tick-every-cycle reference: a component that keeps the default event
// horizon (t + 1) and wakes every parked component in its tick.
// Constructed LAST on a sim::Kernel (it registers itself), it answers the
// kernel's first horizon question after every cycle with t + 1, so the
// kernel executes every cycle without asking any other component for its
// horizon or calling its skip; and a component that parks in its tick at
// cycle t is woken in the same cycle with nothing to settle, so every
// component is ticked every cycle -- the every-cycle model the
// fast-forward's closed forms and parking are tested against.
#pragma once

#include "common/types.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"

namespace cbus::test {

class TickEveryCycle final : public sim::Component {
 public:
  explicit TickEveryCycle(sim::Kernel& kernel)
      : sim::Component("tick-every-cycle"), kernel_(kernel) {
    kernel_.add(*this);
  }

  void tick(Cycle /*now*/) override { kernel_.wake_all(); }

 private:
  sim::Kernel& kernel_;
};

}  // namespace cbus::test
