// The tick-every-cycle reference: a component whose tick does nothing and
// which keeps the default event horizon (t + 1). Registered LAST in a
// sim::Kernel, it answers the kernel's first horizon question after every
// cycle with t + 1, so the kernel executes every cycle without asking any
// other component for its horizon or calling its skip -- the every-cycle
// model the fast-forward's closed forms are tested against.
#pragma once

#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::test {

class TickEveryCycle final : public sim::Component {
 public:
  TickEveryCycle() : sim::Component("tick-every-cycle") {}

  void tick(Cycle /*now*/) override {}
};

}  // namespace cbus::test
