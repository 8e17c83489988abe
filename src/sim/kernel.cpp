#include "sim/kernel.hpp"

#include <algorithm>

namespace cbus::sim {

template <typename Done>
bool Kernel::advance(const Done& done, Cycle max_cycles) {
  const Cycle end = max_cycles > kNever - now_ ? kNever : now_ + max_cycles;
  while (now_ < end) {
    const Cycle t = now_;
    for (Component* component : components_) component->tick(t);
    ++executed_;
    now_ = t + 1;
    // The run_until contract: polled once after every executed cycle.
    if (done()) return true;
    // Fast-forward to the next event. Asked last-registered first: a run
    // holding a component with the default horizon (a tracer, the tests'
    // every-cycle reference) learns `t + 1` from its first question.
    Cycle next = end;
    for (auto it = components_.rbegin();
         it != components_.rend() && next > t + 1; ++it) {
      next = std::min(next, (*it)->next_event(t));
    }
    if (next > t + 1) {
      for (Component* component : components_) {
        component->skip(t + 1, next - t - 1);
      }
      now_ = next;
    }
  }
  return false;
}

void Kernel::step() { run(1); }

void Kernel::run(Cycle cycles) { advance([] { return false; }, cycles); }

bool Kernel::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  CBUS_EXPECTS(done != nullptr);
  return advance(done, max_cycles);
}

}  // namespace cbus::sim
