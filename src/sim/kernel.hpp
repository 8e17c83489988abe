// The cycle-driven simulation kernel.
//
// Deliberately simple: a vector of non-owning component pointers ticked in
// registration order under a single clock. Determinism is a hard
// requirement (MBPTA needs exact reproducibility from a seed), so there is
// no event heap and no unordered container anywhere on the tick path.
//
// This kernel ticks every component on every cycle and never consults the
// event horizon (Component::next_event): it is the tick-by-tick reference
// model the skipping campaign kernel (BatchKernel) is tested against.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"

namespace cbus::sim {

class Kernel {
 public:
  Kernel() = default;

  /// Register a component; ticked in registration order. Kernel does not own
  /// the component; the caller (the platform) guarantees its lifetime.
  void add(Component& component) { components_.push_back(&component); }

  [[nodiscard]] Cycle now() const noexcept { return clock_.now(); }

  /// Run exactly `cycles` cycles.
  void run(Cycle cycles);

  /// Run until `done()` returns true or `max_cycles` elapse. Returns true
  /// iff `done()` fired. `done` is evaluated exactly once after every
  /// executed cycle -- never before the first one, never twice for the
  /// same cycle -- so side-effecting predicates observe one call per
  /// cycle. A predicate that is already true therefore still executes one
  /// cycle before it is seen. BatchKernel honours the same contract.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  /// Execute a single cycle.
  void step();

  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Registered components in tick order (the batched campaign path
  /// re-registers them into a BatchKernel lane).
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return components_;
  }

 private:
  Clock clock_;
  std::vector<Component*> components_;
};

}  // namespace cbus::sim
