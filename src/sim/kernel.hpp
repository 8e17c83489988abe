// The cycle-driven simulation kernel.
//
// Deliberately simple: a vector of non-owning component pointers ticked in
// registration order under a single cycle counter. Determinism is a hard
// requirement (MBPTA needs exact reproducibility from a seed), so there is
// no event heap and no unordered container anywhere on the tick path.
//
// Quiescence fast-forward: after executing cycle t, the kernel asks its
// components for their event horizons (Component::next_event) and jumps
// straight to the earliest one, capped at the end of the call's budget;
// the cycles in between only count, and every component applies them in
// closed form (Component::skip). A run thus executes only the cycles some
// component has an event in. A component that keeps the default horizon
// (t + 1) makes the kernel execute every cycle -- traced runs do, and the
// tests' tick-every-cycle reference registers such a component last.
// Random numbers are drawn only inside executed cycles, so skipping never
// changes a draw.
//
// This is the one loop that ticks components for campaigns, examples,
// benches and tests (sim::BatchKernel's lockstep loop serves only
// perfbench's traced replay and the engine batteries).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::sim {

class Kernel {
 public:
  Kernel() = default;

  /// Register a component; ticked in registration order. Kernel does not own
  /// the component; the caller (the platform) guarantees its lifetime.
  void add(Component& component) { components_.push_back(&component); }

  /// Cycles simulated so far: executed plus skipped.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// The share of now() the kernel executed (ticked); the rest were
  /// skipped in closed form.
  [[nodiscard]] std::uint64_t executed_cycles() const noexcept {
    return executed_;
  }

  /// Run exactly `cycles` cycles.
  void run(Cycle cycles);

  /// Run until `done()` returns true or `max_cycles` elapse. Returns true
  /// iff `done()` fired. `done` is evaluated exactly once after every
  /// executed cycle -- never before the first one, never twice for the
  /// same cycle -- so side-effecting predicates observe one call per
  /// executed cycle. A predicate that is already true therefore still
  /// executes one cycle before it is seen. Skipped cycles only count, so
  /// they cannot change the predicate. Every call executes its first
  /// cycle, and no jump crosses the end of its budget.
  ///
  /// `done` is any callable returning bool; a template, so a lambda
  /// inlines into the loop. A null or empty predicate (nullptr, a null
  /// function pointer, an empty std::function) is a precondition failure.
  template <typename Done>
  bool run_until(const Done& done, Cycle max_cycles) {
    if constexpr (std::is_null_pointer_v<Done>) {
      CBUS_EXPECTS_MSG(false, "run_until needs a predicate");
      return false;
    } else {
      // Pointers and std::function can be empty; lambdas cannot (a
      // capture-less one is an empty class that converts to bool).
      if constexpr (std::is_constructible_v<bool, const Done&> &&
                    !std::is_empty_v<Done>) {
        CBUS_EXPECTS_MSG(static_cast<bool>(done),
                         "run_until needs a predicate");
      }
      return advance(done, max_cycles);
    }
  }

  /// Execute a single cycle.
  void step();

  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Registered components in tick order (perfbench's replay re-registers
  /// them into a BatchKernel lane).
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return components_;
  }

 private:
  /// The one loop behind run_until, run and step. A template so that the
  /// predicate inlines: through std::function every step() paid a
  /// construction and two indirect calls (BM_SplitBusStep, one step() per
  /// cycle, ran about 1.3x slower).
  template <typename Done>
  bool advance(const Done& done, Cycle max_cycles) {
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

  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Component*> components_;
};

}  // namespace cbus::sim
