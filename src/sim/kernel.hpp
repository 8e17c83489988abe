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

#include <cstdint>
#include <functional>
#include <span>
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
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

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
  /// The one loop behind run_until, run and step. A template so that
  /// run() and step() inline their never-firing predicate: through
  /// std::function every step() paid a construction and two indirect
  /// calls (BM_SplitBusStep, one step() per cycle, ran about 1.3x
  /// slower).
  template <typename Done>
  bool advance(const Done& done, Cycle max_cycles);

  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Component*> components_;
};

}  // namespace cbus::sim
