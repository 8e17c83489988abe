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
// Parking (the contract is in component.hpp): a component that parks in
// its tick is left out of the tick, horizon and skip passes -- it counts
// as kNever, exactly its horizon, so the executed cycles do not change --
// until another component's call wakes it. The wake settles the cycles it
// missed whose tick slot has passed: through the current cycle when it is
// registered before the component being ticked (a core woken by its bus),
// up to it when after, in which case it is still ticked this cycle. Only
// a call made from some component's tick may wake; every call settles
// what is still parked before it returns, and a one-cycle call (step())
// runs without parking at all.
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
  void add(Component& component);

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
  /// cycle, no jump crosses the end of its budget, and no component is
  /// left parked when it returns.
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

  /// Wake every parked component. The tests' every-cycle reference calls
  /// it from its tick, so every component is ticked every cycle.
  void wake_all();

  /// True iff `component` is parked in a call in progress; false between
  /// calls, which settle every parked component before they return.
  [[nodiscard]] bool parked(const Component& component) const noexcept {
    return component.kernel_ == this && is_parked_[component.slot_] != 0;
  }

  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Registered components in tick order (perfbench's replay re-registers
  /// them into a BatchKernel lane).
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return components_;
  }

 private:
  friend class Component;

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Binds the components to this kernel for one call; on the way out
  /// (normal or exceptional) unbinds them and marks every one active.
  class Binding {
   public:
    explicit Binding(Kernel& kernel);
    Binding(const Binding&) = delete;
    Binding& operator=(const Binding&) = delete;
    ~Binding();

   private:
    Kernel& kernel_;
  };

  /// The one loop behind run_until, run and step. A template so that the
  /// predicate inlines: through std::function every step() paid a
  /// construction and two indirect calls (BM_SplitBusStep, one step() per
  /// cycle, ran about 1.3x slower).
  template <typename Done>
  bool advance(const Done& done, Cycle max_cycles) {
    const Cycle end = max_cycles > kNever - now_ ? kNever : now_ + max_cycles;
    if (end - now_ == 1) {
      // One cycle (step()): whatever parks in it is settled at once with
      // nothing to settle, so it runs unbound -- park() and wake() do
      // nothing -- and skips the binding.
      for (Component* component : components_) component->tick(now_);
      ++executed_;
      ++now_;
      return done();
    }
    const Binding binding(*this);
    while (now_ < end) {
      const Cycle t = now_;
      // A park or a wake during a tick moves next_, so a component woken
      // from a later slot is ticked this cycle.
      for (next_ = 0; next_ < active_.size();) {
        const Active a = active_[next_++];
        ticking_ = a.slot;
        a.component->tick(t);
      }
      ticking_ = kNoSlot;
      ++executed_;
      now_ = t + 1;
      // The run_until contract: polled once after every executed cycle.
      if (done()) {
        settle_parked();
        return true;
      }
      // Fast-forward to the next event; a parked component counts as
      // kNever. Asked last-registered first: a run holding a component
      // with the default horizon (a tracer, the tests' every-cycle
      // reference) learns `t + 1` from its first question.
      Cycle next = end;
      for (auto it = active_.rbegin(); it != active_.rend() && next > t + 1;
           ++it) {
        next = std::min(next, it->component->next_event(t));
      }
      if (next > t + 1) {
        for (const Active& a : active_) a.component->skip(t + 1, next - t - 1);
        now_ = next;
      }
    }
    settle_parked();
    return false;
  }

  void park(std::size_t slot) {
    CBUS_ASSERT(slot == ticking_);  // parks only from its own tick
    // The component being ticked sits just before next_.
    --next_;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(next_));
    is_parked_[slot] = 1;
    parked_from_[slot] = now_ + 1;
    ++parked_;
  }

  void wake(std::size_t slot) {
    if (is_parked_[slot] != 0) wake_parked(slot);
  }

  void wake_parked(std::size_t slot);
  /// Tick `slot` again, after skipping the cycles it missed before `until`.
  void unpark(std::size_t slot, Cycle until);
  /// Unpark every parked component through now().
  void settle_parked();

  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Component*> components_;
  /// An unparked component and its slot (index into components_).
  struct Active {
    Component* component;
    std::uint32_t slot;
  };
  /// The unparked components in registration order: the tick, horizon
  /// and skip passes walk only these.
  std::vector<Active> active_;
  /// Per component: parked or not, and while parked the first cycle it
  /// has not accounted.
  std::vector<std::uint8_t> is_parked_;
  std::vector<Cycle> parked_from_;
  std::size_t parked_ = 0;  ///< components currently parked
  /// Tick pass: the position in active_ of the next component to tick,
  /// and the slot of the one being ticked (kNoSlot outside the pass).
  std::size_t next_ = 0;
  std::size_t ticking_ = kNoSlot;
};

inline void Component::park() {
  if (kernel_ != nullptr) kernel_->park(slot_);
}

inline void Component::wake() {
  if (kernel_ != nullptr) kernel_->wake(slot_);
}

}  // namespace cbus::sim
