// Component: anything clocked by the simulation kernel.
//
// Tick semantics (documented once, relied on everywhere): within a cycle the
// kernel ticks components in registration order. The platform registers
// cores first, then the bus, then memory-side models. A request raised by a
// core during cycle t is therefore visible to the bus arbiter in the same
// cycle t, and the paper's 1-cycle arbitration delay is modelled *inside*
// the bus (grant takes effect at t+1), not by tick ordering.
//
// Event horizon (quiescence fast-forward): most cycles of a run only
// count -- a compute countdown, a wait on the bus, a transfer in flight,
// Table-I credit recovery. A component that can say when its tick next
// does more than count overrides next_event() and skip(); the campaign
// kernel (BatchKernel::run_until) then executes only the cycles some
// component of the lane has an event in and applies every cycle between
// two of them in closed form. A run's stop predicate is polled once after
// every EXECUTED cycle; skipped cycles are not executed, only count, and
// so cannot change it. The serial Kernel keeps ticking every cycle and is
// the lane-level reference the skipping kernel is tested against.
//
// A component may defer its own internal work (the segmented
// interconnect ticks only its busy segments and settles the others'
// counters when they are read). Two kinds of state must be current
// whenever tick() or skip() returns: state readable through its API
// (settling on read counts), and state it does not own (the credit
// budgets of a filter that other components read).
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cbus::sim {

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;
  virtual ~Component() = default;

  /// Advance this component by one cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  /// This component's event horizon, asked after every component of its
  /// lane has ticked cycle `now`: the first cycle after `now` at which
  /// tick() may do more than count, assuming no other component acts
  /// before then (kNever when only another component can end the wait,
  /// e.g. a core blocked on a bus completion). Returning early is always
  /// safe; returning late is a bug. The default, now + 1, never skips.
  [[nodiscard]] virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// Apply the `cycles` ticks of cycles [from, from + cycles) in closed
  /// form. Called only when every component of the lane reported a
  /// horizon of at least from + cycles, so each skipped tick would only
  /// have counted. A component keeping the default next_event is never
  /// skipped, hence the no-op default.
  virtual void skip(Cycle /*from*/, Cycle /*cycles*/) {}

  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  std::string name_;
};

}  // namespace cbus::sim
