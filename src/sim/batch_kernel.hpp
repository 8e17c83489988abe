// BatchKernel: N independent replicas of a platform advanced in lockstep.
//
// A campaign re-runs the same machine with fresh seeds; the replicas never
// interact, so the only thing a batch changes is the *iteration order*:
// instead of running replica 0 to completion, then replica 1, ..., every
// live lane advances through the same cycle window before any lane moves
// past it. Lanes therefore stay within one stripe of each other, batches
// of lanes can be spread across worker threads, and batch-shared state
// (the core::CreditSoA credit arena) stays contiguous.
//
// The stripe length is a pure locality knob. `stripe = 1` is cycle-exact
// lockstep: cycle c of every lane runs before cycle c+1 of any lane.
// Larger stripes run each live lane for up to `stripe` consecutive cycles
// before switching lanes -- measured on the cache-model-heavy platform
// lanes, fine-grained interleave buys nothing (the serial tick loop is
// already instruction-cache-hot) and costs 5-10% in data-cache misses,
// so campaign slices use a coarse stripe (kCampaignStripe).
//
// Quiescence fast-forward (the striped loop only): after a lane executes
// cycle t, it asks its components for their event horizons
// (Component::next_event) and jumps straight to the earliest one, capped
// at the stripe end; the cycles in between only count, and every
// component applies them in closed form (Component::skip). A lane thus
// executes only the cycles some component has an event in -- an op
// issue, a bus request, latch, transfer start or completion, a credit
// eligibility crossing, a COMP latch. Components that keep the default
// horizon (t + 1) make their lane tick every cycle, as traced lanes do.
// Random numbers are drawn only inside executed cycles, so skipping
// never changes a draw. The staged (engine) loop ticks every cycle.
//
// Determinism: lanes share no state, so a lane's components observe
// exactly the state sequence a serial Kernel would deliver -- any stripe,
// any lane count, skipped or ticked. A lane retires the moment its
// predicate fires (checked once after every cycle it executed, the
// Kernel::run_until contract; a skipped cycle only counts, so it cannot
// change the predicate) and is never ticked again, just like the serial
// run stopping. Batched campaigns are therefore bit-identical to serial
// ones, which tests/test_exp.cpp and tests/test_platform.cpp lock
// byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"

namespace cbus::sim {

/// A batch-shared per-cycle stage: with a stage installed the kernel
/// switches to CYCLE-MAJOR lockstep (stripe 1 semantics) and calls
/// on_cycle(now, live) once per cycle between the lanes' pre- and
/// post-components, handing the stage every live lane at the same cycle
/// -- the shape the vectorized batch credit engine needs to update one
/// counter slot across all lanes as a single vertical operation. `live`
/// lists the still-live lane indices in ascending order.
class BatchStage {
 public:
  BatchStage() = default;
  BatchStage(const BatchStage&) = delete;
  BatchStage& operator=(const BatchStage&) = delete;
  virtual ~BatchStage() = default;

  virtual void on_cycle(Cycle now, std::span<const std::size_t> live) = 0;
};

class BatchKernel {
 public:
  /// Stripe used by campaign slices: long enough that a lane's cache-model
  /// state stays hot across the stripe (measured: cycle-exact interleave
  /// costs 5-10% on platform lanes, >= 64 cycles is within noise of
  /// serial), short enough that lanes still move through the run together
  /// (~10 bus transactions). Retirement is unaffected -- a lane's done()
  /// is polled after every executed cycle at any stripe. A lane's
  /// fast-forward never crosses a stripe end.
  static constexpr Cycle kCampaignStripe = 512;

  /// A batch of `lanes` replicas (lanes >= 1) advanced in stripes of up
  /// to `stripe` cycles (>= 1; 1 = cycle-exact lockstep).
  explicit BatchKernel(std::size_t lanes, Cycle stripe = 1);

  /// Register a component into lane `lane`; ticked in registration order
  /// within its lane. Lanes must end up with identical slot counts (they
  /// are replicas of one platform); run_until checks. Non-owning.
  /// With a stage installed these are the PRE-stage components (the
  /// cores -- everything the serial kernel ticks before the bus).
  void add(std::size_t lane, Component& component);

  /// Register a component ticked AFTER the stage each cycle (the
  /// adaptive credit controller -- everything the serial kernel ticks
  /// after the bus). Only meaningful with a stage installed.
  void add_post(std::size_t lane, Component& component);

  /// Install the batch-shared stage and switch run_until to cycle-major
  /// lockstep. The stage must outlive the kernel. See BatchStage.
  void set_stage(BatchStage& stage) noexcept { stage_ = &stage; }

  [[nodiscard]] std::size_t lanes() const noexcept {
    return lane_components_.size();
  }

  /// Components registered in lane `lane`.
  [[nodiscard]] std::size_t lane_component_count(std::size_t lane) const;

  /// Cycles every still-live lane has completed; lanes advance through
  /// the same stripes, so one clock serves the whole batch. (A lane that
  /// fired mid-stripe stopped at its own earlier cycle; a lane that ran
  /// out of budget stopped exactly here. Once every lane has fired the
  /// clock freezes at the final stripe's base.)
  [[nodiscard]] Cycle now() const noexcept { return clock_.now(); }

  /// Advance every live lane until its `done(lane)` fires or `max_cycles`
  /// elapse; returns the per-lane fired flags. Per lane the predicate is
  /// evaluated exactly once after every cycle that lane EXECUTED (the
  /// Kernel::run_until contract); cycles skipped by the fast-forward are
  /// not executed, only count, and so cannot change the predicate. A
  /// fired lane retires immediately and is neither ticked nor re-polled.
  [[nodiscard]] std::vector<bool> run_until(
      const std::function<bool(std::size_t lane)>& done, Cycle max_cycles);

  /// Cycles the lanes advanced through, summed over lanes (a fired lane
  /// counts up to and including its firing cycle), across every
  /// run_until call so far.
  [[nodiscard]] std::uint64_t simulated_lane_cycles() const noexcept {
    return simulated_lane_cycles_;
  }

  /// The share of simulated_lane_cycles() the lanes actually executed
  /// (ticked); the rest were skipped in closed form.
  [[nodiscard]] std::uint64_t executed_lane_cycles() const noexcept {
    return executed_lane_cycles_;
  }

 private:
  [[nodiscard]] std::vector<bool> run_until_staged(
      const std::function<bool(std::size_t lane)>& done, Cycle max_cycles);

  std::vector<std::vector<Component*>> lane_components_;
  std::vector<std::vector<Component*>> post_components_;
  BatchStage* stage_ = nullptr;
  Cycle stripe_;
  Clock clock_;
  std::uint64_t simulated_lane_cycles_ = 0;
  std::uint64_t executed_lane_cycles_ = 0;
};

}  // namespace cbus::sim
