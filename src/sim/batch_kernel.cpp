#include "sim/batch_kernel.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace cbus::sim {

BatchKernel::BatchKernel(std::size_t lanes, Cycle stripe)
    : lane_components_(lanes), post_components_(lanes), stripe_(stripe) {
  CBUS_EXPECTS(lanes >= 1);
  CBUS_EXPECTS(stripe >= 1);
}

void BatchKernel::add(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < lane_components_.size());
  lane_components_[lane].push_back(&component);
}

void BatchKernel::add_post(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < post_components_.size());
  post_components_[lane].push_back(&component);
}

std::vector<bool> BatchKernel::run_until(
    const std::function<bool(std::size_t lane)>& done, Cycle max_cycles) {
  CBUS_EXPECTS(done != nullptr);
  if (stage_ != nullptr) return run_until_staged(done, max_cycles);
  const std::size_t slots = lane_components_.front().size();
  for (const auto& lane : lane_components_) {
    CBUS_EXPECTS_MSG(lane.size() == slots,
                     "lanes are replicas: equal component counts required");
  }

  std::vector<bool> fired(lanes(), false);
  std::vector<std::size_t> live(lanes());
  for (std::size_t l = 0; l < lanes(); ++l) live[l] = l;

  while (!live.empty() && now_ < max_cycles) {
    const Cycle base = now_;
    const Cycle end = base + std::min(stripe_, max_cycles - base);
    // Each live lane runs the whole stripe before the next lane starts:
    // its data stays cache-hot across the stripe, while lanes still
    // advance through the same cycle window together. erase_if keeps lane
    // order, so the iteration is deterministic (not that lanes could tell
    // -- they share no state).
    std::erase_if(live, [&](std::size_t l) {
      for (Cycle now = base; now < end; ++now) {
        for (Component* component : lane_components_[l]) component->tick(now);
        // The run_until contract: polled once after every cycle.
        if (done(l)) {
          fired[l] = true;
          return true;
        }
      }
      return false;
    });
    // The clock tracks cycles every still-live lane completed; once all
    // lanes have fired it stops (advancing would claim cycles no lane
    // executed).
    if (live.empty()) break;
    now_ = end;
  }
  return fired;
}

std::vector<bool> BatchKernel::run_until_staged(
    const std::function<bool(std::size_t lane)>& done, Cycle max_cycles) {
  // Cycle-major lockstep: every live lane executes cycle c (pre
  // components, then the shared stage across all lanes, then post
  // components) before any lane sees c+1. Per lane the observable tick
  // sequence and the done() polling (once after every cycle) are exactly
  // those of a Kernel that ticks every cycle -- lanes share no state, so
  // the cross-lane interleave inside a cycle is free. The clock advances
  // per cycle; as in the striped loop it freezes once every lane has
  // fired, and unfinished lanes stop exactly at max_cycles.
  const std::size_t pre_slots = lane_components_.front().size();
  const std::size_t post_slots = post_components_.front().size();
  for (std::size_t l = 0; l < lanes(); ++l) {
    CBUS_EXPECTS_MSG(lane_components_[l].size() == pre_slots &&
                         post_components_[l].size() == post_slots,
                     "lanes are replicas: equal component counts required");
  }

  std::vector<bool> fired(lanes(), false);
  std::vector<std::size_t> live(lanes());
  for (std::size_t l = 0; l < lanes(); ++l) live[l] = l;

  while (!live.empty() && now_ < max_cycles) {
    const Cycle now = now_;
    for (const std::size_t l : live) {
      for (Component* component : lane_components_[l]) component->tick(now);
    }
    stage_->on_cycle(now, live);
    for (const std::size_t l : live) {
      for (Component* component : post_components_[l]) component->tick(now);
    }
    std::erase_if(live, [&](std::size_t l) {
      if (done(l)) {
        fired[l] = true;
        return true;
      }
      return false;
    });
    if (live.empty()) break;
    ++now_;
  }
  return fired;
}

}  // namespace cbus::sim
