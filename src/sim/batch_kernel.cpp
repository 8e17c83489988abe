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

std::size_t BatchKernel::lane_component_count(std::size_t lane) const {
  CBUS_EXPECTS(lane < lane_components_.size());
  return lane_components_[lane].size();
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
  const auto end_of_lane = [this](Cycle simulated, std::uint64_t executed) {
    simulated_lane_cycles_ += simulated;
    executed_lane_cycles_ += executed;
  };

  while (!live.empty() && clock_.now() < max_cycles) {
    const Cycle base = clock_.now();
    const Cycle end = base + std::min(stripe_, max_cycles - base);
    // Each live lane runs the whole stripe before the next lane starts:
    // its data stays cache-hot across the stripe, while lanes still
    // advance through the same cycle window together. erase_if keeps lane
    // order, so the iteration is deterministic (not that lanes could tell
    // -- they share no state).
    std::erase_if(live, [&](std::size_t l) {
      const std::vector<Component*>& components = lane_components_[l];
      Cycle now = base;
      std::uint64_t executed = 0;
      while (now < end) {
        for (Component* component : components) component->tick(now);
        ++executed;
        // The run_until contract: polled once after every executed cycle.
        if (done(l)) {
          fired[l] = true;
          end_of_lane(now + 1 - base, executed);
          return true;
        }
        // Fast-forward to the lane's next event. Asked last-registered
        // first: a lane holding a component with the default horizon (a
        // tracer) learns `now + 1` from its first question.
        Cycle next = end;
        for (auto it = components.rbegin();
             it != components.rend() && next > now + 1; ++it) {
          next = std::min(next, (*it)->next_event(now));
        }
        if (next > now + 1) {
          for (Component* component : components) {
            component->skip(now + 1, next - now - 1);
          }
        }
        now = next;
      }
      end_of_lane(end - base, executed);
      return false;
    });
    // The clock tracks cycles every still-live lane completed; once all
    // lanes have fired it stops (advancing would claim cycles no lane
    // executed).
    if (live.empty()) break;
    for (Cycle c = base; c < end; ++c) clock_.advance();
  }
  return fired;
}

std::vector<bool> BatchKernel::run_until_staged(
    const std::function<bool(std::size_t lane)>& done, Cycle max_cycles) {
  // Cycle-major lockstep: every live lane executes cycle c (pre
  // components, then the shared stage across all lanes, then post
  // components) before any lane sees c+1. Per lane the observable tick
  // sequence and the done() polling (once after every cycle -- this loop
  // executes every cycle, it never fast-forwards) are exactly the serial
  // kernel's -- lanes share no state, so the
  // cross-lane interleave inside a cycle is free. The clock advances per
  // executed cycle; as in the striped loop it freezes once every lane
  // has fired, and unfinished lanes stop exactly at max_cycles.
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

  while (!live.empty() && clock_.now() < max_cycles) {
    const Cycle now = clock_.now();
    simulated_lane_cycles_ += live.size();
    executed_lane_cycles_ += live.size();
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
    clock_.advance();
  }
  return fired;
}

}  // namespace cbus::sim
