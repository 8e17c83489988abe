#include "sim/kernel.hpp"

namespace cbus::sim {

void Kernel::add(Component& component) {
  active_.push_back(
      Active{&component, static_cast<std::uint32_t>(components_.size())});
  components_.push_back(&component);
  is_parked_.push_back(0);
  parked_from_.push_back(0);
}

void Kernel::step() { run(1); }

void Kernel::run(Cycle cycles) { advance([] { return false; }, cycles); }

void Kernel::wake_all() {
  for (std::size_t slot = 0; parked_ > 0 && slot < components_.size();
       ++slot) {
    wake(slot);
  }
}

Kernel::Binding::Binding(Kernel& kernel) : kernel_(kernel) {
  for (std::size_t i = 0; i < kernel_.components_.size(); ++i) {
    Component& component = *kernel_.components_[i];
    if (component.kernel_ != nullptr) {
      for (std::size_t j = 0; j < i; ++j) {
        kernel_.components_[j]->kernel_ = nullptr;
      }
      CBUS_EXPECTS_MSG(false,
                       "a component is registered once and runs in one "
                       "kernel call at a time");
    }
    component.kernel_ = &kernel_;
    component.slot_ = static_cast<std::uint32_t>(i);
  }
}

Kernel::Binding::~Binding() {
  for (Component* component : kernel_.components_) {
    component->kernel_ = nullptr;
  }
  // After an exception nothing was settled; tick everything next call.
  if (kernel_.parked_ > 0) {
    kernel_.active_.clear();
    for (std::size_t i = 0; i < kernel_.components_.size(); ++i) {
      kernel_.active_.push_back(
          Active{kernel_.components_[i], static_cast<std::uint32_t>(i)});
    }
    std::fill(kernel_.is_parked_.begin(), kernel_.is_parked_.end(), 0);
    kernel_.parked_ = 0;
  }
  kernel_.ticking_ = kNoSlot;
}

void Kernel::wake_parked(std::size_t slot) {
  // A wake outside the tick pass could land after the horizon question
  // or the skip it missed.
  CBUS_ASSERT(ticking_ != kNoSlot);
  // The slots up to the one being ticked have passed for this cycle.
  unpark(slot, slot <= ticking_ ? now_ + 1 : now_);
}

void Kernel::unpark(std::size_t slot, Cycle until) {
  // Registration order: after the last active component with a lower
  // slot.
  std::size_t at = active_.size();
  while (at > 0 && active_[at - 1].slot > slot) --at;
  active_.insert(active_.begin() + static_cast<std::ptrdiff_t>(at),
                 Active{components_[slot], static_cast<std::uint32_t>(slot)});
  if (at < next_) ++next_;  // woken from an earlier slot: keep our place
  is_parked_[slot] = 0;
  --parked_;
  const Cycle from = parked_from_[slot];
  if (until > from) components_[slot]->skip(from, until - from);
}

void Kernel::settle_parked() {
  for (std::size_t slot = 0; parked_ > 0 && slot < components_.size();
       ++slot) {
    if (is_parked_[slot] != 0) unpark(slot, now_);
  }
}

}  // namespace cbus::sim
