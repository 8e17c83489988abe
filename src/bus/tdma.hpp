// TDMA arbitration: time is statically divided into slots of MaxL cycles,
// one owner per slot in rotation. A request may only start in the first
// cycle of its owner's slot (paper §II: issuing a request of unknown
// duration later in the slot could delay the next owner), so short requests
// leave the remainder of the slot idle -- TDMA is not work-conserving,
// which the bandwidth experiments make visible.
#pragma once

#include "bus/arbiter.hpp"

namespace cbus::bus {

class TdmaArbiter final : public Arbiter {
 public:
  /// `slot_cycles` should be MaxL (the worst-case transaction length).
  TdmaArbiter(std::uint32_t n_masters, Cycle slot_cycles);

  [[nodiscard]] MasterId pick(const ArbInput& input) override;
  /// One cycle before the first slot start at or after now + 2 whose
  /// owner is pending (arbitration at t grants at t + 1).
  [[nodiscard]] Cycle next_pick(std::uint32_t pending,
                                Cycle now) const override;
  void on_grant(MasterId master, Cycle now) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "tdma";
  }
  [[nodiscard]] HwCost hw_cost() const override;

  [[nodiscard]] Cycle slot_cycles() const noexcept { return slot_; }

  /// Owner of the slot containing cycle `at`.
  [[nodiscard]] MasterId slot_owner(Cycle at) const noexcept {
    return static_cast<MasterId>((at / slot_) % n_masters());
  }

  /// True iff `at` is the first cycle of a slot.
  [[nodiscard]] bool is_slot_start(Cycle at) const noexcept {
    return at % slot_ == 0;
  }

 private:
  Cycle slot_;
};

}  // namespace cbus::bus
