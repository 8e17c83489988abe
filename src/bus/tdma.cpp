#include "bus/tdma.hpp"

namespace cbus::bus {

TdmaArbiter::TdmaArbiter(std::uint32_t n_masters, Cycle slot_cycles)
    : Arbiter(n_masters), slot_(slot_cycles) {
  CBUS_EXPECTS(slot_cycles >= 1);
}

MasterId TdmaArbiter::pick(const ArbInput& input) {
  CBUS_EXPECTS(input.candidates != 0);
  // The transfer would start at input.grant_cycle; it must be the first
  // cycle of a slot owned by a requesting master.
  if (!is_slot_start(input.grant_cycle)) return kNoMaster;
  const MasterId owner = slot_owner(input.grant_cycle);
  if ((input.candidates >> owner) & 1u) return owner;
  return kNoMaster;
}

Cycle TdmaArbiter::next_pick(std::uint32_t pending, Cycle now) const {
  CBUS_EXPECTS(pending != 0);
  Cycle start = (now + 2 + slot_ - 1) / slot_ * slot_;
  // Every master owns one slot of each rotation.
  for (std::uint32_t i = 0; i < n_masters(); ++i, start += slot_) {
    if ((pending >> slot_owner(start)) & 1u) return start - 1;
  }
  return kNever;  // no pending master has a slot
}

void TdmaArbiter::on_grant(MasterId master, Cycle /*now*/) {
  CBUS_EXPECTS(master < n_masters());
}

HwCost TdmaArbiter::hw_cost() const {
  // State: slot counter (log2 slot) + owner pointer.
  unsigned slot_bits = 0;
  for (Cycle v = slot_ - 1; v != 0; v >>= 1) ++slot_bits;
  unsigned owner_bits = 0;
  for (unsigned v = n_masters() - 1; v != 0; v >>= 1) ++owner_bits;
  return HwCost{slot_bits + owner_bits, n_masters() + slot_bits,
                "slot counter + owner decode"};
}

}  // namespace cbus::bus
