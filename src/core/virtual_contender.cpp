#include "core/virtual_contender.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace cbus::core {

VirtualContender::VirtualContender(std::span<const Contender> contenders,
                                   bus::BusPort& bus)
    : sim::Component("contenders"),
      bus_(bus),
      tua_(contenders.empty() ? 0 : contenders.front().config.tua) {
  CBUS_EXPECTS(!contenders.empty());
  for (const Contender& c : contenders) {
    const VirtualContenderConfig& config = c.config;
    CBUS_EXPECTS(config.self < kMaxMasters);
    CBUS_EXPECTS(config.self != config.tua);
    CBUS_EXPECTS(config.tua == tua_);
    CBUS_EXPECTS(config.hold >= 1);
    CBUS_EXPECTS_MSG((members_ >> config.self) == 0,
                     "contenders in ascending master order, each once");
    CBUS_EXPECTS_MSG(
        config.policy == ContenderPolicy::kAlwaysCompete ||
            c.credits != nullptr,
        "the COMP latch needs the credit state to watch BUDGi");
    const std::uint32_t b = 1u << config.self;
    members_ |= b;
    (config.policy == ContenderPolicy::kAlwaysCompete ? always_ : latch_) |= b;
    slots_[config.self] = Slot{
        config.hold, c.credits,
        config.credit_slot == kNoMaster ? config.self : config.credit_slot};
  }
  for (const Contender& c : contenders) {
    bus_.connect_master(c.config.self, *this);
  }
}

MasterId VirtualContender::checked(MasterId m) const {
  CBUS_EXPECTS_MSG(m < kMaxMasters && ((members_ >> m) & 1u) != 0,
                   "not a contender of this component");
  return m;
}

void VirtualContender::tick(Cycle now) {
  ticked_ = now;
  comp_ |= always_;
  if ((latch_ & ~comp_) == 0 && (comp_ & ~pending_ & ~holding_) == 0) return;
  latch_and_request(now);
}

void VirtualContender::latch_and_request(Cycle now) {
  // COMPi <= 1 when BUDGi saturated and the TuA has a request pending.
  std::uint32_t down = latch_ & ~comp_;
  if (down != 0 && bus_.has_pending(tua_)) {
    for (; down != 0; down &= down - 1) {
      const auto m = static_cast<MasterId>(__builtin_ctz(down));
      if (saturated(m)) comp_ |= 1u << m;
    }
  }
  // Ascending master id: the order the contenders' requests reach the bus.
  for (std::uint32_t fire = comp_ & ~pending_ & ~holding_; fire != 0;
       fire &= fire - 1) {
    const auto m = static_cast<MasterId>(__builtin_ctz(fire));
    bus::BusRequest req;
    req.master = m;
    req.kind = MemOpKind::kLoad;
    req.forced_hold = slots_[m].hold;  // keep the bus busy for MaxL cycles
    bus_.request(req, now);
    pending_ |= 1u << m;
  }
}

Cycle VirtualContender::next_event(Cycle now) const {
  // Latch up, port free: it requests next tick. Pending or holding: the
  // bus's latch or completion frees the port.
  if (((comp_ | always_) & ~pending_ & ~holding_) != 0) return now + 1;
  if ((latch_ & ~comp_) == 0) return kNever;
  return latch_horizon(now);
}

Cycle VirtualContender::latch_horizon(Cycle now) const {
  // The latch rises on the first tick that sees BUDGi saturated while
  // the TuA has a request pending; the TuA raising one is an event of
  // its own core.
  if (!bus_.has_pending(tua_)) return kNever;
  Cycle next = kNever;
  for (std::uint32_t down = latch_ & ~comp_; down != 0; down &= down - 1) {
    const auto m = static_cast<MasterId>(__builtin_ctz(down));
    if ((holding_ >> m) & 1u) {
      // A holder's budget cannot rise (increment <= scale); the
      // completion is a bus event.
      if (saturated(m)) return now + 1;
      continue;
    }
    // The tick at cycle now + j sees j - 1 further updates.
    const Cycle ticks =
        slots_[m].credits->ticks_to_saturation(slots_[m].credit_slot);
    if (ticks != kNever) next = std::min(next, now + 1 + ticks);
  }
  return next;
}

void VirtualContender::skip(Cycle /*from*/, Cycle /*cycles*/) {
  comp_ |= always_;
}

void VirtualContender::on_latch(const bus::BusRequest& request, Cycle now) {
  expect_ticked(now);
  // The non-split bus consumed the request; until on_grant the port is
  // neither pending nor holding, so the contender may re-request.
  const std::uint32_t b = bit(request.master);
  pending_ &= ~b;
  latched_ |= b;
}

void VirtualContender::on_grant(const bus::BusRequest& request, Cycle now,
                                Cycle /*hold*/) {
  expect_ticked(now);
  const MasterId m = request.master;
  const std::uint32_t b = bit(m);
  // Without a latch (split bus, segmented interconnect) the grant ends
  // the pending request; after one, pending may be a fresh request.
  if ((latched_ & b) == 0) pending_ &= ~b;
  latched_ &= ~b;
  // COMPi is reset whenever core i is granted access to the bus (Table I).
  comp_ &= ~b;
  holding_ |= b;
  ++grants_[m];
}

void VirtualContender::on_complete(const bus::BusRequest& request,
                                   Cycle now) {
  expect_ticked(now);
  holding_ &= ~bit(request.master);
}

}  // namespace cbus::core
