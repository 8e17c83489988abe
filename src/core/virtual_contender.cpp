#include "core/virtual_contender.hpp"

#include "common/contracts.hpp"

namespace cbus::core {

VirtualContender::VirtualContender(const VirtualContenderConfig& config,
                                   bus::BusPort& bus,
                                   const CreditState* credits)
    : sim::Component("contender-" + std::to_string(config.self)),
      config_(config),
      bus_(bus),
      credits_(credits) {
  CBUS_EXPECTS(config.self != config.tua);
  CBUS_EXPECTS(config.hold >= 1);
  CBUS_EXPECTS_MSG(
      config.policy == ContenderPolicy::kAlwaysCompete || credits != nullptr,
      "the COMP latch needs the credit state to watch BUDGi");
  bus_.connect_master(config_.self, *this);
}

bool VirtualContender::budget_full() const {
  return credits_ == nullptr || credits_->saturated(credit_slot());
}

void VirtualContender::tick(Cycle now) {
  if (config_.policy == ContenderPolicy::kCompLatch) {
    // COMPi <= 1 when BUDGi saturated and the TuA has a request pending.
    if (!comp_ && budget_full() && bus_.has_pending(config_.tua)) {
      comp_ = true;
    }
  } else {
    comp_ = true;  // always compete
  }

  if (comp_ && bus_.can_request(config_.self)) {
    bus::BusRequest req;
    req.master = config_.self;
    req.kind = MemOpKind::kLoad;
    req.forced_hold = config_.hold;  // keep the bus busy for MaxL cycles
    bus_.request(req, now);
  }
}

Cycle VirtualContender::next_event(Cycle now) const {
  if (config_.policy == ContenderPolicy::kAlwaysCompete || comp_) {
    // Pending or holding: the bus's latch or completion frees the port.
    return bus_.can_request(config_.self) ? now + 1 : kNever;
  }
  // The latch rises on the first tick that sees BUDGi saturated while
  // the TuA has a request pending; the TuA raising one is an event of
  // its own core.
  if (!bus_.has_pending(config_.tua)) return kNever;
  if (holding_) {
    // A holder's budget cannot rise (increment <= scale); the completion
    // is a bus event.
    return credits_->saturated(credit_slot()) ? now + 1 : kNever;
  }
  // The tick at cycle now + j sees j - 1 further updates.
  const Cycle ticks = credits_->ticks_to_saturation(credit_slot());
  return ticks == kNever ? kNever : now + 1 + ticks;
}

void VirtualContender::skip(Cycle /*from*/, Cycle /*cycles*/) {
  if (config_.policy == ContenderPolicy::kAlwaysCompete) comp_ = true;
}

void VirtualContender::on_grant(const bus::BusRequest& /*request*/,
                                Cycle /*now*/, Cycle /*hold*/) {
  // COMPi is reset whenever core i is granted access to the bus (Table I).
  comp_ = false;
  holding_ = true;
  ++grants_;
}

void VirtualContender::on_complete(const bus::BusRequest& /*request*/,
                                   Cycle /*now*/) {
  holding_ = false;
}

}  // namespace cbus::core
