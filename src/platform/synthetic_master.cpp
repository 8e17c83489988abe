#include "platform/synthetic_master.hpp"

#include <string>

#include "common/contracts.hpp"

namespace cbus::platform {

SyntheticMaster::SyntheticMaster(const SyntheticMasterConfig& config,
                                 bus::BusPort& bus)
    : sim::Component("synthetic-" + std::to_string(config.id)),
      config_(config),
      bus_(bus),
      gap_remaining_(config.initial_delay > 0 ? config.initial_delay
                                              : config.gap) {
  CBUS_EXPECTS(config.hold >= 1);
  bus_.connect_master(config_.id, *this);
}

void SyntheticMaster::tick(Cycle now) {
  if (done_ || in_flight_) return;

  if (gap_remaining_ > 0) {
    --gap_remaining_;
    return;
  }

  bus::BusRequest req;
  req.master = config_.id;
  req.kind = MemOpKind::kLoad;
  req.forced_hold = config_.hold;
  req.tag = issued_++;
  bus_.request(req, now);
  in_flight_ = true;
}

Cycle SyntheticMaster::next_event(Cycle now) const {
  if (done_ || in_flight_) return kNever;
  return now + 1 + gap_remaining_;
}

void SyntheticMaster::skip(Cycle /*from*/, Cycle cycles) {
  if (done_ || in_flight_) return;
  CBUS_ASSERT(cycles <= gap_remaining_);
  gap_remaining_ -= static_cast<std::uint32_t>(cycles);
}

void SyntheticMaster::on_grant(const bus::BusRequest& /*request*/,
                               Cycle /*now*/, Cycle /*hold*/) {}

void SyntheticMaster::on_complete(const bus::BusRequest& /*request*/,
                                  Cycle now) {
  CBUS_ASSERT(in_flight_);
  in_flight_ = false;
  ++completed_;
  gap_remaining_ = config_.gap;
  if (config_.requests != 0 && completed_ >= config_.requests) {
    done_ = true;
    finish_cycle_ = now;
    return;
  }
  if (config_.instant_rerequest && config_.gap == 0) {
    // Keep REQ asserted: the fresh request takes part in the overlapped
    // re-arbitration of this very cycle.
    bus::BusRequest req;
    req.master = config_.id;
    req.kind = MemOpKind::kLoad;
    req.forced_hold = config_.hold;
    req.tag = issued_++;
    bus_.request(req, now);
    in_flight_ = true;
  }
}

}  // namespace cbus::platform
