#include "bus/bus.hpp"

#include <algorithm>

namespace cbus::bus {

NonSplitBus::NonSplitBus(const BusConfig& config, Arbiter& arbiter,
                         BusSlave& slave)
    : sim::Component("bus"),
      config_(config),
      arbiter_(arbiter),
      slave_(slave),
      masters_(config.n_masters, nullptr),
      pending_(config.n_masters),
      arrival_(config.n_masters, 0) {
  CBUS_EXPECTS(config.n_masters >= 1 && config.n_masters <= kMaxMasters);
  CBUS_EXPECTS(arbiter.n_masters() == config.n_masters);
  stats_.master.resize(config.n_masters);
}

void NonSplitBus::connect_master(MasterId master, BusMaster& callbacks) {
  CBUS_EXPECTS(master < config_.n_masters);
  masters_[master] = &callbacks;
}

void NonSplitBus::request(const BusRequest& request, Cycle now) {
  CBUS_EXPECTS(request.master < config_.n_masters);
  CBUS_EXPECTS_MSG(!pending_[request.master].has_value(),
                   "master already has a pending request (non-split bus)");
  CBUS_EXPECTS_MSG(!is_holding(request.master),
                   "master is holding the bus and cannot raise a request");
  BusRequest stamped = request;
  stamped.issued_at = now;
  pending_[request.master] = stamped;
  pending_bits_ |= 1u << request.master;
  arrival_[request.master] = now;
  ++stats_.master[request.master].requests;
  if (observer_ != nullptr) observer_->on_request(stamped, now);
}

void NonSplitBus::arbitrate(Cycle now, Cycle start) {
  std::uint32_t candidates = pending_bits_;
  if (candidates == 0) return;
  if (filter_ != nullptr) candidates = filter_->eligible(candidates, now);
  if (candidates == 0) return;

  const ArbInput input{candidates, std::span<const Cycle>(arrival_), start};
  const MasterId winner = arbiter_.pick(input);
  if (winner == kNoMaster) return;  // e.g. TDMA outside the owner's slot
  CBUS_ASSERT((candidates >> winner) & 1u);

  arbiter_.on_grant(winner, now);
  if (filter_ != nullptr) filter_->on_grant(winner, now);

  latched_grant_ = *pending_[winner];
  pending_[winner].reset();
  pending_bits_ &= ~(1u << winner);
  if (masters_[winner] != nullptr) {
    masters_[winner]->on_latch(*latched_grant_, now);
  }

  auto& pm = stats_.master[winner];
  ++pm.grants;
  const Cycle wait = start - latched_grant_->issued_at;
  pm.wait_cycles += wait;
  pm.max_wait = std::max(pm.max_wait, wait);
}

void NonSplitBus::begin_latched(Cycle now) {
  CBUS_ASSERT(latched_grant_.has_value());
  CBUS_ASSERT(!transfer_.has_value());
  const BusRequest req = *latched_grant_;
  latched_grant_.reset();

  const Cycle hold = req.forced_hold > 0
                         ? req.forced_hold
                         : slave_.begin_transaction(req, now);
  CBUS_ASSERT(hold >= 1);
  transfer_ = Transfer{req, hold, hold};
  stats_.master[req.master].hold_cycles += hold;
  if (observer_ != nullptr) observer_->on_transfer_start(req, now, hold);
  if (masters_[req.master] != nullptr) {
    masters_[req.master]->on_grant(req, now, hold);
  }
}

void NonSplitBus::tick(Cycle now) {
  // 1. A grant latched last cycle starts its transfer in this cycle.
  tick_begin(now);

  // 2. Credit bookkeeping sees the holder of *this* cycle. (The batch
  // credit engine replaces this call with one vertical SoA update
  // across lanes, between the same two phases.)
  if (filter_ != nullptr) filter_->on_cycle(holder(), now);

  // 3. Advance the transfer in flight / arbitrate.
  tick_finish(now);
}

Cycle NonSplitBus::next_event(Cycle now) const {
  if (transfer_.has_value()) return now + transfer_->remaining;
  if (latched_grant_.has_value()) return now + 1;
  if (pending_bits_ == 0) return kNever;
  // Arbitration at `now` found no eligible request (or the arbiter
  // declined, e.g. TDMA): without a filter to say when that changes,
  // arbitrate again next cycle.
  if (filter_ == nullptr) return now + 1;
  return filter_->next_eligible(pending_bits_, now);
}

void NonSplitBus::skip(Cycle from, Cycle cycles) {
  stats_.total_cycles += cycles;
  if (transfer_.has_value()) {
    CBUS_ASSERT(transfer_->remaining > cycles);
    transfer_->remaining -= cycles;
    stats_.busy_cycles += cycles;
  } else {
    stats_.idle_cycles += cycles;
  }
  if (filter_ != nullptr) filter_->skip(holder(), from, cycles);
}

void NonSplitBus::complete_transfer(Cycle now) {
  const BusRequest done = transfer_->request;
  const Cycle done_hold = transfer_->hold;
  transfer_.reset();
  arbiter_.on_complete(done.master, done_hold);
  if (done.forced_hold == 0) slave_.complete_transaction(done, now);
  ++stats_.master[done.master].completions;
  if (observer_ != nullptr) observer_->on_transfer_complete(done, now);
  if (masters_[done.master] != nullptr) {
    masters_[done.master]->on_complete(done, now);
  }
  // Overlapped re-arbitration: next transfer starts at now + 1 with no
  // idle gap.
  if (config_.overlapped_arbitration && pending_bits_ != 0) {
    arbitrate(now, now + 1);
  }
}

void NonSplitBus::reset_statistics() {
  stats_ = BusStatistics{};
  stats_.master.resize(config_.n_masters);
}

}  // namespace cbus::bus
