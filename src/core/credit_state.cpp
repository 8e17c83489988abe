#include "core/credit_state.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "vec/vec.hpp"

namespace cbus::core {

CreditState::CreditState(CbaConfig config) : config_(std::move(config)) {
  config_.validate();
  owned_.resize(config_.n_masters);
  values_ = owned_.data();
  stride_ = 1;
  underflows_by_master_.resize(config_.n_masters, 0);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    CBUS_EXPECTS(config_.initial[m] <= config_.saturation[m]);
    value(m) = config_.initial[m];
  }
}

CreditState::CreditState(CbaConfig config, const CreditLaneView& view)
    : config_(std::move(config)) {
  config_.validate();
  CBUS_EXPECTS_MSG(view.slots >= config_.n_masters,
                   "credit view smaller than n_masters");
  CBUS_EXPECTS(view.values != nullptr && view.incs != nullptr);
  values_ = view.values;
  incs_ = view.incs;
  stride_ = view.stride;
  underflows_by_master_.resize(config_.n_masters, 0);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    CBUS_EXPECTS(config_.initial[m] <= config_.saturation[m]);
    value(m) = config_.initial[m];
    incs_[static_cast<std::size_t>(m) * stride_] = config_.increment[m];
  }
}

CreditSoA::CreditSoA(std::size_t lanes, const CbaConfig& config,
                     std::size_t slots_per_lane)
    : lanes_(lanes),
      slots_(std::max<std::size_t>(config.n_masters, slots_per_lane)),
      padded_((lanes + vec::kLaneAlign - 1) / vec::kLaneAlign *
              vec::kLaneAlign) {
  CBUS_EXPECTS(lanes >= 1);
  values_.resize(slots_ * padded_, 0);
  incs_.resize(slots_ * padded_, 0);
}

CreditLaneView CreditSoA::lane(std::size_t l) {
  CBUS_EXPECTS(l < lanes_);
  return CreditLaneView{values_.data() + l, incs_.data() + l, padded_,
                        slots_};
}

void CreditState::tick(MasterId holder) {
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    const std::uint64_t cap = config_.saturation[m];
    const std::uint64_t up = value(m) + config_.increment[m];
    if (m != holder) {
      // Recovery only, saturating at the cap.
      value(m) = std::min(up, cap);
      continue;
    }
    // Combined net update (recovery and occupancy charge in one step --
    // saturating the recovery before charging would silently lose one
    // unit per transaction and break the exact (N-1)*hold recovery
    // identity the fairness argument rests on). Clamp at zero like the
    // hardware counter would -- only reachable when MaxL was
    // under-estimated; tracked so experiments can detect it.
    if (config_.scale <= up) {
      value(m) = std::min(up - config_.scale, cap);
    } else {
      value(m) = 0;
      ++underflow_clamps_;
      ++underflows_by_master_[m];
    }
  }
}

namespace {

/// Holder-free ticks for a counter at `value` gaining `inc` per tick to
/// reach `target`.
[[nodiscard]] Cycle ticks_to_reach(std::uint64_t value, std::uint64_t inc,
                                   std::uint64_t target) {
  if (value >= target) return 0;
  if (inc == 0) return kNever;
  return (target - value + inc - 1) / inc;
}

}  // namespace

void CreditState::advance(MasterId holder, Cycle cycles) {
  // Division-free: every closed form below compares a product with the
  // distance to the bound. A product that overflows 64 bits (a jump to
  // an unbounded budget's end) is past any bound.
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    const std::uint64_t inc = config_.increment[m];
    std::uint64_t& v = value(m);
    std::uint64_t units = 0;
    if (m != holder) {
      // Saturating recovery composes: k steps of min(v + inc, cap) are
      // min(v + k * inc, cap).
      const std::uint64_t cap = config_.saturation[m];
      v = v >= cap || __builtin_mul_overflow(cycles, inc, &units) ||
                  units >= cap - v
              ? cap
              : v + units;
      continue;
    }
    // The holder's counter never exceeds its cap and increment <= scale,
    // so each tick subtracts net = scale - inc while v >= net and clamps
    // to zero (counted) from the first tick it cannot pay -- after which
    // every tick clamps again.
    const std::uint64_t net = config_.scale - inc;
    if (!__builtin_mul_overflow(cycles, net, &units) && units <= v) {
      v -= units;
      continue;
    }
    // The budget runs dry inside the jump (only with MaxL under-estimated):
    // the first v / net ticks pay (net > 0 here, as units > v >= 0), the
    // rest clamp.
    const Cycle clamped = cycles - v / net;
    v = 0;
    underflow_clamps_ += clamped;
    underflows_by_master_[m] += clamped;
  }
}

Cycle CreditState::ticks_to_eligible(std::uint32_t mask) const {
  Cycle ticks = kNever;
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    if (((mask >> m) & 1u) == 0) continue;
    const std::uint64_t thr = config_.threshold[m];
    const Cycle m_ticks = ticks_to_reach(value(m), config_.increment[m], thr);
    ticks = std::min(ticks, m_ticks);
  }
  return ticks;
}

Cycle CreditState::ticks_to_saturation(MasterId m) const {
  CBUS_EXPECTS(m < config_.n_masters);
  return ticks_to_reach(value(m), config_.increment[m], config_.saturation[m]);
}

void CreditState::charge(MasterId m, Cycle occupancy) {
  CBUS_EXPECTS(m < config_.n_masters);
  const std::uint64_t units = config_.scale * occupancy;
  if (value(m) >= units) {
    value(m) -= units;
  } else {
    // Count the shortfall in CYCLES, the same unit tick() clamps in
    // (one clamp per cycle that could not be paid), so
    // credit.underflows compares across topologies.
    const std::uint64_t shortfall = units - value(m);
    const std::uint64_t clamped_cycles =
        (shortfall + config_.scale - 1) / config_.scale;
    underflow_clamps_ += clamped_cycles;
    underflows_by_master_[m] += clamped_cycles;
    value(m) = 0;
  }
}

std::uint64_t CreditState::budget(MasterId m) const {
  CBUS_EXPECTS(m < config_.n_masters);
  return value(m);
}

double CreditState::budget_cycles(MasterId m) const {
  return static_cast<double>(budget(m)) / static_cast<double>(config_.scale);
}

void CreditState::set_budget(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS(units <= config_.saturation[m]);
  value(m) = units;
}

void CreditState::set_increment(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS_MSG(units >= 1 && units <= config_.scale,
                   "increment must be in [1, scale]");
  config_.increment[m] = units;
  if (incs_ != nullptr) {
    incs_[static_cast<std::size_t>(m) * stride_] = units;
  }
}

void CreditState::reset() {
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    value(m) = config_.initial[m];
  }
  underflow_clamps_ = 0;
  std::fill(underflows_by_master_.begin(), underflows_by_master_.end(), 0);
}

}  // namespace cbus::core
