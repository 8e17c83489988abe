#include "core/credit_state.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "vec/vec.hpp"

namespace cbus::core {

CreditState::CreditState(CbaConfig config) : config_(std::move(config)) {
  config_.validate();
  owned_.resize(config_.n_masters);
  attach(owned_.data(), nullptr, 1);
}

CreditState::CreditState(CbaConfig config, const CreditLaneView& view)
    : config_(std::move(config)) {
  config_.validate();
  CBUS_EXPECTS_MSG(view.slots >= config_.n_masters,
                   "credit view smaller than n_masters");
  CBUS_EXPECTS(view.values != nullptr && view.incs != nullptr);
  attach(view.values, view.incs, view.stride);
}

void CreditState::attach(std::uint64_t* values, std::uint64_t* incs,
                         std::size_t stride) {
  values_ = values;
  incs_ = incs;
  stride_ = stride;
  synced_.resize(config_.n_masters, 0);
  slots_mask_ = ~std::uint32_t{0} >> (kMaxMasters - config_.n_masters);
  underflows_by_master_.resize(config_.n_masters, 0);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    CBUS_EXPECTS(config_.initial[m] <= config_.saturation[m]);
    value(m) = config_.initial[m];
    if (incs_ != nullptr) {
      incs_[static_cast<std::size_t>(m) * stride_] = config_.increment[m];
    }
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

void CreditState::settle(MasterId m) {
  if (m >= config_.n_masters) return;
  const Cycle ticks = ticks_ - synced_[m];
  if (ticks == 0) return;
  synced_[m] = ticks_;
  if (m != holder_) {
    value(m) = recovered(m, ticks);
    return;
  }
  const Paid p = paid(m, ticks);
  value(m) = p.value;
  underflow_clamps_ += p.clamped;
  underflows_by_master_[m] += p.clamped;
}

void CreditState::change_holder(MasterId holder) {
  // Before the switch every other slot's unsettled ticks are recovery
  // only and the old holder's charge only; after it, the same holds for
  // the new holder.
  settle(holder_);
  settle(holder);
  holder_ = holder;
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

Cycle CreditState::ticks_to_eligible(std::uint32_t mask) const {
  Cycle ticks = kNever;
  for (std::uint32_t p = mask & slots_mask_; p != 0; p &= p - 1) {
    const auto m = static_cast<MasterId>(std::countr_zero(p));
    ticks = std::min(ticks, ticks_to_reach(current(m), config_.increment[m],
                                           config_.threshold[m]));
  }
  return ticks;
}

Cycle CreditState::ticks_to_saturation(MasterId m) const {
  CBUS_EXPECTS(m < config_.n_masters);
  return ticks_to_reach(current(m), config_.increment[m],
                        config_.saturation[m]);
}

void CreditState::charge(MasterId m, Cycle occupancy) {
  CBUS_EXPECTS(m < config_.n_masters);
  settle(m);
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
  return current(m);
}

double CreditState::budget_cycles(MasterId m) const {
  return static_cast<double>(budget(m)) / static_cast<double>(config_.scale);
}

void CreditState::set_budget(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS(units <= config_.saturation[m]);
  settle(m);
  value(m) = units;
}

void CreditState::set_increment(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS_MSG(units >= 1 && units <= config_.scale,
                   "increment must be in [1, scale]");
  settle(m);
  config_.increment[m] = units;
  if (incs_ != nullptr) {
    incs_[static_cast<std::size_t>(m) * stride_] = units;
  }
}

bus::HwCost CreditState::hw_cost() const {
  unsigned total_bits = 0;
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    unsigned bits = 0;
    for (std::uint64_t v = config_.saturation[m]; v != 0; v >>= 1) ++bits;
    total_bits += std::max(bits, 1u);
  }
  // Per master: saturating adder + threshold comparator ~ 2 LUTs per bit
  // on 4-LUT fabric, plus the AND into the request lines.
  const unsigned luts = 2 * total_bits + config_.n_masters;
  return bus::HwCost{total_bits, luts,
                     "per-master saturating budget counter + threshold "
                     "comparator + request gating"};
}

}  // namespace cbus::core
