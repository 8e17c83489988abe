#include "core/batch_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "vec/vec.hpp"

namespace cbus::core {

BatchCreditEngine::BatchCreditEngine(CreditSoA& soa, const CbaConfig& config,
                                     std::size_t lanes)
    : soa_(soa),
      config_(config),
      lanes_(lanes),
      padded_(static_cast<std::uint32_t>(soa.padded_lanes())),
      buses_(lanes, nullptr),
      states_(lanes, nullptr),
      caps_(config.saturation.begin(),
            config.saturation.begin() + config.n_masters),
      charge_(config.n_masters, 0),
      clamped_(config.n_masters, 0) {
  CBUS_EXPECTS_MSG(lanes >= 1 && lanes <= 64,
                   "engine masks are single words: <= 64 lanes");
  CBUS_EXPECTS(soa.lanes() == lanes);
  CBUS_EXPECTS(soa.slots_per_lane() >= config.n_masters);
}

void BatchCreditEngine::set_lane(std::size_t lane, bus::NonSplitBus& bus,
                                 CreditState& state) {
  CBUS_EXPECTS(lane < lanes_);
  buses_[lane] = &bus;
  states_[lane] = &state;
}

void BatchCreditEngine::add_contender(std::size_t lane,
                                      const VirtualContenderConfig& config,
                                      bus::NonSplitBus& bus) {
  CBUS_EXPECTS(lane < lanes_);
  CBUS_EXPECTS_MSG(config.credit_slot == kNoMaster,
                   "the engine serves the single-bus topology: a contender "
                   "watches its own slot");
  // The bank list is lane-invariant (lanes are replicas): lane 0 creates
  // the banks in registration (= serial tick) order, later lanes must
  // match them.
  std::size_t bank = banks_.size();
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b].config.self == config.self) {
      bank = b;
      break;
    }
  }
  if (bank == banks_.size()) {
    CBUS_EXPECTS_MSG(lane == 0, "contender banks must match across lanes");
    Bank fresh{config, 0, 0};
    if (config.policy == ContenderPolicy::kCompLatch) {
      fresh.sat_index = sat_slots_.size();
      sat_slots_.push_back(config.self);
      sat_caps_.push_back(config_.saturation[config.self]);
      sat_out_.push_back(0);
    }
    banks_.push_back(fresh);
  } else {
    CBUS_EXPECTS(banks_[bank].config.policy == config.policy &&
                 banks_[bank].config.hold == config.hold &&
                 banks_[bank].config.tua == config.tua);
  }
  auto proxy = std::make_unique<Proxy>();
  proxy->engine = this;
  proxy->lane = lane;
  proxy->bank = bank;
  bus.connect_master(config.self, *proxy);
  proxies_.push_back(std::move(proxy));
}

void BatchCreditEngine::Proxy::on_latch(const bus::BusRequest& /*request*/,
                                        Cycle /*now*/) {
  // Arbitration consumed the pending request; until on_grant the lane is
  // neither pending nor holding, so the bank may legally re-request --
  // exactly what VirtualContender does in that window.
  engine->banks_[bank].pend &= ~(std::uint64_t{1} << lane);
}

void BatchCreditEngine::Proxy::on_grant(const bus::BusRequest& /*request*/,
                                        Cycle /*now*/, Cycle /*hold*/) {
  // COMPi is reset whenever core i is granted access to the bus (Table I).
  const std::uint64_t bit = std::uint64_t{1} << lane;
  engine->banks_[bank].comp &= ~bit;
  engine->banks_[bank].hold |= bit;
}

void BatchCreditEngine::Proxy::on_complete(const bus::BusRequest& /*request*/,
                                           Cycle /*now*/) {
  engine->banks_[bank].hold &= ~(std::uint64_t{1} << lane);
}

bool BatchCreditEngine::comp(std::size_t lane, MasterId m) const {
  for (const Bank& b : banks_) {
    if (b.config.self == m) return ((b.comp >> lane) & 1u) != 0;
  }
  return false;
}

void BatchCreditEngine::on_cycle(Cycle now, std::span<const std::size_t> live) {
  std::uint64_t live_word = 0;
  for (const std::size_t l : live) live_word |= std::uint64_t{1} << l;

  // Phase 0: the contender bank -- Table I's COMP latch, vertically.
  // COMPi latches when BUDGi is saturated AND the TuA has a request
  // pending; a latched contender competes whenever it legally can.
  // Serial order is per lane: contenders tick after cores, ascending
  // master id -- a contender reads only its own latch, its own BUDGi and
  // the TuA's pending flag, so running slot-major across lanes observes
  // the very same values.
  if (!banks_.empty()) {
    // The saturation test only matters on lanes whose latch is still
    // down AND whose TuA has a request pending; both are usually rare
    // (a saturated contender stays latched until granted), so the whole
    // query is skipped most cycles.
    if (!sat_slots_.empty()) {
      std::uint64_t need = 0;
      for (const Bank& bank : banks_) {
        if (bank.config.policy == ContenderPolicy::kCompLatch) {
          need |= ~bank.comp & live_word;
        }
      }
      if (need != 0) {
        std::uint64_t tua_pending = 0;
        const MasterId tua = banks_.front().config.tua;
        for (const std::size_t l : live) {
          if (buses_[l]->has_pending(tua)) tua_pending |= std::uint64_t{1} << l;
        }
        if ((tua_pending & need) != 0) {
          const vec::SatQuery query{
              soa_.values_row(0),
              sat_slots_.data(),
              sat_caps_.data(),
              sat_out_.data(),
              padded_,
              static_cast<std::uint32_t>(lanes_),
              static_cast<std::uint32_t>(sat_slots_.size()),
          };
          vec::sat_words(query);
          for (Bank& bank : banks_) {
            if (bank.config.policy == ContenderPolicy::kCompLatch) {
              bank.comp |= sat_out_[bank.sat_index] & tua_pending & live_word;
            }
          }
        }
      }
    }
    for (Bank& bank : banks_) {
      if (bank.config.policy != ContenderPolicy::kCompLatch) {
        bank.comp |= live_word;  // always compete (non-CBA baseline)
      }
    }
  }

  // Phase 0b, bank-major: latched contenders raise requests against the
  // PRE-tick_begin bus state (serial order: contenders tick before the
  // bus). The candidate set per bank is pure word arithmetic on the
  // vertical mirrors -- comp set, not pending, not holding -- and is
  // almost always zero, so the common cycle does one three-AND test per
  // bank and no per-lane probing at all. Lanes are independent, so
  // draining one bank across all lanes before the next preserves each
  // lane's own request order (banks are registered in ascending master
  // order, the serial tick order).
  for (Bank& bank : banks_) {
    std::uint64_t cand = bank.comp & ~bank.pend & ~bank.hold & live_word;
    while (cand != 0) {
      const auto l = static_cast<std::size_t>(std::countr_zero(cand));
      cand &= cand - 1;
      bus::BusRequest req;
      req.master = bank.config.self;
      req.kind = MemOpKind::kLoad;
      req.forced_hold = bank.config.hold;  // bus busy for MaxL cycles
      buses_[l]->request(req, now);
      bank.pend |= std::uint64_t{1} << l;
    }
  }

  // Phase 1: each lane's latched grant begins its transfer and this
  // cycle's holder becomes known -- the mask the Table-I update charges.
  std::fill(charge_.begin(), charge_.end(), 0);
  for (const std::size_t l : live) {
    bus::NonSplitBus& bus = *buses_[l];
    bus.tick_begin(now);
    const MasterId holder = bus.holder();
    if (holder != kNoMaster) charge_[holder] |= std::uint64_t{1} << l;
  }

  // Phase 2: the Table-I update -- every counter slot's vertical row in
  // one call. Retired lanes are masked out (their machines stopped
  // ticking, so their counters must freeze exactly where the serial run
  // left them).
  const vec::CreditCycle cycle{
      soa_.values_row(0),
      soa_.incs_row(0),
      caps_.data(),
      charge_.data(),
      clamped_.data(),
      config_.scale,
      live_word,
      padded_,
      static_cast<std::uint32_t>(lanes_),
      config_.n_masters,
  };
  vec::credit_tick_cycle(cycle);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    std::uint64_t clamped = clamped_[m];
    while (clamped != 0) {
      const auto l = static_cast<std::size_t>(std::countr_zero(clamped));
      clamped &= clamped - 1;
      states_[l]->note_clamp(m);
    }
  }

  // Phase 3: transfer advance / completion / re-arbitration, which reads
  // the post-update eligibility exactly as the serial bus tick does.
  for (const std::size_t l : live) buses_[l]->tick_finish(now);
}

}  // namespace cbus::core
