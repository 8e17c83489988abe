#include "platform/multicore.hpp"

#include "bus/split_bus.hpp"
#include "common/contracts.hpp"
#include "metrics/probes.hpp"

namespace cbus::platform {

namespace {

/// Segment `segment`'s credit config carved from the global one: the
/// slots of its home cores keep their GLOBAL Table-I parameters (rates,
/// caps, thresholds), so the paper's per-core budget shapes each core on
/// its home segment unchanged; on the single bus (one segment, local slot
/// = master id) this is the global config itself. Bridge ingress slots
/// are credit-exempt (full recovery, zero threshold) because the traffic
/// they carry is charged at the SOURCE: the interconnect debits every
/// foreign-hop occupancy against the origin core's home budget
/// (EligibilityFilter::on_remote_occupancy -> CreditState::charge), so a
/// budget bounds its core's occupancy of the whole interconnect and
/// gating the bridge slot too would charge the same cycles twice and
/// starve cross-segment flows.
[[nodiscard]] core::CbaConfig segment_cba(const core::CbaConfig& global,
                                          const bus::Interconnect& ic,
                                          std::uint32_t segment) {
  const std::uint32_t n_local = ic.n_local_masters(segment);
  core::CbaConfig cfg;
  cfg.n_masters = n_local;
  cfg.max_latency = global.max_latency;
  cfg.scale = global.scale;
  const std::uint64_t bridge_cap = global.scale * global.max_latency;
  cfg.increment.assign(n_local, global.scale);
  cfg.saturation.assign(n_local, bridge_cap);
  cfg.threshold.assign(n_local, 0);
  cfg.initial.assign(n_local, bridge_cap);
  for (MasterId m = 0; m < global.n_masters; ++m) {
    if (ic.home_segment(m) != segment) continue;
    const std::uint32_t slot = ic.local_slot(m);
    cfg.increment[slot] = global.increment[m];
    cfg.saturation[slot] = global.saturation[m];
    cfg.threshold[slot] = global.threshold[m];
    cfg.initial[slot] = global.initial[m];
  }
  cfg.validate();
  return cfg;
}

}  // namespace

Multicore::Multicore(const PlatformConfig& config, std::uint64_t seed,
                     cpu::OpStream& tua,
                     const std::vector<cpu::OpStream*>& contenders,
                     core::CreditLaneView credit_lane,
                     core::BatchCreditEngine* engine, std::size_t engine_lane)
    : config_(config), bank_(seed), engine_(engine) {
  config_.validate();
  CBUS_EXPECTS_MSG(contenders.size() + 1 <= config_.n_cores,
                   "more workloads than cores");
  CBUS_EXPECTS_MSG(engine == nullptr ||
                       (!credit_lane.empty() && config_.cba.has_value() &&
                        !config_.topology.segmented() &&
                        config_.bus_protocol == BusProtocol::kNonSplit),
                   "the batch credit engine serves CBA machines on the "
                   "single non-split bus, over a CreditSoA lane");

  // Bank-draw order is part of the reproducibility contract: the
  // single-bus arbiter draws its channel seeds BEFORE the L2 placement
  // seeds, exactly as it always has. The segmented path is new, so its
  // per-segment arbiters draw after the L2 (the interconnect needs the
  // slave reference at construction), in segment order.
  if (!config_.topology.segmented()) {
    arbiter_ = bus::make_arbiter(config_.arbiter, config_.n_cores, bank_,
                                 config_.tdma_slot);
  }
  l2_ = std::make_unique<mem::PartitionedL2>(
      config_.n_cores, config_.l2_partition, config_.timings, bank_,
      config_.dram);

  const bus::BusConfig bus_cfg{config_.n_cores,
                               config_.overlapped_arbitration};
  if (config_.topology.segmented()) {
    bus_ = std::make_unique<bus::SegmentedInterconnect>(
        config_.segmented_config(), *l2_,
        [this](std::uint32_t n_local, std::uint32_t /*segment*/) {
          return bus::make_arbiter(config_.arbiter, n_local, bank_,
                                   config_.tdma_slot);
        });
  } else if (config_.bus_protocol == BusProtocol::kSplit) {
    bus_ = std::make_unique<bus::SplitBus>(bus_cfg, *arbiter_, *l2_);
  } else {
    bus_ = std::make_unique<bus::NonSplitBus>(bus_cfg, *arbiter_, *l2_);
  }

  if (config_.cba.has_value()) {
    // Per-segment credit accounting: one CreditFilter per segment over
    // that segment's local slots, carved out of the (optional) external
    // SoA lane in segment order.
    CBUS_EXPECTS_MSG(credit_lane.empty() ||
                         credit_lane.slots >= config_.credit_slots(),
                     "credit lane smaller than the interconnect's credit "
                     "slot count");
    std::size_t offset = 0;
    for (std::uint32_t s = 0; s < bus_->n_segments(); ++s) {
      const std::uint32_t n_local = bus_->n_local_masters(s);
      core::CbaConfig seg_cfg = segment_cba(*config_.cba, *bus_, s);
      auto filter =
          credit_lane.empty()
              ? std::make_unique<core::CreditFilter>(std::move(seg_cfg))
              : std::make_unique<core::CreditFilter>(
                    std::move(seg_cfg),
                    credit_lane.subview(offset, n_local));
      offset += n_local;
      bus_->set_filter(s, filter.get());
      filters_.push_back(std::move(filter));
    }
    if (config_.mode == PlatformMode::kWcetEstimation &&
        config_.tua_zero_initial_budget) {
      // Measurements for the TuA are collected under worst conditions,
      // "setting its initial budget to zero" (paper §III-B).
      core::CreditState& home = filters_[bus_->home_segment(0)]->state();
      home.set_budget(bus_->local_slot(0), 0);
    }
  }

  // Master 0: the task under analysis.
  cores_.push_back(std::make_unique<cpu::InOrderCore>(0, config_.core, tua,
                                                      *bus_, bank_));
  // Real contender cores.
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    CBUS_EXPECTS(contenders[i] != nullptr);
    cores_.push_back(std::make_unique<cpu::InOrderCore>(
        static_cast<MasterId>(i + 1), config_.core, *contenders[i], *bus_,
        bank_));
  }

  // WCET-estimation mode: the remaining masters become Table-I contenders.
  if (config_.mode == PlatformMode::kWcetEstimation) {
    for (MasterId m = static_cast<MasterId>(cores_.size());
         m < config_.n_cores; ++m) {
      core::VirtualContenderConfig vc;
      vc.self = m;
      vc.tua = 0;
      vc.hold = config_.contender_hold;
      vc.policy = config_.contender_policy;
      if (engine_ != nullptr) {
        // Batched fast path: the engine's contender bank drives this
        // slot's COMP latch vertically across lanes -- no component.
        engine_->add_contender(engine_lane, vc, bus());
        continue;
      }
      // The contender's BUDGi lives in its home segment's credit state,
      // at its local slot.
      vc.credit_slot = bus_->local_slot(m);
      const core::CreditState* credits = nullptr;
      if (!filters_.empty()) {
        credits = &filters_[bus_->home_segment(m)]->state();
      }
      virtual_contenders_.push_back(
          std::make_unique<core::VirtualContender>(vc, *bus_, credits));
    }
  }

  // Credit controller over the single-bus credit state. The STATIC
  // controller exists for introspection but is never registered with the
  // kernel: `controller = static` machines tick the exact component list
  // they always have, keeping pre-controller campaigns byte-identical.
  if (config_.cba.has_value() && !config_.topology.segmented()) {
    controller_ = ctrl::make_controller(
        config_.controller, filters_.front()->state(), bus_->statistics());
  }

  // Tick order: cores, then contenders, then the bus (see header), then
  // the adaptive controller (it reads the bus statistics the cycle just
  // produced and retunes increments for the next one).
  //
  // Engine mode keeps only the cores in the kernel: the engine stage
  // runs the contender bank, the phased bus tick and the vertical credit
  // update in that same order, and the staged batch registers the
  // adaptive controller as a post-stage component.
  for (auto& core_ptr : cores_) kernel_.add(*core_ptr);
  if (engine_ != nullptr) {
    engine_->set_lane(engine_lane, bus(), filters_.front()->state());
    return;
  }
  for (auto& vc : virtual_contenders_) kernel_.add(*vc);
  kernel_.add(*bus_);
  if (controller_ && config_.controller.adaptive()) {
    kernel_.add(*controller_);
  }
}

RunResult Multicore::run(Cycle max_cycles) {
  CBUS_EXPECTS_MSG(engine_ == nullptr,
                   "engine-mode machines run as lanes of a staged batch");
  const bool finished =
      kernel_.run_until([this]() { return tua_done(); }, max_cycles);
  return collect(finished, kernel_.now());
}

RunResult Multicore::collect(bool finished, Cycle executed) const {
  RunResult result;
  result.tua_finished = finished && cores_.front()->done();
  result.tua_cycles = cores_.front()->done() ? cores_.front()->finish_cycle()
                                             : executed;
  result.tua_stats = cores_.front()->stats();
  result.bus_stats = bus_->statistics();
  result.core_finish.reserve(cores_.size());
  for (const auto& c : cores_) {
    result.core_finish.push_back(c->done() ? c->finish_cycle() : 0);
  }
  metrics::probe_tua(result.tua_cycles, result.tua_stats, result.record);
  metrics::probe_bus(result.bus_stats, result.record);
  metrics::probe_fairness(result.bus_stats, result.record);
  // Credits: underflows summed over the segment filters, each master's
  // budget read from its home segment's filter at its local slot.
  std::vector<double> budgets;
  for (const auto& f : filters_) {
    result.credit_underflows += f->state().underflow_clamps();
  }
  if (!filters_.empty()) {
    budgets.resize(config_.n_cores);
    for (MasterId m = 0; m < config_.n_cores; ++m) {
      const core::CreditState& home = filters_[bus_->home_segment(m)]->state();
      budgets[m] = home.budget_cycles(bus_->local_slot(m));
    }
  }
  metrics::probe_credit(result.credit_underflows, budgets, result.record);
  metrics::probe_segments(segmented(), result.bus_stats, result.record);
  // ctrl.* keys appear only for adaptive machines (probe_ctrl skips the
  // static controller), so static records keep the pre-controller shape.
  metrics::probe_ctrl(controller_.get(), result.record);
  return result;
}

}  // namespace cbus::platform
