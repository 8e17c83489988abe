// Multicore: one fully-wired instance of the modelled SoC.
//
// Construction builds everything for ONE run: a fresh RandBank seeded with
// the run seed feeds the arbiter, every cache's placement/replacement and
// nothing else -- so a run is exactly reproducible and distinct subsystems
// consume independent randomness.
//
// Wiring and tick order (determinism contract):
//   TuA core (master 0) -> other real cores -> the one component driving
//   every WCET-mode virtual contender -> the bus.
// Cores and contenders raise requests during their tick; the bus
// arbitrates the same cycle and starts transfers the next cycle (1-cycle
// arbitration). The contenders' horizon assumes they tick before the bus
// (core/virtual_contender.hpp).
//
// A Multicore is cheap to build, and it and every part it owns are built
// for one run and never reset: campaigns construct a fresh machine per
// run.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/bus.hpp"
#include "bus/segmented.hpp"
#include "core/batch_engine.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "ctrl/controller.hpp"
#include "cpu/in_order_core.hpp"
#include "cpu/op_stream.hpp"
#include "mem/partitioned_l2.hpp"
#include "metrics/record.hpp"
#include "platform/platform_config.hpp"
#include "rng/rand_bank.hpp"
#include "sim/kernel.hpp"

namespace cbus::platform {

/// Everything a campaign wants to know about one finished run.
///
/// `record` is the probe-extracted metric record (see
/// metrics/probes.hpp for the key catalog) -- the form campaigns
/// aggregate and experiment sinks render. The raw statistics structs
/// stay alongside for tests and tools that inspect a single run.
struct RunResult {
  bool tua_finished = false;
  Cycle tua_cycles = 0;  ///< execution time of the task under analysis
  cpu::CoreStats tua_stats;
  bus::BusStatistics bus_stats;
  std::uint64_t credit_underflows = 0;
  std::vector<Cycle> core_finish;  ///< per real core; 0 if unfinished
  metrics::Record record;          ///< standard per-run metrics
};

class Multicore {
 public:
  /// `tua` runs on master 0. `contenders` (possibly empty) run on masters
  /// 1..k as real cores. In WCET-estimation mode, masters without a real
  /// workload become Table-I virtual contenders; in operation mode they
  /// stay idle (isolation).
  ///
  /// Streams are NOT reset here -- campaigns reset them with per-run seeds
  /// before constructing the Multicore.
  ///
  /// `credit_lane` (optional, CBA setups only) places the credit counters
  /// in external storage -- a core::CreditSoA lane -- instead of an own
  /// allocation, so a batch of replicas keeps its credit state contiguous.
  /// Must outlive the machine; behaviour is storage-independent.
  ///
  /// `engine` (optional; requires a non-empty `credit_lane`, CBA, the
  /// non-split protocol and the single-bus topology) hands this machine's
  /// Table-I work to a batch credit engine as lane `engine_lane`: no
  /// VirtualContender component is built (the engine's contender bank
  /// replaces it) and the bus is ticked by the engine,
  /// not the kernel. Such a machine runs ONLY as a lane of a staged
  /// BatchKernel that registers kernel().components() and, for an
  /// adaptive controller, controller() as a post-stage component -- run()
  /// asserts. Campaigns pass neither `credit_lane` nor `engine`;
  /// perfbench's traced replay still does.
  Multicore(const PlatformConfig& config, std::uint64_t seed,
            cpu::OpStream& tua,
            const std::vector<cpu::OpStream*>& contenders = {},
            core::CreditLaneView credit_lane = {},
            core::BatchCreditEngine* engine = nullptr,
            std::size_t engine_lane = 0);

  Multicore(const Multicore&) = delete;
  Multicore& operator=(const Multicore&) = delete;

  /// Run until the TuA finishes (or `max_cycles`); returns the result.
  RunResult run(Cycle max_cycles = 50'000'000);

  // --- external stepping (perfbench's lockstep replay) --------------------
  /// run()'s stop predicate: the TuA (master 0) has finished.
  [[nodiscard]] bool tua_done() const noexcept {
    return cores_.front()->done();
  }

  /// Assemble the RunResult after external (batched) stepping. `fired` is
  /// the lane's run_until flag; `executed_cycles` the batch clock, used as
  /// the TuA time of unfinished runs (exactly run()'s kernel().now()).
  [[nodiscard]] RunResult harvest(bool fired, Cycle executed_cycles) const {
    return collect(fired, executed_cycles);
  }

  // --- introspection (tests, benches) -----------------------------------
  /// The interconnect, whatever its protocol and topology.
  [[nodiscard]] bus::Interconnect& interconnect() noexcept { return *bus_; }
  /// The non-split single bus. Precondition: bus = non-split on the
  /// single-bus topology.
  [[nodiscard]] bus::NonSplitBus& bus() {
    auto* flat = dynamic_cast<bus::NonSplitBus*>(bus_.get());
    CBUS_EXPECTS_MSG(flat != nullptr, "not a non-split single-bus machine");
    return *flat;
  }
  /// The segmented interconnect (null off the segmented topology).
  [[nodiscard]] bus::SegmentedInterconnect* segmented() const {
    return dynamic_cast<bus::SegmentedInterconnect*>(bus_.get());
  }
  /// Segment `segment`'s Table-I credit counters, installed as its bus
  /// filter; their master ids are the segment's local slots
  /// (interconnect().local_slot). Null without a CBA config.
  [[nodiscard]] core::CreditState* credit_filter(
      std::uint32_t segment = 0) noexcept {
    return segment < credits_.size() ? credits_[segment].get() : nullptr;
  }
  [[nodiscard]] mem::PartitionedL2& l2() noexcept { return *l2_; }
  [[nodiscard]] cpu::InOrderCore& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] std::size_t real_cores() const noexcept {
    return cores_.size();
  }
  /// The adaptive controller over the Table-I increments: null unless
  /// `controller = adaptive` on a single-bus CBA machine.
  [[nodiscard]] ctrl::AdaptiveController* controller() noexcept {
    return controller_.get();
  }
  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] RunResult collect(bool finished, Cycle executed) const;

  PlatformConfig config_;
  rng::RandBank bank_;
  sim::Kernel kernel_;

  /// The single-bus arbiter (null on the segmented topology, whose
  /// segments own theirs).
  std::unique_ptr<bus::Arbiter> arbiter_;
  /// One set of credit counters per interconnect segment, each its
  /// segment's bus filter (empty without CBA).
  std::vector<std::unique_ptr<core::CreditState>> credits_;
  std::unique_ptr<ctrl::AdaptiveController> controller_;
  std::unique_ptr<mem::PartitionedL2> l2_;
  std::unique_ptr<bus::Interconnect> bus_;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores_;
  /// Every Table-I contender of a WCET-mode machine (null without any).
  std::unique_ptr<core::VirtualContender> contenders_;
  /// Non-null when this machine is a lane of a batch credit engine.
  core::BatchCreditEngine* engine_ = nullptr;
};

}  // namespace cbus::platform
