// BatchCreditEngine: the vectorized per-cycle stage of a batched
// single-bus campaign.
//
// A lockstep stripe runs N independent replicas of the same machine.
// The Table-I work -- credit recovery/charge, the saturation test
// feeding the virtual contenders' COMP latches -- is branch-light
// integer arithmetic repeated identically per lane, so the engine runs
// it VERTICALLY: one cbus::vec operation per counter slot across every
// live lane of the counter-major CreditSoA arena, instead of one scalar
// loop per lane.
//
// Identity argument (the non-negotiable contract): lanes share no
// state, so reordering work ACROSS lanes is unobservable; the only
// ordering that matters is each lane's own per-cycle sequence, which
// the serial kernel fixes as
//
//   cores tick (read pre-update counters, raise requests)
//   -> virtual contenders tick (read pre-update BUDGi, raise requests)
//   -> bus: begin latched grant (this cycle's holder becomes known)
//   -> bus: credit tick sees that holder (CreditFilter::on_cycle)
//   -> bus: transfer advance / completion / arbitration (reads
//      post-update eligibility, RNG drawn iff eligible candidates).
//
// on_cycle() below runs exactly these five phases, each phase across
// all lanes before the next: the contender bank (phase 0) replaces each
// lane's VirtualContender component, NonSplitBus::tick_begin /
// tick_finish split the bus tick around the vertical credit update, and
// clamp events are routed back to each lane's CreditState so the
// underflow accounting matches the scalar path to the count.
//
// Scope: the single NonSplitBus topology only, <= 64 lanes (masks are
// single words), CBA configured. Campaigns do not run the engine: every
// run skips quiet cycles on its own lane (platform::run_campaign_slice),
// which beats ticking every cycle across lanes. perfbench's traced
// replay is the last user, gated on these conditions plus
// vec::engine_enabled().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bus/bus.hpp"
#include "common/types.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "sim/batch_kernel.hpp"

namespace cbus::core {

class BatchCreditEngine final : public sim::BatchStage {
 public:
  /// An engine over `soa` (the batch's counter-major arena) for `lanes`
  /// replicas of a machine with credit config `config`.
  BatchCreditEngine(CreditSoA& soa, const CbaConfig& config,
                    std::size_t lanes);

  /// Register lane `lane`'s bus and credit state (every lane must be
  /// registered before the first on_cycle).
  void set_lane(std::size_t lane, bus::NonSplitBus& bus, CreditState& state);

  /// Register a WCET-mode contender slot for lane `lane` -- the engine
  /// drives the Table-I COMP latch for it instead of the lane's
  /// VirtualContender component. Must be called in ascending master
  /// order per lane (the serial tick order), with the same config on
  /// every lane.
  void add_contender(std::size_t lane, const VirtualContenderConfig& config,
                     bus::NonSplitBus& bus);

  /// One batch cycle across every live lane (sim::BatchStage).
  void on_cycle(Cycle now, std::span<const std::size_t> live) override;

  /// COMP latch of contender slot `m` on `lane` (tests).
  [[nodiscard]] bool comp(std::size_t lane, MasterId m) const;

 private:
  /// Per contender slot, shared across lanes: the Table-I latch words
  /// plus vertical mirrors of the bus state the request decision reads.
  /// `pend` and `hold` are maintained by the bus callbacks (request /
  /// on_latch / on_grant / on_complete), so the per-cycle candidate set
  ///   comp & ~pend & ~hold
  /// is three word ops instead of a per-lane pending/holder probe --
  /// and it is almost always zero (a contender fires one request per
  /// MaxL-cycle transaction).
  struct Bank {
    VirtualContenderConfig config;
    std::uint64_t comp = 0;      ///< COMP latch, bit per lane
    std::uint64_t pend = 0;      ///< lanes where our request is pending
    std::uint64_t hold = 0;      ///< lanes where our transfer is in flight
    std::size_t sat_index = 0;   ///< row in the saturation query (kCompLatch)
  };

  /// Grant-callback adapter: the bus resets COMP whenever the contender
  /// is granted (Table I), exactly like VirtualContender::on_grant, and
  /// keeps the bank's vertical pend/hold mirrors in sync.
  struct Proxy final : bus::BusMaster {
    BatchCreditEngine* engine = nullptr;
    std::size_t lane = 0;
    std::size_t bank = 0;

    void on_latch(const bus::BusRequest& request, Cycle now) override;
    void on_grant(const bus::BusRequest& request, Cycle now,
                  Cycle hold) override;
    void on_complete(const bus::BusRequest& request, Cycle now) override;
  };

  CreditSoA& soa_;
  CbaConfig config_;
  std::size_t lanes_;
  std::uint32_t padded_;
  std::vector<bus::NonSplitBus*> buses_;
  std::vector<CreditState*> states_;
  std::vector<Bank> banks_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  // Per-cycle descriptors, built once: only the mask words and outputs
  // mutate per cycle, so the hot loop issues exactly one vec call for
  // the saturation words (when any latch can change) and one for the
  // whole Table-I update.
  std::vector<std::uint64_t> caps_;     ///< per-slot saturation caps
  std::vector<std::uint64_t> charge_;   ///< per-slot holder masks (scratch)
  std::vector<std::uint64_t> clamped_;  ///< per-slot clamp masks (out)
  std::vector<std::uint32_t> sat_slots_;  ///< kCompLatch banks' slot ids
  std::vector<std::uint64_t> sat_caps_;   ///< their saturation caps
  std::vector<std::uint64_t> sat_out_;    ///< their saturation words (out)
};

}  // namespace cbus::core
