// SegmentedInterconnect tests: address-range routing, bridge timing,
// single-segment equivalence with the non-split bus, per-segment Table-I
// credit conservation, the platform/experiment wiring and the
// batched-vs-serial byte-equality contract for the segmented topology.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <vector>

#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "bus/segmented.hpp"
#include "core/cba_config.hpp"
#include "core/credit_filter.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "sim/kernel.hpp"
#include "workloads/eembc_like.hpp"

namespace cbus {
namespace {

using bus::BusRequest;
using bus::SegmentedConfig;
using bus::SegmentedInterconnect;

/// A slave serving every transaction in a fixed number of cycles.
class FixedSlave final : public bus::BusSlave {
 public:
  explicit FixedSlave(Cycle hold) : hold_(hold) {}
  Cycle begin_transaction(const BusRequest&, Cycle) override {
    ++transactions_;
    return hold_;
  }
  void complete_transaction(const BusRequest&, Cycle) override {
    ++completions_;
  }
  std::uint64_t transactions_ = 0;
  std::uint64_t completions_ = 0;

 private:
  Cycle hold_;
};

/// A master issuing scripted (address, cycle) loads and recording the
/// completion cycle of each.
class ScriptedMaster final : public sim::Component, public bus::BusMaster {
 public:
  ScriptedMaster(MasterId id, bus::BusPort& bus,
                 std::vector<std::pair<Cycle, Addr>> script)
      : sim::Component("scripted"), id_(id), bus_(bus),
        script_(std::move(script)) {
    bus_.connect_master(id_, *this);
  }

  void tick(Cycle now) override {
    if (next_ < script_.size() && script_[next_].first <= now &&
        bus_.can_request(id_)) {
      BusRequest req;
      req.master = id_;
      req.addr = script_[next_].second;
      req.kind = MemOpKind::kLoad;
      bus_.request(req, now);
      ++next_;
    }
  }

  void on_grant(const BusRequest&, Cycle, Cycle) override {}
  void on_complete(const BusRequest&, Cycle now) override {
    completions.push_back(now);
  }

  std::vector<Cycle> completions;

 private:
  MasterId id_;
  bus::BusPort& bus_;
  std::vector<std::pair<Cycle, Addr>> script_;
  std::size_t next_ = 0;
};

[[nodiscard]] SegmentedInterconnect::ArbiterFactory rr_factory() {
  return [](std::uint32_t n_local, std::uint32_t) {
    return std::make_unique<bus::RoundRobinArbiter>(n_local);
  };
}

// --- routing and home assignment --------------------------------------------

TEST(SegmentedConfig, RoutesByAddressStripe) {
  SegmentedConfig cfg;
  cfg.topology = bus::Topology::chain(4);
  cfg.stripe_log2 = 12;  // 4 KiB stripes
  EXPECT_EQ(cfg.route(0x0000), 0u);
  EXPECT_EQ(cfg.route(0x1000), 1u);
  EXPECT_EQ(cfg.route(0x2FFF), 2u);
  EXPECT_EQ(cfg.route(0x3000), 3u);
  EXPECT_EQ(cfg.route(0x4000), 0u);  // wraps around the chain
}

TEST(SegmentedConfig, HomeSegmentsBlockDistribute) {
  SegmentedConfig cfg;
  cfg.n_masters = 4;
  cfg.topology = bus::Topology::chain(2);
  EXPECT_EQ(cfg.home_segment(0), 0u);
  EXPECT_EQ(cfg.home_segment(1), 0u);
  EXPECT_EQ(cfg.home_segment(2), 1u);
  EXPECT_EQ(cfg.home_segment(3), 1u);
  cfg.topology = bus::Topology::chain(4);
  for (MasterId m = 0; m < 4; ++m) EXPECT_EQ(cfg.home_segment(m), m);
}

TEST(SegmentedConfig, ValidatesParameters) {
  SegmentedConfig cfg;
  // Degenerate graphs are rejected at Topology construction.
  EXPECT_THROW((void)bus::Topology::chain(0), std::invalid_argument);
  EXPECT_THROW((void)bus::Topology::ring(2), std::invalid_argument);
  EXPECT_THROW((void)bus::Topology::mesh(1, 1), std::invalid_argument);
  cfg.topology = bus::Topology::chain(2);
  cfg.bridge_hold = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Fewer masters than segments would leave segments with no home core
  // (the silently-degenerate block distribution of old); now rejected.
  cfg.bridge_hold = 5;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(3);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.n_masters = 3;
  EXPECT_NO_THROW(cfg.validate());
}

// --- single-segment equivalence ---------------------------------------------

TEST(Segmented, OneSegmentMatchesNonSplitBus) {
  // With one segment there are no bridges and no routing: the
  // interconnect must reproduce the NonSplitBus cycle for cycle.
  const std::vector<std::pair<Cycle, Addr>> script{
      {0, 0x100}, {20, 0x200}, {40, 0x300}};

  auto run_single = [&](bus::BusPort& port, sim::Component& bus_component) {
    ScriptedMaster a(0, port, script);
    ScriptedMaster b(1, port, {{0, 0x400}, {30, 0x500}});
    sim::Kernel kernel;
    kernel.add(a);
    kernel.add(b);
    kernel.add(bus_component);
    kernel.run_until([&]() { return false; }, 200);
    return std::make_pair(a.completions, b.completions);
  };

  FixedSlave flat_slave(7);
  bus::RoundRobinArbiter flat_arbiter(2);
  bus::NonSplitBus flat(bus::BusConfig{2, true}, flat_arbiter, flat_slave);
  const auto flat_result = run_single(flat, flat);

  SegmentedConfig cfg;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(1);
  FixedSlave seg_slave(7);
  SegmentedInterconnect seg(cfg, seg_slave, rr_factory());
  const auto seg_result = run_single(seg, seg);

  EXPECT_EQ(flat_result.first, seg_result.first);
  EXPECT_EQ(flat_result.second, seg_result.second);

  const bus::BusStatistics flat_stats = flat.statistics();
  const bus::BusStatistics seg_stats = seg.statistics();
  for (MasterId m = 0; m < 2; ++m) {
    EXPECT_EQ(flat_stats.master[m].grants, seg_stats.master[m].grants);
    EXPECT_EQ(flat_stats.master[m].hold_cycles,
              seg_stats.master[m].hold_cycles);
    EXPECT_EQ(flat_stats.master[m].wait_cycles,
              seg_stats.master[m].wait_cycles);
  }
  EXPECT_EQ(flat_stats.busy_cycles, seg_stats.busy_cycles);
  EXPECT_EQ(seg.bridge_stats().hops, 0u);
}

// --- bridge traversal timing ------------------------------------------------

TEST(Segmented, CrossSegmentHopTimingIsExact) {
  // One master on segment 0, one load to segment 1's address range.
  // B = bridge_hold = 3, L = bridge_latency = 2, H = slave hold = 5:
  //   cycle 0       raise; seg0 arbitrates (1-cycle arbitration)
  //   cycles 1..3   forward beat occupies seg0 (B cycles)
  //   cycles 4..5   store-and-forward buffering (L cycles)
  //   cycle 5       re-raise on seg1; seg1 arbitrates
  //   cycles 6..10  target transfer (H cycles) -> complete at B+L+H = 10.
  SegmentedConfig cfg;
  cfg.n_masters = 2;  // master 1 parks on segment 1 (never requests)
  cfg.topology = bus::Topology::chain(2);
  cfg.bridge_hold = 3;
  cfg.bridge_latency = 2;
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  ScriptedMaster remote(0, seg, {{0, 0x1000}});  // routes to segment 1
  ScriptedMaster parked(1, seg, {});
  sim::Kernel kernel;
  kernel.add(remote);
  kernel.add(parked);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 60);

  ASSERT_EQ(remote.completions.size(), 1u);
  EXPECT_EQ(remote.completions[0], 10u);
  EXPECT_EQ(seg.bridge_stats().hops, 1u);
  EXPECT_EQ(seg.bridge_stats().queue_cycles, cfg.bridge_latency);
  EXPECT_EQ(seg.bridge_stats().remote_transactions, 1u);
  EXPECT_EQ(slave.transactions_, 1u);  // the slave served the TARGET hop

  // Global accounting: one grant/completion, occupancy = forward beat +
  // target transfer, wait = the 1-cycle home arbitration.
  const bus::BusStatistics stats = seg.statistics();
  EXPECT_EQ(stats.master[0].grants, 1u);
  EXPECT_EQ(stats.master[0].completions, 1u);
  EXPECT_EQ(stats.master[0].hold_cycles,
            cfg.bridge_hold + Cycle{5});
  EXPECT_EQ(stats.master[0].wait_cycles, 1u);
}

TEST(Segmented, LocalTrafficNeverCrossesBridges) {
  SegmentedConfig cfg;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(2);
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  // Master 0 (home 0) only touches stripe 0; master 1 (home 1) stripe 1.
  ScriptedMaster a(0, seg, {{0, 0x0010}, {10, 0x2020}});  // both route to 0...
  ScriptedMaster b(1, seg, {{0, 0x1010}, {10, 0x3020}});
  sim::Kernel kernel;
  kernel.add(a);
  kernel.add(b);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 100);

  EXPECT_EQ(a.completions.size(), 2u);
  EXPECT_EQ(b.completions.size(), 2u);
  EXPECT_EQ(seg.bridge_stats().hops, 0u);
  EXPECT_EQ(seg.bridge_stats().remote_transactions, 0u);
  EXPECT_EQ(seg.bridge_stats().local_transactions, 4u);
  // Per-segment grant counts: two transactions each, no transit grants.
  EXPECT_EQ(seg.segment_statistics(0).totals().grants, 2u);
  EXPECT_EQ(seg.segment_statistics(1).totals().grants, 2u);
}

TEST(Segmented, ForcedHoldRequestsStayOnHomeSegment) {
  // WCET-mode virtual contenders issue forced-hold requests; they model
  // local contention and must never route, whatever their address.
  SegmentedConfig cfg;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(2);
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  class ForcedMaster final : public sim::Component, public bus::BusMaster {
   public:
    ForcedMaster(MasterId id, bus::BusPort& bus)
        : sim::Component("forced"), id_(id), bus_(bus) {
      bus_.connect_master(id_, *this);
    }
    void tick(Cycle now) override {
      if (issued_ || !bus_.can_request(id_)) return;
      BusRequest req;
      req.master = id_;
      req.addr = 0x1000;  // segment 1's range -- must be ignored
      req.forced_hold = 8;
      bus_.request(req, now);
      issued_ = true;
    }
    void on_grant(const BusRequest&, Cycle, Cycle) override {}
    void on_complete(const BusRequest&, Cycle now) override {
      done_at = now;
    }
    Cycle done_at = 0;

   private:
    MasterId id_;
    bus::BusPort& bus_;
    bool issued_ = false;
  };

  ForcedMaster contender(0, seg);
  ScriptedMaster parked(1, seg, {});
  sim::Kernel kernel;
  kernel.add(contender);
  kernel.add(parked);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 40);

  EXPECT_EQ(contender.done_at, 8u);  // 1-cycle arbitration + 8-cycle hold
  EXPECT_EQ(seg.bridge_stats().hops, 0u);
  EXPECT_EQ(slave.transactions_, 0u);  // forced hold never consults it
  EXPECT_EQ(seg.segment_statistics(1).totals().grants, 0u);
}

TEST(Segmented, BridgeSerializesBackToBackDeliveriesOnOnePort) {
  // Two remote requests queued in the same bridge with zero buffering
  // delay: the second may only re-raise once the first's ingress hop
  // RETIRES. (Regression: in the bus's latched-grant window -- granted,
  // transfer not yet begun -- can_request() is briefly true; the bridge
  // must key off its own port occupancy, not that probe, or it
  // double-raises on an owned port.)
  SegmentedConfig cfg;
  cfg.n_masters = 4;  // masters 0 and 1 homed on segment 0
  cfg.topology = bus::Topology::chain(2);
  cfg.bridge_hold = 2;
  cfg.bridge_latency = 0;
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  ScriptedMaster a(0, seg, {{0, 0x1000}});  // both route to segment 1
  ScriptedMaster b(1, seg, {{0, 0x1040}});
  ScriptedMaster c(2, seg, {});
  ScriptedMaster d(3, seg, {});
  sim::Kernel kernel;
  kernel.add(a);
  kernel.add(b);
  kernel.add(c);
  kernel.add(d);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 100);

  ASSERT_EQ(a.completions.size(), 1u);
  ASSERT_EQ(b.completions.size(), 1u);
  EXPECT_NE(a.completions[0], b.completions[0]);
  EXPECT_EQ(seg.bridge_stats().hops, 2u);
  EXPECT_EQ(seg.bridge_stats().remote_transactions, 2u);
  EXPECT_EQ(slave.transactions_, 2u);
  // The target segment served the two hops strictly one after another.
  EXPECT_EQ(seg.segment_statistics(1).totals().grants, 2u);
}

// --- per-segment credit conservation ----------------------------------------

TEST(Segmented, PerSegmentCreditConservationUnderTableOneRules) {
  // One greedy core per segment under a per-segment credit filter whose
  // budget starts at ZERO and whose cap is high enough never to
  // saturate: after T cycles, Table I demands exactly
  //     budget(m) = increment * T - scale * occupancy_cycles(m)
  // (every cycle recovers `increment`, every occupied cycle charges
  // `scale`), with no underflow clamps. The segment's own BusStatistics
  // supplies the occupancy, so this pins charge/recovery conservation
  // per contention point.
  SegmentedConfig cfg;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(2);
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  // Segment credit config: slot 0 = the local core (inc 1 / scale 2,
  // threshold one MaxL, cap 4 MaxL so it never saturates while greedy),
  // slot 1 = the bridge ingress (credit-exempt: full recovery, zero
  // threshold).
  auto segment_cba = []() {
    core::CbaConfig cba;
    cba.n_masters = 2;
    cba.max_latency = 56;
    cba.scale = 2;
    cba.increment = {1, 2};
    cba.saturation = {4 * 2 * 56, 2 * 56};
    cba.threshold = {2 * 56, 0};
    cba.initial = {0, 2 * 56};
    cba.validate();
    return cba;
  };
  core::CreditFilter filter0(segment_cba());
  core::CreditFilter filter1(segment_cba());
  seg.set_filter(0, &filter0);
  seg.set_filter(1, &filter1);

  // Greedy local traffic: each core hammers its own segment's stripe.
  class GreedyMaster final : public sim::Component, public bus::BusMaster {
   public:
    GreedyMaster(MasterId id, bus::BusPort& bus, Addr addr)
        : sim::Component("greedy"), id_(id), bus_(bus), addr_(addr) {
      bus_.connect_master(id_, *this);
    }
    void tick(Cycle now) override {
      if (!bus_.can_request(id_)) return;
      BusRequest req;
      req.master = id_;
      req.addr = addr_;
      bus_.request(req, now);
    }
    void on_grant(const BusRequest&, Cycle, Cycle) override {}
    void on_complete(const BusRequest&, Cycle) override {}

   private:
    MasterId id_;
    bus::BusPort& bus_;
    Addr addr_;
  };

  GreedyMaster a(0, seg, 0x0000);
  GreedyMaster b(1, seg, 0x1000);
  sim::Kernel kernel;
  kernel.add(a);
  kernel.add(b);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 3000);

  const std::array<const core::CreditFilter*, 2> filters{&filter0,
                                                         &filter1};
  for (std::uint32_t s = 0; s < 2; ++s) {
    const core::CreditState& state = filters[s]->state();
    const bus::BusStatistics& stats = seg.segment_statistics(s);
    ASSERT_EQ(stats.total_cycles, 3000u);
    const std::uint64_t occupied = stats.master[0].hold_cycles;
    ASSERT_GT(occupied, 0u);
    EXPECT_EQ(state.underflow_clamps(), 0u);
    EXPECT_FALSE(state.saturated(0)) << "cap must not clip conservation";
    EXPECT_EQ(state.budget(0), 1 * stats.total_cycles - 2 * occupied)
        << "segment " << s << ": Table-I charge/recovery not conserved";
    // The bridge slot is exempt: full recovery keeps it pinned at its cap
    // and it never underflows.
    EXPECT_TRUE(state.saturated(1));
    EXPECT_TRUE(state.eligible(1));
  }

  // The filter throttles: a greedy 5-cycle-hold master under a 1/2-rate
  // budget cannot exceed half the segment (plus the startup transient).
  const double share0 = seg.segment_statistics(0).occupancy_share(0);
  EXPECT_LT(share0, 0.55);
  EXPECT_GT(share0, 0.30);
}

TEST(Segmented, RemoteOccupancyIsChargedToTheHomeBudget) {
  // A remote transaction occupies its home segment for the forward beat
  // only, but the foreign cycles (bridge-hop service on the target
  // segment) must still be paid by the origin's HOME budget -- otherwise
  // a remote-heavy master escapes its CBA share entirely. With a
  // zero-threshold config (so nothing is gated) and enough initial
  // budget that nothing clamps, after T cycles the Table-I equation
  // must hold against the TOTAL PATH occupancy:
  //     budget(0) = init + inc*T - scale*(home_hold + foreign_hold).
  SegmentedConfig cfg;
  cfg.n_masters = 2;
  cfg.topology = bus::Topology::chain(2);
  cfg.bridge_hold = 3;
  cfg.bridge_latency = 2;
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  auto open_cba = []() {
    core::CbaConfig cba;
    cba.n_masters = 2;
    cba.max_latency = 56;
    cba.scale = 2;
    cba.increment = {1, 2};
    cba.saturation = {1'000'000, 2 * 56};
    cba.threshold = {0, 0};
    cba.initial = {100, 2 * 56};
    cba.validate();
    return cba;
  };
  core::CreditFilter filter0(open_cba());
  core::CreditFilter filter1(open_cba());
  seg.set_filter(0, &filter0);
  seg.set_filter(1, &filter1);

  // One remote load (segment 1's range) from master 0 (home segment 0).
  ScriptedMaster remote(0, seg, {{0, 0x1000}});
  ScriptedMaster parked(1, seg, {});
  sim::Kernel kernel;
  kernel.add(remote);
  kernel.add(parked);
  kernel.add(seg);
  const Cycle kCycles = 200;
  kernel.run_until([&]() { return false; }, kCycles);

  ASSERT_EQ(remote.completions.size(), 1u);
  const std::uint64_t home_hold =
      seg.segment_statistics(0).master[0].hold_cycles;
  EXPECT_EQ(home_hold, cfg.bridge_hold);
  const Cycle foreign_hold = 5;  // the target-segment service
  EXPECT_EQ(filter0.state().underflow_clamps(), 0u);
  EXPECT_EQ(filter0.state().budget(0),
            100 + 1 * kCycles - 2 * (home_hold + foreign_hold));
  // And nothing was charged on segment 1's CORE slot (the hop rode the
  // exempt bridge slot there).
  EXPECT_EQ(filter1.state().budget(0), 100 + 1 * kCycles);
}

/// Records every BusObserver milestone with its cycle stamps.
class RecordingObserver final : public bus::BusObserver {
 public:
  void on_request(const BusRequest& request, Cycle now) override {
    log << "request m" << request.master << " @" << now << ", ";
  }
  void on_transfer_start(const BusRequest& request, Cycle start,
                         Cycle hold) override {
    log << "start m" << request.master << " @" << start << " hold " << hold
        << ", ";
  }
  void on_transfer_complete(const BusRequest& request, Cycle end) override {
    log << "complete m" << request.master << " @" << end << ", ";
  }
  std::ostringstream log;
};

TEST(Segmented, ObserverSeesGlobalMilestones) {
  // The observer sees a transaction's global request, its home-segment
  // grant (hold = the home hop) and its retirement on the target
  // segment. Default bridge timings (B = 5, L = 2), 5-cycle slave:
  //   local load raised at 0: transfer 1..5, retires at 5;
  //   remote load raised at 6: forward beat 7..11 (hold B), buffered
  //   12..13, re-raised and arbitrated on segment 1 at 13, target
  //   transfer 14..18, retires at 18.
  SegmentedConfig cfg;
  cfg.n_masters = 2;  // master 1 parks on segment 1 (never requests)
  cfg.topology = bus::Topology::chain(2);
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());
  RecordingObserver observer;
  seg.set_observer(&observer);

  ScriptedMaster master(0, seg, {{0, 0x100}, {6, 0x1000}});
  ScriptedMaster parked(1, seg, {});
  sim::Kernel kernel;
  kernel.add(master);
  kernel.add(parked);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 40);

  EXPECT_EQ(observer.log.str(),
            "request m0 @0, start m0 @1 hold 5, complete m0 @5, "
            "request m0 @6, start m0 @7 hold 5, complete m0 @18, ");
  EXPECT_EQ(master.completions, (std::vector<Cycle>{5, 18}));
}

// --- platform wiring ---------------------------------------------------------

TEST(SegmentedPlatform, MulticoreRunsConProtocolPerSegmentHcba) {
  std::istringstream in(
      "cores = 4\nsetup = hcba\nmode = wcet\ntopology = segmented:2\n");
  const platform::PlatformConfig cfg = platform::parse_config(in);
  EXPECT_EQ(cfg.topology.segments, 2u);
  EXPECT_EQ(cfg.credit_slots(), 4u + 2u);

  auto tua = workloads::make_eembc("canrdr");
  tua->reset(7);
  platform::Multicore machine(cfg, 7, *tua);
  ASSERT_NE(machine.segmented(), nullptr);
  const platform::RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);

  // Per-segment filters exist and the record carries the seg.* keys at
  // segment width and credit.budget at core width.
  ASSERT_NE(machine.credit_filter(0), nullptr);
  ASSERT_NE(machine.credit_filter(1), nullptr);
  EXPECT_EQ(r.record.at("seg.occupancy").size(), 2u);
  EXPECT_EQ(r.record.at("seg.grants").size(), 2u);
  EXPECT_EQ(r.record.at("credit.budget").size(), 4u);
  EXPECT_GE(r.record.at("seg.remote_fraction").scalar(), 0.0);
  EXPECT_LE(r.record.at("seg.remote_fraction").scalar(), 1.0);

  // H-CBA carried over: the TuA's home-segment filter gives slot 0 the
  // 1/2 recovery rate from the global config.
  const core::CbaConfig& seg0 = machine.credit_filter(0)->state().config();
  EXPECT_DOUBLE_EQ(static_cast<double>(seg0.increment[0]) /
                       static_cast<double>(seg0.scale),
                   0.5);
}

TEST(SegmentedPlatform, SplitProtocolRejected) {
  std::istringstream in("cores = 4\nbus = split\ntopology = segmented:2\n");
  EXPECT_THROW((void)platform::parse_config(in), std::invalid_argument);
}

TEST(SegmentedPlatform, TopologyKeyParses) {
  std::istringstream single("cores = 4\ntopology = single\n");
  EXPECT_EQ(platform::parse_config(single).topology.segments, 1u);
  std::istringstream bad("cores = 4\ntopology = segmented:1\n");
  EXPECT_THROW((void)platform::parse_config(bad), std::invalid_argument);
  std::istringstream junk("cores = 4\ntopology = mesh\n");
  EXPECT_THROW((void)platform::parse_config(junk), std::invalid_argument);
  std::istringstream stripe("cores = 4\nseg_stripe = 1000\n");
  EXPECT_THROW((void)platform::parse_config(stripe), std::invalid_argument);
  std::istringstream round_trip(
      "cores = 4\ntopology = segmented:4\nseg_stripe = 8192\n"
      "bridge_hold = 7\nbridge_latency = 3\n");
  const platform::PlatformConfig cfg = platform::parse_config(round_trip);
  EXPECT_EQ(cfg.topology.segments, 4u);
  EXPECT_EQ(cfg.topology.stripe_log2, 13u);
  EXPECT_EQ(cfg.topology.bridge_hold, 7u);
  EXPECT_EQ(cfg.topology.bridge_latency, 3u);
  std::ostringstream out;
  platform::write_config(out, cfg);
  std::istringstream back_in(out.str());
  const platform::PlatformConfig back = platform::parse_config(back_in);
  EXPECT_EQ(back.topology.segments, 4u);
  EXPECT_EQ(back.topology.stripe_log2, 13u);
}

// --- experiment-level determinism -------------------------------------------

TEST(SegmentedExperiment, BatchedIsByteIdenticalToSerial) {
  // The acceptance contract for segmented_fairness.exp: batched output
  // bit-identical to serial at batch {1, 8} x threads {1, 4}, metrics
  // included. This mirrors the example file at a CI-friendly size.
  const std::string text =
      "kernel = canrdr\n"
      "sweep scenario = iso con\n"
      "sweep topology = single segmented:4\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 3\n"
      "metrics = all\n";
  std::istringstream serial_in(text);
  const exp::ExperimentSpec serial_spec = exp::parse_experiment(serial_in);
  const auto serial = exp::run_experiment(serial_spec, /*threads=*/1);
  ASSERT_EQ(serial.jobs.size(), 4u);
  EXPECT_EQ(serial.failed_jobs(), 0u);
  std::ostringstream serial_csv, serial_json;
  exp::make_sink(exp::SinkKind::kCsv)
      ->write(serial_spec, serial.jobs, serial_csv);
  exp::make_sink(exp::SinkKind::kJson)
      ->write(serial_spec, serial.jobs, serial_json);
  EXPECT_NE(serial_csv.str().find("segmented:4"), std::string::npos);

  for (const std::uint32_t batch : {1u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      std::istringstream in(text);
      exp::ExperimentSpec spec = exp::parse_experiment(in);
      spec.batch = batch;
      const auto result = exp::run_experiment(spec, threads);
      std::ostringstream csv, json;
      exp::make_sink(exp::SinkKind::kCsv)->write(spec, result.jobs, csv);
      exp::make_sink(exp::SinkKind::kJson)->write(spec, result.jobs, json);
      EXPECT_EQ(csv.str(), serial_csv.str())
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(json.str(), serial_json.str())
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(SegmentedExperiment, DeficitAgeSweepsAsInnerPolicy) {
  // `sweep arbiter = rp da` with a segmented topology: both inner
  // policies run per segment and produce finished campaigns.
  const std::string text =
      "kernel = canrdr\n"
      "scenario = con\n"
      "sweep arbiter = rp da\n"
      "setup = cba\n"
      "topology = segmented:2\n"
      "cores = 4\n"
      "runs = 2\n";
  std::istringstream in(text);
  const exp::ExperimentSpec spec = exp::parse_experiment(in);
  const auto result = exp::run_experiment(spec, 2);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.failed_jobs(), 0u);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.campaign.exec_time().count(), 2u);
  }
}

}  // namespace
}  // namespace cbus
