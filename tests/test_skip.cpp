// Quiescence fast-forward: the closed-form k-cycle updates and the event
// horizons of every skipping component, checked against the tick-by-tick
// model they replace.
//
//  * CreditState::advance against k calls of tick(), and the eligibility
//    and saturation crossings against ticking until they happen, on owned
//    and CreditSoA-view storage;
//  * small platforms of InOrderCore, NonSplitBus (with and without a
//    credit filter) and VirtualContender (both policies) run on the
//    serial sim::Kernel, which ticks every cycle, and on a one-lane
//    sim::BatchKernel, which skips -- every public statistic must match;
//  * the edge cases: a run cut by max_cycles inside a compute burst and
//    inside a 56-cycle contender transfer, stripe ends inside quiet
//    windows, a saturation crossing in the cycle the TuA raises its
//    request;
//  * the segmented interconnect, whose quiet segments stop ticking: chain,
//    ring and mesh topologies, unbounded and depth-1 bridges, without a
//    filter, with per-segment credit filters and with Table-I contenders,
//    every public statistic and every credit budget against the serial
//    kernel -- plus its own edge cases (a ready bridge head behind a busy
//    ingress port, a pop opening the upstream mask, remote charges to a
//    quiet home segment, a cut inside a quiet transfer, mid-run reads)
//    and the deadlocked bounded ring, which skips whole stripes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "bus/segmented.hpp"
#include "bus/topology.hpp"
#include "core/cba_config.hpp"
#include "core/credit_filter.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "cpu/in_order_core.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/kernel.hpp"
#include "workloads/fixed_stream.hpp"

namespace cbus {
namespace {

using core::CbaConfig;
using core::ContenderPolicy;
using core::CreditState;
using platform::BusSetup;

// --- CreditState: closed form vs ticks ---------------------------------------

struct NamedConfig {
  std::string name;
  CbaConfig config;
};

/// Homogeneous CBA, the Table-I instance, H-CBA method 2 (1/2 + 1/6
/// rates), H-CBA method 1 (cap-boosted TuA), a MaxL under-estimate whose
/// 56-cycle holds clamp, and a master recovering at the full rate (its
/// budget stays saturated while it holds the bus).
[[nodiscard]] std::vector<NamedConfig> credit_configs() {
  const RationalRate full_rate[] = {{1, 2}, {1, 1}, {1, 6}, {1, 6}};
  return {
      {"homogeneous", CbaConfig::homogeneous(4, 56)},
      {"table1", CbaConfig::paper_table1()},
      {"hcba", CbaConfig::paper_hcba(56)},
      {"cap_boost",
       CbaConfig::with_cap_boost(CbaConfig::homogeneous(4, 56), 0, 3)},
      {"maxl_under", CbaConfig::homogeneous(4, 8)},
      {"full_rate", CbaConfig::heterogeneous(56, full_rate)},
  };
}

/// Ticks `state` with no holder until a master of `mask` is eligible (or
/// `limit` ticks pass); returns the ticks taken, kNever past the limit.
[[nodiscard]] Cycle ticks_until_eligible(CreditState& state,
                                         std::uint32_t mask, Cycle limit) {
  for (Cycle t = 0; t <= limit; ++t) {
    if (state.eligible_mask(mask) != 0) return t;
    state.tick(kNoMaster);
  }
  return kNever;
}

[[nodiscard]] Cycle ticks_until_saturated(CreditState& state, MasterId m,
                                          Cycle limit) {
  for (Cycle t = 0; t <= limit; ++t) {
    if (state.saturated(m)) return t;
    state.tick(kNoMaster);
  }
  return kNever;
}

void expect_same_credits(const CreditState& a, const CreditState& b,
                         const std::string& where) {
  for (MasterId m = 0; m < a.config().n_masters; ++m) {
    EXPECT_EQ(a.budget(m), b.budget(m)) << where << " master " << m;
    EXPECT_EQ(a.underflow_clamps(m), b.underflow_clamps(m))
        << where << " master " << m;
  }
  EXPECT_EQ(a.underflow_clamps(), b.underflow_clamps()) << where;
}

/// One fuzz pass over `config`: random budgets, a random holder (or
/// none) and a random k; `make` builds the two states under test.
template <typename Make>
void fuzz_advance(const NamedConfig& named, Make make, std::uint64_t seed) {
  const CbaConfig& cfg = named.config;
  rng::SplitMix64 rng(seed);
  const auto draw = [&](std::uint64_t bound) { return rng.next() % bound; };
  const Cycle kLimit = 1'000'000;
  for (int trial = 0; trial < 400; ++trial) {
    auto ticked = make(0);
    auto advanced = make(1);
    for (MasterId m = 0; m < cfg.n_masters; ++m) {
      // Budgets anywhere in [0, cap], with the cap and the threshold
      // themselves drawn often.
      std::uint64_t units = draw(cfg.saturation[m] + 1);
      const std::uint64_t pick = draw(4);
      if (pick == 0) units = cfg.saturation[m];
      if (pick == 1) units = cfg.threshold[m];
      ticked->set_budget(m, units);
      advanced->set_budget(m, units);
    }
    const std::uint64_t h = draw(cfg.n_masters + 1);
    const MasterId holder =
        h == cfg.n_masters ? kNoMaster : static_cast<MasterId>(h);
    // k: mostly inside one transaction or recovery window, sometimes far
    // past every saturation, a few at the 10^6 end.
    const std::uint64_t shape = draw(10);
    Cycle k = 1 + draw(100'000);
    if (shape < 6) k = 1 + draw(300);
    if (shape >= 6 && shape < 9) k = 1 + draw(20'000);
    if (shape == 9 && trial % 40 == 9) k = kLimit;
    const std::string where = named.name + " trial " +
                              std::to_string(trial) + " holder " +
                              std::to_string(h) + " k " + std::to_string(k);

    // Crossings first (they only read the state).
    const std::uint32_t mask =
        static_cast<std::uint32_t>(draw(1u << cfg.n_masters));
    const Cycle eligible_in = advanced->ticks_to_eligible(mask);
    {
      auto probe = make(2);
      for (MasterId m = 0; m < cfg.n_masters; ++m) {
        probe->set_budget(m, advanced->budget(m));
      }
      EXPECT_EQ(eligible_in, ticks_until_eligible(*probe, mask, 4096))
          << where << " mask " << mask;
    }
    const MasterId watched = static_cast<MasterId>(draw(cfg.n_masters));
    {
      auto probe = make(2);
      for (MasterId m = 0; m < cfg.n_masters; ++m) {
        probe->set_budget(m, advanced->budget(m));
      }
      EXPECT_EQ(advanced->ticks_to_saturation(watched),
                ticks_until_saturated(*probe, watched, 4096))
          << where << " watched " << watched;
    }

    for (Cycle c = 0; c < k; ++c) ticked->tick(holder);
    advanced->advance(holder, k);
    expect_same_credits(*ticked, *advanced, where);
  }
}

TEST(FastForward, CreditAdvanceMatchesTicksOnOwnedStorage) {
  std::uint64_t seed = 1;
  for (const NamedConfig& named : credit_configs()) {
    const auto owned = [&](int /*state*/) {
      return std::make_unique<CreditState>(named.config);
    };
    fuzz_advance(named, owned, seed++);
  }
}

TEST(FastForward, CreditAdvanceMatchesTicksOnSoaViews) {
  std::uint64_t seed = 100;
  for (const NamedConfig& named : credit_configs()) {
    // Three lanes of one arena: every state lives in its own strided
    // lane, interleaved with the others'.
    core::CreditSoA soa(3, named.config);
    const auto viewed = [&](int lane) {
      return std::make_unique<CreditState>(
          named.config, soa.lane(static_cast<std::size_t>(lane)));
    };
    fuzz_advance(named, viewed, seed++);
  }
}

TEST(FastForward, CreditCrossingsReportNeverWhenUnreachable) {
  CbaConfig cfg = CbaConfig::homogeneous(4, 56);
  cfg.increment[1] = 0;  // master 1 never recovers
  CreditState state(cfg);
  EXPECT_EQ(state.ticks_to_eligible(0), kNever);  // nobody asked
  EXPECT_EQ(state.ticks_to_eligible(0b1010), 0u);
  state.set_budget(1, 0);
  state.set_budget(3, 0);
  EXPECT_EQ(state.ticks_to_saturation(1), kNever);
  EXPECT_EQ(state.ticks_to_eligible(0b0010), kNever);
  EXPECT_EQ(state.ticks_to_eligible(0b1010), cfg.threshold[3]);
}

// --- small platforms: skipped vs ticked --------------------------------------

/// Slave whose hold follows the line address: one line in eight evicts
/// dirty (56 cycles), one in eight misses clean (28), the rest hit (5).
class PatternSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest& request,
                          Cycle /*now*/) override {
    const Addr line = request.addr / 32;
    if (line % 8 == 0) return 56;
    if (line % 8 == 4) return 28;
    return 5;
  }
};

/// A seeded op mix over a footprint four times the L1: loads that hit
/// and miss, store bursts that fill the write buffer, atomics, and
/// compute gaps from 0 to ~300 cycles.
[[nodiscard]] std::vector<cpu::MemOp> random_ops(std::uint64_t seed,
                                                 std::size_t n) {
  rng::SplitMix64 rng(seed);
  std::vector<cpu::MemOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cpu::MemOp op;
    const std::uint64_t kind = rng.next() % 16;
    if (kind >= 10) op.kind = MemOpKind::kStore;
    if (kind == 15) op.kind = MemOpKind::kAtomic;
    op.addr = static_cast<Addr>((rng.next() % (64 * 1024)) & ~Addr{3});
    const std::uint64_t gap = rng.next() % 8;
    if (gap >= 3) {
      const std::uint64_t longest = gap < 6 ? 20 : 300;
      op.compute_before = static_cast<std::uint32_t>(rng.next() % longest);
    }
    ops.push_back(op);
  }
  return ops;
}

struct RigConfig {
  std::uint32_t n_masters = 4;
  std::uint32_t cores = 1;  ///< real cores on masters 0..cores-1
  bool contenders = true;   ///< Table-I contenders on the other masters
  ContenderPolicy policy = ContenderPolicy::kAlwaysCompete;
  bus::ArbiterKind arbiter = bus::ArbiterKind::kRandomPermutation;
  std::optional<CbaConfig> cba;
  bool overlapped = true;
  std::uint64_t seed = 1;
  std::size_t ops = 400;
  /// The TuA's ops when set (random_ops otherwise).
  std::optional<std::vector<cpu::MemOp>> tua_ops;
};

/// One small platform: cores, then contenders, then the bus -- the
/// Multicore tick order -- built identically from the same seed.
struct Rig {
  explicit Rig(const RigConfig& cfg) : bank(cfg.seed) {
    arbiter = bus::make_arbiter(cfg.arbiter, cfg.n_masters, bank);
    bus = std::make_unique<bus::NonSplitBus>(
        bus::BusConfig{cfg.n_masters, cfg.overlapped}, *arbiter, slave);
    if (cfg.cba.has_value()) {
      filter = std::make_unique<core::CreditFilter>(*cfg.cba);
      bus->set_filter(filter.get());
    }
    for (MasterId m = 0; m < cfg.cores; ++m) {
      std::vector<cpu::MemOp> ops = random_ops(cfg.seed * 31 + m, cfg.ops);
      if (m == 0 && cfg.tua_ops.has_value()) ops = *cfg.tua_ops;
      streams.push_back(
          std::make_unique<workloads::FixedOpsStream>(std::move(ops)));
      cores.push_back(std::make_unique<cpu::InOrderCore>(
          m, cpu::CoreConfig{}, *streams.back(), *bus, bank));
      order.push_back(cores.back().get());
    }
    if (cfg.contenders) {
      for (MasterId m = cfg.cores; m < cfg.n_masters; ++m) {
        core::VirtualContenderConfig vc;
        vc.self = m;
        vc.tua = 0;
        vc.policy = cfg.policy;
        contenders.push_back(std::make_unique<core::VirtualContender>(
            vc, *bus, filter ? &filter->state() : nullptr));
        order.push_back(contenders.back().get());
      }
    }
    order.push_back(bus.get());
  }

  /// The serial reference: every cycle ticked.
  bool run_ticked(Cycle max_cycles) {
    sim::Kernel kernel;
    for (sim::Component* c : order) kernel.add(*c);
    return kernel.run_until([this] { return cores.front()->done(); },
                            max_cycles);
  }

  /// One skipping lane; returns the fired flag, reports the lane-cycles.
  bool run_skipped(Cycle max_cycles, Cycle stripe, std::uint64_t& simulated,
                   std::uint64_t& executed) {
    sim::BatchKernel batch(1, stripe);
    for (sim::Component* c : order) batch.add(0, *c);
    const std::vector<bool> fired = batch.run_until(
        [this](std::size_t) { return cores.front()->done(); }, max_cycles);
    simulated = batch.simulated_lane_cycles();
    executed = batch.executed_lane_cycles();
    return fired[0];
  }

  PatternSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::Arbiter> arbiter;
  std::unique_ptr<bus::NonSplitBus> bus;
  std::unique_ptr<core::CreditFilter> filter;
  std::vector<std::unique_ptr<workloads::FixedOpsStream>> streams;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
  std::vector<std::unique_ptr<core::VirtualContender>> contenders;
  std::vector<sim::Component*> order;
};

void expect_same_core(const cpu::InOrderCore& a, const cpu::InOrderCore& b,
                      const std::string& where) {
  const cpu::CoreStats& x = a.stats();
  const cpu::CoreStats& y = b.stats();
  EXPECT_EQ(a.done(), b.done()) << where;
  EXPECT_EQ(a.finish_cycle(), b.finish_cycle()) << where;
  EXPECT_EQ(x.cycles, y.cycles) << where;
  EXPECT_EQ(x.compute_cycles, y.compute_cycles) << where;
  EXPECT_EQ(x.bus_stall_cycles, y.bus_stall_cycles) << where;
  EXPECT_EQ(x.sb_stall_cycles, y.sb_stall_cycles) << where;
  EXPECT_EQ(x.ops, y.ops) << where;
  EXPECT_EQ(x.l1_hits, y.l1_hits) << where;
  EXPECT_EQ(x.l1_misses, y.l1_misses) << where;
  EXPECT_EQ(x.stores, y.stores) << where;
  EXPECT_EQ(x.atomics, y.atomics) << where;
  EXPECT_EQ(x.bus_requests, y.bus_requests) << where;
}

void expect_same_bus(const bus::NonSplitBus& a, const bus::NonSplitBus& b,
                     const std::string& where) {
  const bus::BusStatistics& x = a.statistics();
  const bus::BusStatistics& y = b.statistics();
  EXPECT_EQ(x.busy_cycles, y.busy_cycles) << where;
  EXPECT_EQ(x.idle_cycles, y.idle_cycles) << where;
  EXPECT_EQ(x.total_cycles, y.total_cycles) << where;
  ASSERT_EQ(x.master.size(), y.master.size()) << where;
  for (std::size_t m = 0; m < x.master.size(); ++m) {
    EXPECT_EQ(x.master[m].requests, y.master[m].requests) << where << m;
    EXPECT_EQ(x.master[m].grants, y.master[m].grants) << where << m;
    EXPECT_EQ(x.master[m].completions, y.master[m].completions) << where << m;
    EXPECT_EQ(x.master[m].wait_cycles, y.master[m].wait_cycles) << where << m;
    EXPECT_EQ(x.master[m].hold_cycles, y.master[m].hold_cycles) << where << m;
    EXPECT_EQ(x.master[m].max_wait, y.master[m].max_wait) << where << m;
  }
  EXPECT_EQ(a.holder(), b.holder()) << where;
  EXPECT_EQ(a.pending_mask(), b.pending_mask()) << where;
  EXPECT_EQ(a.busy(), b.busy()) << where;
}

void expect_same_rig(const Rig& a, const Rig& b, const std::string& where) {
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    expect_same_core(*a.cores[i], *b.cores[i],
                     where + " core " + std::to_string(i));
  }
  expect_same_bus(*a.bus, *b.bus, where);
  if (a.filter) {
    expect_same_credits(a.filter->state(), b.filter->state(), where);
  }
  for (std::size_t i = 0; i < a.contenders.size(); ++i) {
    EXPECT_EQ(a.contenders[i]->comp(), b.contenders[i]->comp()) << where;
    EXPECT_EQ(a.contenders[i]->grants(), b.contenders[i]->grants()) << where;
  }
}

/// Runs `cfg` ticked and skipped at every cut and stripe; returns the
/// lane-cycles the skipping runs executed and simulated in total.
std::pair<std::uint64_t, std::uint64_t> check_rig(
    const RigConfig& cfg, const std::string& name,
    std::initializer_list<Cycle> cuts = {200'000'000, 3'001, 20'011},
    std::initializer_list<Cycle> stripes = {sim::BatchKernel::kCampaignStripe,
                                            7}) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const Cycle max_cycles : cuts) {
    for (const Cycle stripe : stripes) {
      const std::string where = name + " max " + std::to_string(max_cycles) +
                                " stripe " + std::to_string(stripe);
      Rig ticked(cfg);
      Rig skipped(cfg);
      const bool fired_ticked = ticked.run_ticked(max_cycles);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(max_cycles, stripe, simulated, executed);
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      expect_same_rig(ticked, skipped, where);
      EXPECT_LE(executed, simulated) << where;
      // Every simulated cycle is a bus cycle of the skipping lane.
      EXPECT_EQ(simulated, skipped.bus->statistics().total_cycles) << where;
      executed_total += executed;
      simulated_total += simulated;
    }
  }
  return {executed_total, simulated_total};
}

TEST(FastForward, CoreAloneSkippedMatchesTicked) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RigConfig cfg;
    cfg.contenders = false;  // isolation: the TuA alone on the bus
    cfg.seed = seed;
    const auto [executed, simulated] =
        check_rig(cfg, "iso seed " + std::to_string(seed));
    EXPECT_LT(executed * 2, simulated) << "compute gaps must be skipped";
  }
}

TEST(FastForward, BusWithoutFilterSkippedMatchesTicked) {
  for (const bus::ArbiterKind arbiter :
       {bus::ArbiterKind::kRandomPermutation, bus::ArbiterKind::kRoundRobin,
        bus::ArbiterKind::kTdma, bus::ArbiterKind::kFifo}) {
    for (const bool overlapped : {true, false}) {
      RigConfig cfg;
      cfg.cores = 2;
      cfg.policy = ContenderPolicy::kAlwaysCompete;
      cfg.arbiter = arbiter;
      cfg.overlapped = overlapped;
      cfg.seed = 7;
      cfg.ops = 150;
      (void)check_rig(cfg, std::string(bus::short_name(arbiter)) +
                               (overlapped ? " overlapped" : " gapped"));
    }
  }
}

TEST(FastForward, BusWithCreditFilterSkippedMatchesTicked) {
  for (const NamedConfig& named : credit_configs()) {
    for (const ContenderPolicy policy :
         {ContenderPolicy::kAlwaysCompete, ContenderPolicy::kCompLatch}) {
      for (const bus::ArbiterKind arbiter :
           {bus::ArbiterKind::kRandomPermutation, bus::ArbiterKind::kTdma}) {
        RigConfig cfg;
        cfg.cba = named.config;
        cfg.policy = policy;
        cfg.arbiter = arbiter;
        cfg.seed = 11;
        cfg.ops = 150;
        const std::string policy_name =
            policy == ContenderPolicy::kCompLatch ? " comp-latch " : " always ";
        const auto [executed, simulated] =
            check_rig(cfg, named.name + policy_name +
                               std::string(bus::short_name(arbiter)));
        EXPECT_LT(executed, simulated) << named.name;
      }
    }
  }
}

TEST(FastForward, RealCorunnersUnderCreditsSkippedMatchesTicked) {
  // Two real cores and two Table-I contenders on H-CBA: core-to-core
  // store drains, forwarding and COMP latches interleave.
  RigConfig cfg;
  cfg.cores = 2;
  cfg.cba = CbaConfig::paper_hcba(56);
  cfg.policy = ContenderPolicy::kCompLatch;
  for (const std::uint64_t seed : {5u, 6u}) {
    cfg.seed = seed;
    (void)check_rig(cfg, "corun seed " + std::to_string(seed));
  }
}

// --- edge cases --------------------------------------------------------------

TEST(FastForward, SaturationCrossingInTheCycleTheTuaRequests) {
  // Contender 1 sits 10 ticks below its cap, so its tick at cycle 10 is
  // the first to see BUDGi saturated; the TuA's single load (an L1 miss)
  // goes on the bus after `gap` compute cycles, i.e. at cycle `gap`. At
  // gap == 10 the latch condition becomes true in the very cycle the TuA
  // raises its request: the core ticks first, the contender sees the
  // request and the full budget together, latches and requests.
  const CbaConfig table1 = CbaConfig::paper_table1();
  for (std::uint32_t gap = 6; gap <= 14; ++gap) {
    for (const Cycle stripe : {Cycle{512}, Cycle{10}, Cycle{11}}) {
      RigConfig cfg;
      cfg.cba = table1;
      cfg.policy = ContenderPolicy::kCompLatch;
      cfg.tua_ops = std::vector<cpu::MemOp>{{MemOpKind::kLoad, 0x1000, gap}};
      Rig ticked(cfg);
      Rig skipped(cfg);
      for (Rig* rig : {&ticked, &skipped}) {
        for (MasterId m = 1; m < 4; ++m) {
          rig->filter->state().set_budget(m, table1.saturation[m] - 10 * m);
        }
      }
      const std::string where =
          "gap " + std::to_string(gap) + " stripe " + std::to_string(stripe);
      const bool fired_ticked = ticked.run_ticked(5'000);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(5'000, stripe, simulated, executed);
      ASSERT_TRUE(fired_ticked) << where;
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      expect_same_rig(ticked, skipped, where);
      // An earlier TuA request is granted before the crossing; from
      // gap 10 on the TuA is pending when the budget fills.
      EXPECT_EQ(skipped.contenders[0]->grants() > 0, gap >= 10) << where;
    }
  }
}

/// A Multicore run through the serial kernel and through a one-lane
/// skipping BatchKernel, compared record for record.
void expect_same_machine_runs(const platform::PlatformConfig& config,
                              const std::vector<cpu::MemOp>& ops,
                              Cycle max_cycles, Cycle stripe,
                              const std::string& where) {
  workloads::FixedOpsStream tua_a(ops);
  workloads::FixedOpsStream tua_b(ops);
  platform::Multicore ticked(config, 42, tua_a);
  platform::Multicore skipped(config, 42, tua_b);
  const platform::RunResult a = ticked.run(max_cycles);
  sim::BatchKernel batch(1, stripe);
  skipped.attach(batch, 0);
  const bool fired =
      batch.run_until([&](std::size_t) { return skipped.tua_done(); },
                      max_cycles)[0];
  const platform::RunResult b = skipped.harvest(fired, batch.now());
  EXPECT_EQ(a.tua_finished, b.tua_finished) << where;
  EXPECT_EQ(a.tua_cycles, b.tua_cycles) << where;
  expect_same_core(ticked.core(0), skipped.core(0), where);
  expect_same_bus(ticked.bus(), skipped.bus(), where);
  if (ticked.credit_filter() != nullptr) {
    expect_same_credits(ticked.credit_filter()->state(),
                        skipped.credit_filter()->state(), where);
  }
  ASSERT_EQ(a.record.keys(), b.record.keys()) << where;
  for (const std::string& key : a.record.keys()) {
    const std::span<const double> x = a.record.at(key).elements();
    const std::span<const double> y = b.record.at(key).elements();
    ASSERT_EQ(x.size(), y.size()) << where << ' ' << key;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(y[i]))
          << where << ' ' << key << '[' << i << ']';
    }
  }
  EXPECT_LT(batch.executed_lane_cycles(), batch.simulated_lane_cycles())
      << where;
}

TEST(FastForward, UnfinishedRunCutInsideAComputeBurst) {
  // Bursts of 1000 compute cycles between loads: a cut at 2500 lands in
  // the third burst, so the last executed cycle is far behind the cut
  // and the tail is skipped in closed form.
  std::vector<cpu::MemOp> ops;
  for (int i = 0; i < 10; ++i) {
    ops.push_back({MemOpKind::kLoad, static_cast<Addr>(0x4000 * i), 1000});
  }
  for (const BusSetup setup : {BusSetup::kRp, BusSetup::kCba}) {
    platform::PlatformConfig iso = platform::PlatformConfig::paper(setup);
    iso.mode = PlatformMode::kOperation;
    for (const Cycle cut : {Cycle{2'500}, Cycle{2'047}}) {
      expect_same_machine_runs(iso, ops, cut, 512,
                               "compute burst cut " + std::to_string(cut));
    }
  }
}

TEST(FastForward, UnfinishedRunCutInsideAContenderTransfer) {
  // Max contention: find cuts at which the serial run ends with a
  // Table-I contender holding the bus mid-transfer, under RP (always
  // compete) and CBA (COMP latch).
  const auto ops = random_ops(3, 400);
  for (const BusSetup setup : {BusSetup::kRp, BusSetup::kCba}) {
    const platform::PlatformConfig wcet =
        platform::PlatformConfig::paper_wcet(setup);
    int found = 0;
    for (Cycle cut = 4'000; cut < 8'000 && found < 3; cut += 37) {
      workloads::FixedOpsStream probe_stream(ops);
      platform::Multicore probe(wcet, 42, probe_stream);
      const platform::RunResult r = probe.run(cut);
      const MasterId holder = probe.bus().holder();
      if (r.tua_finished || holder == 0 || holder == kNoMaster) continue;
      ++found;
      const std::string where = std::string(to_string(setup)) +
                                " contender transfer cut " +
                                std::to_string(cut);
      expect_same_machine_runs(wcet, ops, cut, 512, where);
    }
    EXPECT_EQ(found, 3) << to_string(setup);
  }
}

TEST(FastForward, StripeEndsInsideQuietWindows) {
  // 100- and 333-cycle compute bursts against stripes of 64 and 97: the
  // fast-forward is capped at every stripe end and resumes there.
  std::vector<cpu::MemOp> ops;
  for (int i = 0; i < 40; ++i) {
    ops.push_back({i % 3 == 0 ? MemOpKind::kStore : MemOpKind::kLoad,
                   static_cast<Addr>(0x2000 * i), i % 2 == 0 ? 100u : 333u});
  }
  platform::PlatformConfig iso =
      platform::PlatformConfig::paper(BusSetup::kHcba);
  iso.mode = PlatformMode::kOperation;
  const platform::PlatformConfig wcet =
      platform::PlatformConfig::paper_wcet(BusSetup::kCba);
  for (const Cycle stripe : {Cycle{64}, Cycle{97}}) {
    const std::string where = "stripe " + std::to_string(stripe);
    expect_same_machine_runs(iso, ops, 50'000'000, stripe, where);
    expect_same_machine_runs(wcet, ops, 50'000'000, stripe, "wcet " + where);
  }
}


// --- segmented interconnect: quiet segments skipped vs ticked ----------------

/// Per-segment Table-I accounting as the platform sets it up: the home
/// cores under homogeneous CBA among themselves, every bridge-ingress
/// slot credit-exempt (full-rate recovery, zero threshold).
[[nodiscard]] CbaConfig segment_credits(std::uint32_t cores,
                                        std::uint32_t n_local) {
  CbaConfig cfg = CbaConfig::homogeneous(cores, 56);
  const std::uint64_t cap = cfg.scale * cfg.max_latency;
  cfg.n_masters = n_local;
  cfg.increment.resize(n_local, cfg.scale);
  cfg.saturation.resize(n_local, cap);
  cfg.threshold.resize(n_local, 0);
  cfg.initial.resize(n_local, cap);
  cfg.validate();
  return cfg;
}

enum class SegFilters : std::uint8_t {
  kNone,        ///< no eligibility filter on any segment
  kCredits,     ///< a CreditFilter per segment
  kContenders,  ///< credits, and a Table-I contender on every segment
};

/// Masters homed on each segment of a rig.
constexpr std::uint32_t kPerSegment = 2;

struct SegRigConfig {
  bus::Topology topology = bus::Topology::chain(2);
  std::uint32_t depth = 0;  ///< bridge_depth (0 = unbounded)
  SegFilters filters = SegFilters::kNone;
  bus::ArbiterKind arbiter = bus::ArbiterKind::kRandomPermutation;
  std::uint64_t seed = 1;
  std::size_t ops = 120;
  /// Per-master ops when set (random_ops otherwise).
  std::vector<std::vector<cpu::MemOp>> scripts;
  /// Register a reader of every credit budget, ticked every cycle.
  bool budget_reader = false;
  /// Period of a reader of every statistic (0: none).
  Cycle stats_period = 0;
};

/// Every public statistic of the interconnect, named, in a fixed order.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
interconnect_stats(const bus::SegmentedInterconnect& seg) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto add_bus = [&](const std::string& name,
                           const bus::BusStatistics& st) {
    out.emplace_back(name + ".busy", st.busy_cycles);
    out.emplace_back(name + ".idle", st.idle_cycles);
    out.emplace_back(name + ".total", st.total_cycles);
    for (std::size_t m = 0; m < st.master.size(); ++m) {
      const auto& pm = st.master[m];
      const std::string who = name + ".m" + std::to_string(m);
      out.emplace_back(who + ".requests", pm.requests);
      out.emplace_back(who + ".grants", pm.grants);
      out.emplace_back(who + ".completions", pm.completions);
      out.emplace_back(who + ".wait", pm.wait_cycles);
      out.emplace_back(who + ".hold", pm.hold_cycles);
      out.emplace_back(who + ".max_wait", pm.max_wait);
    }
  };
  // Per-segment reads first: each must settle its own segment.
  for (std::uint32_t s = 0; s < seg.n_segments(); ++s) {
    add_bus("seg" + std::to_string(s), seg.segment_statistics(s));
    out.emplace_back("stalls" + std::to_string(s), seg.backpressure_stalls(s));
  }
  add_bus("global", seg.statistics());
  const bus::BridgeStats& bridges = seg.bridge_stats();
  out.emplace_back("bridge.hops", bridges.hops);
  out.emplace_back("bridge.queue_cycles", bridges.queue_cycles);
  out.emplace_back("bridge.remote", bridges.remote_transactions);
  out.emplace_back("bridge.local", bridges.local_transactions);
  for (std::uint32_t b = 0; b < seg.n_bridges(); ++b) {
    const std::string name = "bridge" + std::to_string(b);
    out.emplace_back(name + ".depth", seg.bridge_queue_depth(b));
    out.emplace_back(name + ".depth_sum", seg.bridge_queue_depth_sum(b));
    out.emplace_back(name + ".depth_max", seg.bridge_queue_depth_max(b));
  }
  const std::span<const std::uint64_t> hops = seg.hop_histogram();
  for (std::size_t h = 0; h < hops.size(); ++h) {
    out.emplace_back("hops" + std::to_string(h), hops[h]);
  }
  out.emplace_back("ticked", seg.ticked_cycles());
  return out;
}

/// Order-sensitive running digest of what a reader saw, and when.
struct Digest {
  std::uint64_t value = 0;
  std::uint64_t reads = 0;
  void add(std::uint64_t word) { value = value * 1'000'003 + word + 1; }
  bool operator==(const Digest&) const = default;
};

/// Folds every filter's budgets and clamp counts into a digest each
/// cycle, after the interconnect ticked -- the view the tracer's credit
/// tracks and a Table-I contender have of a quiet segment. Keeps the
/// default horizon, so its lane executes every cycle.
class BudgetReader final : public sim::Component {
 public:
  explicit BudgetReader(
      const std::vector<std::unique_ptr<core::CreditFilter>>& filters)
      : sim::Component("budget-reader"), filters_(filters) {}

  void tick(Cycle now) override {
    seen.add(now);
    for (const auto& filter : filters_) {
      const CreditState& state = filter->state();
      for (MasterId m = 0; m < state.config().n_masters; ++m) {
        seen.add(state.budget(m));
        seen.add(state.underflow_clamps(m));
      }
    }
    ++seen.reads;
  }

  Digest seen;

 private:
  const std::vector<std::unique_ptr<core::CreditFilter>>& filters_;
};

/// Reads every statistic every `period` cycles, mid-run; its horizon is
/// the next read, so the lane still skips between reads.
class StatsReader final : public sim::Component {
 public:
  StatsReader(const bus::SegmentedInterconnect& seg, Cycle period)
      : sim::Component("stats-reader"), seg_(seg), period_(period) {}

  void tick(Cycle now) override {
    if (now % period_ != 0) return;
    seen.add(now);
    for (const auto& [name, value] : interconnect_stats(seg_)) {
      seen.add(value);
    }
    ++seen.reads;
  }

  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return (now / period_ + 1) * period_;
  }

  Digest seen;

 private:
  const bus::SegmentedInterconnect& seg_;
  Cycle period_;
};

/// Cores (and, with kContenders, one Table-I contender per segment at its
/// last home slot), then the interconnect, then the readers -- built
/// identically from the same seed.
struct SegRig {
  explicit SegRig(const SegRigConfig& cfg) : bank(cfg.seed) {
    bus::SegmentedConfig sc;
    sc.topology = cfg.topology;
    sc.n_masters = cfg.topology.n_segments() * kPerSegment;
    sc.bridge_depth = cfg.depth;
    seg = std::make_unique<bus::SegmentedInterconnect>(
        sc, slave, [this, &cfg](std::uint32_t n_local, std::uint32_t) {
          return bus::make_arbiter(cfg.arbiter, n_local, bank);
        });
    if (cfg.filters != SegFilters::kNone) {
      for (std::uint32_t s = 0; s < seg->n_segments(); ++s) {
        filters.push_back(std::make_unique<core::CreditFilter>(
            segment_credits(kPerSegment, seg->n_local_masters(s))));
        seg->set_filter(s, filters.back().get());
      }
    }
    for (MasterId m = 0; m < sc.n_masters; ++m) {
      const std::uint32_t home = seg->home_segment(m);
      if (cfg.filters == SegFilters::kContenders && m != 0 &&
          seg->local_slot(m) + 1 == kPerSegment) {
        core::VirtualContenderConfig vc;
        vc.self = m;
        vc.tua = 0;
        vc.credit_slot = seg->local_slot(m);
        contenders.push_back(std::make_unique<core::VirtualContender>(
            vc, *seg, &filters[home]->state()));
        order.push_back(contenders.back().get());
        continue;
      }
      std::vector<cpu::MemOp> ops = m < cfg.scripts.size()
                                        ? cfg.scripts[m]
                                        : random_ops(cfg.seed * 31 + m,
                                                     cfg.ops);
      streams.push_back(
          std::make_unique<workloads::FixedOpsStream>(std::move(ops)));
      cores.push_back(std::make_unique<cpu::InOrderCore>(
          m, cpu::CoreConfig{}, *streams.back(), *seg, bank));
      order.push_back(cores.back().get());
    }
    order.push_back(seg.get());
    if (cfg.budget_reader) {
      budgets = std::make_unique<BudgetReader>(filters);
      order.push_back(budgets.get());
    }
    if (cfg.stats_period > 0) {
      reads = std::make_unique<StatsReader>(*seg, cfg.stats_period);
      order.push_back(reads.get());
    }
  }

  [[nodiscard]] bool cores_done() const {
    for (const auto& core : cores) {
      if (!core->done()) return false;
    }
    return true;
  }

  /// The serial reference: every component, every segment, every cycle.
  bool run_ticked(Cycle max_cycles) {
    sim::Kernel kernel;
    for (sim::Component* c : order) kernel.add(*c);
    return kernel.run_until([this] { return cores_done(); }, max_cycles);
  }

  /// One skipping lane; returns the fired flag, reports the lane-cycles.
  bool run_skipped(Cycle max_cycles, Cycle stripe, std::uint64_t& simulated,
                   std::uint64_t& executed) {
    sim::BatchKernel batch(1, stripe);
    for (sim::Component* c : order) batch.add(0, *c);
    const std::vector<bool> fired = batch.run_until(
        [this](std::size_t) { return cores_done(); }, max_cycles);
    simulated = batch.simulated_lane_cycles();
    executed = batch.executed_lane_cycles();
    return fired[0];
  }

  PatternSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::SegmentedInterconnect> seg;
  std::vector<std::unique_ptr<core::CreditFilter>> filters;
  std::vector<std::unique_ptr<workloads::FixedOpsStream>> streams;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
  std::vector<std::unique_ptr<core::VirtualContender>> contenders;
  std::unique_ptr<BudgetReader> budgets;
  std::unique_ptr<StatsReader> reads;
  std::vector<sim::Component*> order;
};

void expect_same_seg_rig(const SegRig& a, const SegRig& b,
                         const std::string& where) {
  const auto x = interconnect_stats(*a.seg);
  const auto y = interconnect_stats(*b.seg);
  ASSERT_EQ(x.size(), y.size()) << where;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].second, y[i].second) << where << ' ' << x[i].first;
  }
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    expect_same_core(*a.cores[i], *b.cores[i],
                     where + " core " + std::to_string(i));
  }
  for (std::size_t s = 0; s < a.filters.size(); ++s) {
    expect_same_credits(a.filters[s]->state(), b.filters[s]->state(),
                        where + " segment " + std::to_string(s));
  }
  for (std::size_t i = 0; i < a.contenders.size(); ++i) {
    EXPECT_EQ(a.contenders[i]->comp(), b.contenders[i]->comp()) << where;
    EXPECT_EQ(a.contenders[i]->grants(), b.contenders[i]->grants()) << where;
  }
  if (a.budgets) {
    EXPECT_EQ(a.budgets->seen.reads, b.budgets->seen.reads) << where;
    EXPECT_TRUE(a.budgets->seen == b.budgets->seen) << where << " budgets";
  }
  if (a.reads) {
    EXPECT_EQ(a.reads->seen.reads, b.reads->seen.reads) << where;
    EXPECT_TRUE(a.reads->seen == b.reads->seen) << where << " mid-run reads";
  }
}

/// Runs `cfg` ticked and skipped at every cut and stripe; returns the
/// lane-cycles the skipping runs executed and simulated in total.
std::pair<std::uint64_t, std::uint64_t> check_seg_rig(
    const SegRigConfig& cfg, const std::string& name,
    std::initializer_list<Cycle> cuts = {2'000'000, 3'001, 20'011},
    std::initializer_list<Cycle> stripes = {sim::BatchKernel::kCampaignStripe,
                                            7}) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const Cycle max_cycles : cuts) {
    for (const Cycle stripe : stripes) {
      const std::string where = name + " max " + std::to_string(max_cycles) +
                                " stripe " + std::to_string(stripe);
      SegRig ticked(cfg);
      SegRig skipped(cfg);
      const bool fired_ticked = ticked.run_ticked(max_cycles);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(max_cycles, stripe, simulated, executed);
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      if (max_cycles >= 1'000'000) {
        EXPECT_TRUE(fired_ticked) << where << ": the long cut never binds";
      }
      expect_same_seg_rig(ticked, skipped, where);
      EXPECT_LE(executed, simulated) << where;
      // Every simulated cycle is an interconnect cycle of the lane.
      EXPECT_EQ(simulated, skipped.seg->ticked_cycles()) << where;
      executed_total += executed;
      simulated_total += simulated;
    }
  }
  return {executed_total, simulated_total};
}

[[nodiscard]] std::vector<bus::Topology> rig_topologies() {
  return {bus::Topology::chain(2), bus::Topology::ring(4),
          bus::Topology::mesh(2, 2), bus::Topology::mesh(3, 3)};
}

/// Every rig topology at depth 0 and 1 under `filters`; mid-run reads on
/// every rig, and a per-cycle budget reader on the 2x2 mesh.
void check_seg_topologies(SegFilters filters, const std::string& label) {
  for (const bus::Topology& topology : rig_topologies()) {
    for (const std::uint32_t depth : {0u, 1u}) {
      SegRigConfig cfg;
      cfg.topology = topology;
      cfg.depth = depth;
      cfg.filters = filters;
      cfg.seed = 3 + depth;
      cfg.stats_period = 97;
      cfg.budget_reader = filters != SegFilters::kNone &&
                          topology.label() == "mesh:2x2";
      const std::string name = label + " " + topology.label() + " depth " +
                               std::to_string(depth);
      const auto [executed, simulated] = check_seg_rig(cfg, name);
      if (!cfg.budget_reader) {
        EXPECT_LT(executed, simulated) << name << ": quiet cycles skipped";
      }
    }
  }
}

TEST(FastForward, SegmentedWithoutFilterSkippedMatchesTicked) {
  check_seg_topologies(SegFilters::kNone, "no filter");
}

TEST(FastForward, SegmentedWithCreditFiltersSkippedMatchesTicked) {
  check_seg_topologies(SegFilters::kCredits, "credits");
}

TEST(FastForward, SegmentedContendersSkippedMatchesTicked) {
  check_seg_topologies(SegFilters::kContenders, "contenders");
}

/// One 0-compute load of `addr` (PatternSlave: 56-cycle hold when
/// addr / 32 is a multiple of 8, else 5 or 28).
[[nodiscard]] std::vector<cpu::MemOp> one_load(Addr addr) {
  return {{MemOpKind::kLoad, addr, 0}};
}

/// chain:2, two masters per segment: masters 0 and 1 live on segment 0,
/// 2 and 3 on segment 1; address 0x1000 routes to segment 1.
[[nodiscard]] SegRigConfig scripted_chain(
    std::vector<std::vector<cpu::MemOp>> scripts, std::uint32_t depth) {
  SegRigConfig cfg;
  cfg.depth = depth;
  cfg.scripts = std::move(scripts);
  for (std::size_t m = cfg.scripts.size(); m < 4; ++m) {
    cfg.scripts.emplace_back();  // idle: done at its first tick
  }
  return cfg;
}

TEST(FastForward, SegmentedReadyHeadBehindABusyIngressPort) {
  // Masters 0 and 1 both load a 56-cycle line on segment 1. The first
  // forward beat ends at cycle 5 and is delivered at 7; the second ends
  // at 10 and is ready at 12, but segment 1's ingress port is busy with
  // the first transfer until cycle 63. The ready head has no horizon of
  // its own: the lane sleeps until the port's completion, then delivers.
  const SegRigConfig cfg =
      scripted_chain({one_load(0x1000), one_load(0x1100)}, 0);
  SegRig ticked(cfg);
  SegRig skipped(cfg);
  ASSERT_TRUE(ticked.run_ticked(10'000));
  std::uint64_t simulated = 0;
  std::uint64_t executed = 0;
  ASSERT_TRUE(skipped.run_skipped(10'000, 512, simulated, executed));
  expect_same_seg_rig(ticked, skipped, "busy ingress port");
  // The second entry waited in the queue from cycle 10 to 63.
  EXPECT_GT(ticked.seg->bridge_queue_depth_sum(0), 50u);
  EXPECT_LT(executed * 4, simulated);
}

TEST(FastForward, SegmentedPopOpensTheUpstreamMaskInTheSameCycle) {
  // Depth 1: master 0's forward beat reserves the only slot of bridge
  // 0 -> 1 when it starts (cycle 1), so master 1 stalls behind it. The
  // entry pops into segment 1 at the start of cycle 7, which opens
  // segment 0's mask, and segment 0 grants master 1 in that same cycle.
  // Its stalls are counted with the closed mask for cycles 1..6 and the
  // open one from cycle 7 on.
  const SegRigConfig cfg =
      scripted_chain({one_load(0x1000), one_load(0x1100)}, 1);
  for (const Cycle stripe : {Cycle{512}, Cycle{7}, Cycle{8}}) {
    SegRig ticked(cfg);
    SegRig skipped(cfg);
    ASSERT_TRUE(ticked.run_ticked(10'000));
    std::uint64_t simulated = 0;
    std::uint64_t executed = 0;
    ASSERT_TRUE(skipped.run_skipped(10'000, stripe, simulated, executed));
    const std::string where = "pop stripe " + std::to_string(stripe);
    expect_same_seg_rig(ticked, skipped, where);
    EXPECT_EQ(ticked.seg->backpressure_stalls(0), 6u) << where;
  }
}

TEST(FastForward, SegmentedRemoteChargeToAQuietHomeSegment) {
  // Master 0 (home segment 0) loads from segment 1 and master 2 (home
  // segment 1) from segment 0, so one remote-occupancy charge lands on a
  // home segment BEFORE the completing one in tick order and one AFTER
  // it, each while the home segment is quiet. The home filter must see
  // its own cycle update and the charge in the serial order: a budget at
  // its cap ends a different amount lower otherwise. The budget reader
  // checks every cycle.
  for (const std::uint32_t depth : {0u, 1u}) {
    SegRigConfig cfg = scripted_chain(
        {one_load(0x1000), {}, one_load(0x0100), {}}, depth);
    cfg.filters = SegFilters::kCredits;
    cfg.budget_reader = true;
    cfg.stats_period = 5;
    const std::string where = "remote charge depth " + std::to_string(depth);
    (void)check_seg_rig(cfg, where, {10'000, 66, 130}, {512, 3});
  }
}

TEST(FastForward, SegmentedRunCutInsideATransferOnAQuietSegment) {
  // Master 0's load holds segment 1 from cycle 8 to 63 while segment 0
  // idles: cuts inside that window end the run with both segments quiet,
  // and harvesting settles the transfer's partial countdown.
  const SegRigConfig cfg = scripted_chain({one_load(0x1000)}, 0);
  (void)check_seg_rig(cfg, "quiet transfer",
                      {9, 20, 40, 62, 63, 64, 10'000}, {512, 16});
}

TEST(FastForward, DeadlockedBoundedRingSkipsWholeStripes) {
  // docs/TOPOLOGIES.md's bounded-ring deadlock: two masters per ring:4
  // segment load antipodal lines (two forward hops) at depth 1, all from
  // cycle 0. Round-robin grants each segment's second home master the
  // forward bridge the first one's delivery frees, ahead of that
  // delivery's own transit hop (cycle 7); so every forward bridge fills
  // while each ingress occupant waits on the next full one. From then on
  // every horizon is kNever and the lane executes only the first cycle
  // of each stripe.
  SegRigConfig cfg;
  cfg.topology = bus::Topology::ring(4);
  cfg.depth = 1;
  cfg.arbiter = bus::ArbiterKind::kRoundRobin;
  for (MasterId m = 0; m < 8; ++m) {
    const Addr stripe = static_cast<Addr>((m / 2 + 2) % 4) << 12;
    std::vector<cpu::MemOp> ops;
    for (Addr i = 0; i < 8; ++i) {
      ops.push_back({MemOpKind::kLoad, stripe + (m % 2) * 0x800 + i * 32, 0});
    }
    cfg.scripts.push_back(std::move(ops));
  }
  const Cycle max_cycles = 200'000;
  SegRig ticked(cfg);
  SegRig skipped(cfg);
  EXPECT_FALSE(ticked.run_ticked(max_cycles));
  std::uint64_t simulated = 0;
  std::uint64_t executed = 0;
  EXPECT_FALSE(skipped.run_skipped(max_cycles,
                                   sim::BatchKernel::kCampaignStripe,
                                   simulated, executed));
  expect_same_seg_rig(ticked, skipped, "deadlocked ring");
  EXPECT_EQ(simulated, max_cycles);
  const std::uint64_t stripes = max_cycles / sim::BatchKernel::kCampaignStripe;
  EXPECT_GE(executed, stripes);
  EXPECT_LE(executed, stripes + 32) << "only the run-up before the deadlock "
                                        "executes more than a stripe start";
  std::uint64_t stalls = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    stalls += skipped.seg->backpressure_stalls(s);
  }
  EXPECT_GT(stalls, max_cycles) << "every segment stalls to the end";
}

}  // namespace
}  // namespace cbus
