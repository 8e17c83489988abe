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
//    request.
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

}  // namespace
}  // namespace cbus
