// Tests for the paper's contribution: CBA configuration factories, budget
// counter dynamics (Table I), the eligibility filter, H-CBA methods 1 & 2,
// and the WCET-estimation-mode COMP latch.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "core/cba_config.hpp"
#include "core/contention_bounds.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "eager_credits.hpp"
#include "rng/splitmix64.hpp"
#include "sim/kernel.hpp"

namespace cbus::core {
namespace {

// --- CbaConfig ------------------------------------------------------------------

TEST(CbaConfig, HomogeneousFourCores) {
  const CbaConfig cfg = CbaConfig::homogeneous(4, 56);
  EXPECT_EQ(cfg.scale, 4u);
  EXPECT_EQ(cfg.increment, std::vector<std::uint64_t>(4, 1));
  EXPECT_EQ(cfg.saturation, std::vector<std::uint64_t>(4, 224));
  EXPECT_EQ(cfg.threshold, std::vector<std::uint64_t>(4, 224));
  EXPECT_DOUBLE_EQ(cfg.total_recovery_rate(), 1.0);
  EXPECT_DOUBLE_EQ(cfg.bandwidth_share(0), 0.25);
}

TEST(CbaConfig, PaperTable1Values) {
  const CbaConfig cfg = CbaConfig::paper_table1();
  EXPECT_EQ(cfg.n_masters, 4u);
  EXPECT_EQ(cfg.max_latency, 56u);
  EXPECT_EQ(cfg.saturation[0], 228u);  // the published register value
  EXPECT_EQ(cfg.scale, 4u);            // "-4 when using the bus"
  EXPECT_EQ(cfg.increment[0], 1u);     // "+1 every cycle"
}

TEST(CbaConfig, PaperHcbaRates) {
  // TuA 1/2, contenders 1/6 each: scale 6, increments {3,1,1,1}.
  const CbaConfig cfg = CbaConfig::paper_hcba(56);
  EXPECT_EQ(cfg.scale, 6u);
  EXPECT_EQ(cfg.increment[0], 3u);
  EXPECT_EQ(cfg.increment[1], 1u);
  EXPECT_DOUBLE_EQ(cfg.bandwidth_share(0), 0.5);
  EXPECT_NEAR(cfg.bandwidth_share(1), 1.0 / 6.0, 1e-12);
  EXPECT_EQ(cfg.saturation[0], 6u * 56u);
}

TEST(CbaConfig, CapBoostMethodOne) {
  const CbaConfig cfg =
      CbaConfig::with_cap_boost(CbaConfig::homogeneous(4, 56), 1, 2);
  EXPECT_EQ(cfg.saturation[1], 448u);
  EXPECT_EQ(cfg.threshold[1], 224u);  // threshold unchanged
  EXPECT_EQ(cfg.saturation[0], 224u);
}

TEST(CbaConfig, ValidationCatchesInconsistency) {
  CbaConfig cfg = CbaConfig::homogeneous(4, 56);
  cfg.threshold[2] = 300;  // above cap
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CbaConfig::homogeneous(4, 56);
  cfg.increment[0] = 5;  // recovers faster than the bus serves
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = CbaConfig::homogeneous(4, 56);
  cfg.initial[3] = 1000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(CbaConfig, HeterogeneousRejectsEmpty) {
  EXPECT_THROW(CbaConfig::heterogeneous(56, {}), std::invalid_argument);
}

// --- CreditState -------------------------------------------------------------------

TEST(CreditState, Table1UpdateRules) {
  // Table I: every cycle min(BUDGi+1, 228); when using the bus, -4.
  CreditState credits(CbaConfig::paper_table1());
  EXPECT_EQ(credits.budget(0), 228u);

  credits.tick(0);  // core 0 holds the bus: 228 + 1 - 4 = 225
  EXPECT_EQ(credits.budget(0), 225u);
  EXPECT_EQ(credits.budget(1), 228u);  // others stay saturated

  credits.tick(kNoMaster);  // idle: +1 saturating
  EXPECT_EQ(credits.budget(0), 226u);
}

TEST(CreditState, FiftySixCycleHoldCosts168) {
  CreditState credits(CbaConfig::paper_table1());
  for (int i = 0; i < 56; ++i) credits.tick(3);
  EXPECT_EQ(credits.budget(3), 228u - 3u * 56u);  // 60
  // Recovery to saturation takes exactly 168 idle cycles.
  int idle = 0;
  while (!credits.saturated(3)) {
    credits.tick(kNoMaster);
    ++idle;
  }
  EXPECT_EQ(idle, 168);
}

TEST(CreditState, EligibilityRequiresThreshold) {
  CreditState credits(CbaConfig::homogeneous(4, 56));
  EXPECT_TRUE(credits.eligible(0));
  credits.tick(0);  // spend a little
  EXPECT_FALSE(credits.eligible(0));
  EXPECT_EQ(credits.eligible_mask(0b1111), 0b1110u);
}

TEST(CreditState, SetBudgetForWcetMode) {
  CreditState credits(CbaConfig::paper_table1());
  credits.set_budget(0, 0);  // TuA starts from zero (paper §III-B)
  EXPECT_EQ(credits.budget(0), 0u);
  EXPECT_FALSE(credits.eligible(0));
  // It takes 228 cycles to become eligible for the first request.
  for (int i = 0; i < 228; ++i) credits.tick(kNoMaster);
  EXPECT_TRUE(credits.eligible(0));
}

TEST(CreditState, CapBoostAllowsBackToBack) {
  // H-CBA method 1: cap 2x threshold lets a master pay for a full MaxL
  // transaction and STILL be eligible immediately after.
  const CbaConfig cfg =
      CbaConfig::with_cap_boost(CbaConfig::homogeneous(4, 56), 0, 2);
  CreditState credits(cfg);
  for (int i = 0; i < 56; ++i) credits.tick(0);
  EXPECT_EQ(credits.budget(0), 448u - 168u);
  EXPECT_TRUE(credits.eligible(0)) << "boosted master eligible back-to-back";
  // A plain master spending the same is NOT eligible.
  CreditState plain(CbaConfig::homogeneous(4, 56));
  for (int i = 0; i < 56; ++i) plain.tick(0);
  EXPECT_FALSE(plain.eligible(0));
}

TEST(CreditState, UnderflowClampsWhenMaxLUnderestimated) {
  // MaxL configured as 8 but a 56-cycle transaction occurs: the counter
  // clamps at zero instead of underflowing, and the event is counted.
  CreditState credits(CbaConfig::homogeneous(4, 8));
  for (int i = 0; i < 56; ++i) credits.tick(2);
  EXPECT_GE(credits.budget(2), 0u);
  EXPECT_GT(credits.underflow_clamps(), 0u);
}

TEST(CreditState, HcbaRecoveryRatesDiffer) {
  CreditState credits(CbaConfig::paper_hcba(56));
  credits.set_budget(0, 0);
  credits.set_budget(1, 0);
  for (int i = 0; i < 100; ++i) credits.tick(kNoMaster);
  EXPECT_EQ(credits.budget(0), 300u);  // 3/cycle
  EXPECT_EQ(credits.budget(1), 100u);  // 1/cycle
}

TEST(CreditState, BudgetCyclesConversion) {
  CreditState credits(CbaConfig::homogeneous(4, 56));
  EXPECT_DOUBLE_EQ(credits.budget_cycles(0), 56.0);
}

// --- CreditState against the eager per-cycle reference ------------------------

/// The Table-I instance, H-CBA method 2, a cap-boosted master, a MaxL
/// under-estimate whose holds clamp, and a segment's slot layout: two
/// cores plus bridge-ingress ports (increment = scale, threshold 0,
/// starting at the cap) and one slot that never recovers.
[[nodiscard]] std::vector<std::pair<std::string, CbaConfig>> fuzz_configs() {
  CbaConfig segment = CbaConfig::homogeneous(2, 56);
  segment.n_masters = 6;
  for (MasterId m = 2; m < segment.n_masters; ++m) {
    segment.increment.push_back(segment.scale);
    segment.saturation.push_back(segment.scale * segment.max_latency);
    segment.threshold.push_back(0);
    segment.initial.push_back(segment.scale * segment.max_latency);
  }
  segment.increment[5] = 0;
  segment.initial[5] = 100;
  segment.threshold[5] = 50;
  segment.validate();
  return {
      {"table1", CbaConfig::paper_table1()},
      {"hcba", CbaConfig::paper_hcba(56)},
      {"cap_boost",
       CbaConfig::with_cap_boost(CbaConfig::homogeneous(4, 56), 1, 3)},
      {"maxl_under", CbaConfig::homogeneous(4, 8)},
      {"segment", segment},
  };
}

/// Every read of `lazy` against `eager`.
void expect_same_reads(const CreditState& lazy, const test::EagerCredits& eager,
                       std::uint32_t mask, const std::string& where) {
  const std::uint32_t n = lazy.config().n_masters;
  for (MasterId m = 0; m < n; ++m) {
    ASSERT_EQ(lazy.budget(m), eager.budget(m)) << where << " budget " << m;
    EXPECT_EQ(lazy.saturated(m), eager.saturated(m)) << where << ' ' << m;
    EXPECT_EQ(lazy.ticks_to_saturation(m), eager.ticks_to_saturation(m))
        << where << " saturation " << m;
    EXPECT_EQ(lazy.underflow_clamps(m), eager.underflow_clamps(m))
        << where << " clamps " << m;
  }
  EXPECT_EQ(lazy.underflow_clamps(), eager.underflow_clamps()) << where;
  const std::uint32_t all = (1u << n) - 1;
  EXPECT_EQ(lazy.eligible_mask(all), eager.eligible_mask(all)) << where;
  EXPECT_EQ(lazy.eligible_mask(mask), eager.eligible_mask(mask)) << where;
  EXPECT_EQ(lazy.ticks_to_eligible(mask), eager.ticks_to_eligible(mask))
      << where << " mask " << mask;
}

/// Drives `lazy` and a fresh eager reference through the same random
/// operations -- ticks and advances under a holder that changes (to
/// kNoMaster too), burst charges, forced budgets and retuned increments
/// -- and compares every read after each one.
void fuzz_against_eager(CreditState& lazy, const std::string& name,
                        std::uint64_t seed) {
  const CbaConfig& cfg = lazy.config();
  test::EagerCredits eager(cfg);
  rng::SplitMix64 rng(seed);
  const auto draw = [&](std::uint64_t bound) { return rng.next() % bound; };
  const auto any_master = [&] {
    return static_cast<MasterId>(draw(cfg.n_masters));
  };
  MasterId holder = kNoMaster;
  for (int op = 0; op < 1500; ++op) {
    if (draw(4) == 0) {
      // A holder change: a master (the same one again, sometimes) or an
      // idle bus.
      holder = draw(cfg.n_masters + 1) == 0 ? kNoMaster : any_master();
    }
    std::string what;
    const std::uint64_t kind = draw(100);
    if (kind < 40) {
      lazy.tick(holder);
      eager.tick(holder);
      what = "tick";
    } else if (kind < 65) {
      // Mostly inside one transaction or recovery window, sometimes past
      // every cap, and zero-length jumps.
      Cycle k = draw(60);
      if (draw(5) == 0) k = draw(1500);
      lazy.advance(holder, k);
      eager.advance(holder, k);
      what = "advance " + std::to_string(k);
    } else if (kind < 77) {
      const MasterId m = any_master();
      const Cycle occupancy = draw(90);
      lazy.charge(m, occupancy);
      eager.charge(m, occupancy);
      what = "charge " + std::to_string(m) + " by " + std::to_string(occupancy);
    } else if (kind < 86) {
      const MasterId m = any_master();
      std::uint64_t units = draw(cfg.saturation[m] + 1);
      if (draw(3) == 0) units = cfg.threshold[m];
      lazy.set_budget(m, units);
      eager.set_budget(m, units);
      what = "set_budget " + std::to_string(m);
    } else {
      const MasterId m = any_master();
      const std::uint64_t units = 1 + draw(cfg.scale);
      lazy.set_increment(m, units);
      eager.set_increment(m, units);
      what = "set_increment " + std::to_string(m) + " to " +
             std::to_string(units);
    }
    const std::uint32_t mask =
        static_cast<std::uint32_t>(draw(std::uint64_t{1} << cfg.n_masters));
    expect_same_reads(lazy, eager, mask,
                      name + " op " + std::to_string(op) + ' ' + what +
                          " holder " + std::to_string(holder));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CreditState, LazyCountersMatchEagerReferenceOnOwnedStorage) {
  std::uint64_t seed = 1;
  for (const auto& [name, cfg] : fuzz_configs()) {
    for (int run = 0; run < 3; ++run) {
      CreditState lazy(cfg);
      fuzz_against_eager(lazy, name, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CreditState, LazyCountersMatchEagerReferenceOnSoaViews) {
  std::uint64_t seed = 100;
  for (const auto& [name, cfg] : fuzz_configs()) {
    // Three lanes of one arena, interleaved word by word: each state is
    // fuzzed in turn while the others keep their own counters.
    CreditSoA soa(3, cfg);
    std::vector<std::unique_ptr<CreditState>> lanes;
    for (std::size_t l = 0; l < soa.lanes(); ++l) {
      lanes.push_back(std::make_unique<CreditState>(cfg, soa.lane(l)));
    }
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      fuzz_against_eager(*lanes[l], name + " lane " + std::to_string(l),
                         seed++);
      if (HasFatalFailure()) return;
    }
  }
}

// Parameterized sweep: recovery time after a hold of H cycles at scale N
// equals (N-1)*H for any H, N -- the core fairness identity, on the
// Table-I counter itself.
class RecoveryIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RecoveryIdentity, HoldThenRecover) {
  const auto [n, hold] = GetParam();
  CreditState credits(
      CbaConfig::homogeneous(static_cast<std::uint32_t>(n), 64));
  ASSERT_TRUE(credits.saturated(0));
  for (int i = 0; i < hold; ++i) credits.tick(0);
  int idle = 0;
  while (!credits.saturated(0)) {
    credits.tick(kNoMaster);
    ++idle;
  }
  EXPECT_EQ(idle, (n - 1) * hold);
  EXPECT_EQ(credits.underflow_clamps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndHolds, RecoveryIdentity,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(1, 5, 28, 56, 64)));

// --- CreditState as the bus filter -------------------------------------------------------

class NullSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    return 5;
  }
};

TEST(CreditFilter, ThrottlesShortRequestsToQuarterBandwidth) {
  // One master hammering 5-cycle requests through a CBA filter must end up
  // with at most ~25% occupancy (1/N with N=4) -- Eq. (1)'s guarantee.
  NullSlave slave;
  bus::RoundRobinArbiter arb(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arb, slave);
  CreditState filter(CbaConfig::homogeneous(4, 56));
  b.set_filter(&filter);
  sim::Kernel kernel;
  kernel.add(b);

  // Re-raise a request whenever the previous completed.
  class Hammer final : public bus::BusMaster {
   public:
    explicit Hammer(bus::NonSplitBus& bus) : bus_(&bus) {}
    void on_grant(const bus::BusRequest&, Cycle, Cycle) override {}
    void on_complete(const bus::BusRequest&, Cycle) override { idle = true; }
    bool idle = true;
    bus::NonSplitBus* bus_;
  } hammer(b);
  b.connect_master(0, hammer);

  for (int cycle = 0; cycle < 20'000; ++cycle) {
    if (hammer.idle) {
      bus::BusRequest req;
      req.master = 0;
      b.request(req, kernel.now());
      hammer.idle = false;
    }
    kernel.step();
  }
  const double share = b.statistics().occupancy_share(0);
  EXPECT_LE(share, 0.26);
  EXPECT_GT(share, 0.20);  // and it does get its guaranteed quarter
}

TEST(CreditFilter, HwCostIsSmall) {
  const CreditState filter(CbaConfig::paper_table1());
  const bus::HwCost cost = filter.hw_cost();
  EXPECT_EQ(cost.state_bits, 4u * 8u);  // four 8-bit counters
  EXPECT_LT(cost.lut_equivalents, 100u);
}

// --- VirtualContender / COMP latch (Table I) ------------------------------------------

struct WcetHarness {
  WcetHarness(ContenderPolicy policy, bool with_credits) {
    if (with_credits) {
      filter = std::make_unique<CreditState>(CbaConfig::paper_table1());
      b.set_filter(filter.get());
    }
    std::vector<VirtualContender::Contender> cs;
    for (MasterId m = 1; m < 4; ++m) {
      VirtualContenderConfig cfg;
      cfg.self = m;
      cfg.tua = 0;
      cfg.hold = 56;
      cfg.policy = policy;
      cs.push_back({cfg, filter.get()});
    }
    contenders = std::make_unique<VirtualContender>(cs, b);
    kernel.add(*contenders);
    kernel.add(b);
  }

  NullSlave slave;
  bus::RoundRobinArbiter arb{4};
  bus::NonSplitBus b{bus::BusConfig{4, true}, arb, slave};
  std::unique_ptr<CreditState> filter;
  std::unique_ptr<VirtualContender> contenders;
  sim::Kernel kernel;
};

TEST(VirtualContender, AlwaysCompeteSaturatesBus) {
  WcetHarness h(ContenderPolicy::kAlwaysCompete, /*with_credits=*/false);
  h.kernel.run(2000);
  const auto& s = h.b.statistics();
  // After the initial arbitration cycle the bus never idles.
  EXPECT_GE(static_cast<double>(s.busy_cycles) /
                static_cast<double>(s.total_cycles),
            0.99);
}

TEST(VirtualContender, CompLatchWaitsForTuaRequest) {
  WcetHarness h(ContenderPolicy::kCompLatch, /*with_credits=*/true);
  h.kernel.run(500);
  // The TuA never raised a request, so no contender may compete.
  EXPECT_EQ(h.b.statistics().busy_cycles, 0u);
  for (MasterId m = 1; m < 4; ++m) EXPECT_FALSE(h.contenders->comp(m));
}

TEST(VirtualContender, CompLatchFiresOnTuaRequest) {
  WcetHarness h(ContenderPolicy::kCompLatch, /*with_credits=*/true);
  // Raise a TuA request (master 0 has full budget initially here).
  bus::BusRequest req;
  req.master = 0;
  h.b.request(req, 0);
  h.kernel.run(3);
  // Contenders latched COMP and raised their 56-cycle requests.
  int competing = 0;
  for (MasterId m = 1; m < 4; ++m) {
    if (h.b.has_pending(m) || h.b.is_holding(m)) ++competing;
  }
  EXPECT_EQ(competing, 3);
}

TEST(VirtualContender, CompResetOnGrant) {
  WcetHarness h(ContenderPolicy::kCompLatch, /*with_credits=*/true);
  bus::BusRequest req;
  req.master = 0;
  h.b.request(req, 0);
  // Run long enough for at least one contender grant.
  h.kernel.run(80);
  int reset_count = 0;
  for (MasterId m = 1; m < 4; ++m) {
    if (h.contenders->grants(m) > 0 && !h.contenders->comp(m)) ++reset_count;
  }
  EXPECT_GT(reset_count, 0);
}

TEST(VirtualContender, BudgetGateDelaysRecompetition) {
  WcetHarness h(ContenderPolicy::kCompLatch, /*with_credits=*/true);
  // Keep the TuA "requesting" forever: raise a fresh request whenever free.
  std::uint64_t tua_completions = 0;
  class Counter final : public bus::BusMaster {
   public:
    explicit Counter(std::uint64_t& n) : n_(&n) {}
    void on_grant(const bus::BusRequest&, Cycle, Cycle) override {}
    void on_complete(const bus::BusRequest&, Cycle) override { ++*n_; }
    std::uint64_t* n_;
  } counter(tua_completions);
  h.b.connect_master(0, counter);

  for (int cycle = 0; cycle < 4000; ++cycle) {
    if (h.b.can_request(0)) {
      bus::BusRequest req;
      req.master = 0;
      h.b.request(req, h.kernel.now());
    }
    h.kernel.step();
  }
  // Each contender's 56-cycle grant costs 168 net budget (recovery 168
  // cycles), so per contender grants are bounded by ~ cycles / 224.
  for (MasterId m = 1; m < 4; ++m) {
    EXPECT_LE(h.contenders->grants(m), 4000u / 224u + 2u);
  }
  // And the TuA is never starved out.
  EXPECT_GT(tua_completions, 0u);
}

TEST(VirtualContender, ConfigRejectsSelfEqualsTua) {
  NullSlave slave;
  bus::RoundRobinArbiter arb(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arb, slave);
  VirtualContenderConfig cfg;
  cfg.self = 0;
  cfg.tua = 0;
  cfg.policy = ContenderPolicy::kAlwaysCompete;
  const VirtualContender::Contender c{cfg, nullptr};
  EXPECT_THROW(VirtualContender({&c, 1}, b), std::invalid_argument);
}

TEST(VirtualContender, CompLatchRequiresCredits) {
  NullSlave slave;
  bus::RoundRobinArbiter arb(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arb, slave);
  VirtualContenderConfig cfg;
  cfg.self = 1;
  cfg.tua = 0;
  cfg.policy = ContenderPolicy::kCompLatch;
  const VirtualContender::Contender c{cfg, nullptr};
  EXPECT_THROW(VirtualContender({&c, 1}, b), std::invalid_argument);
}

TEST(VirtualContender, RejectsAnEmptyUnorderedOrMixedTuaList) {
  NullSlave slave;
  bus::RoundRobinArbiter arb(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arb, slave);
  const auto contender = [](MasterId self, MasterId tua) {
    VirtualContenderConfig cfg;
    cfg.self = self;
    cfg.tua = tua;
    cfg.policy = ContenderPolicy::kAlwaysCompete;
    return VirtualContender::Contender{cfg, nullptr};
  };
  EXPECT_THROW(VirtualContender({}, b), std::invalid_argument);
  const VirtualContender::Contender descending[] = {contender(2, 0),
                                                    contender(1, 0)};
  EXPECT_THROW(VirtualContender(descending, b), std::invalid_argument);
  const VirtualContender::Contender twice[] = {contender(1, 0),
                                               contender(1, 0)};
  EXPECT_THROW(VirtualContender(twice, b), std::invalid_argument);
  const VirtualContender::Contender mixed[] = {contender(2, 0),
                                               contender(3, 1)};
  EXPECT_THROW(VirtualContender(mixed, b), std::invalid_argument);
  const VirtualContender::Contender ok[] = {contender(1, 0), contender(3, 0)};
  const VirtualContender bank(ok, b);
  EXPECT_EQ(bank.grants(3), 0u);
  // Master 2 is not one of its contenders.
  EXPECT_THROW((void)bank.comp(2), std::invalid_argument);
}

// --- analytical contention bounds (SIII-B companions) --------------------------------

TEST(ContentionBounds, MaxRequestDelayFourCores) {
  // (MaxL-1) residual + 3 x MaxL grants + 1 arbitration = 55+168+1 = 224.
  const auto cfg = CbaConfig::homogeneous(4, 56);
  EXPECT_EQ(max_request_delay(cfg), 224u);
}

TEST(ContentionBounds, RefillDelayMatchesCounterDynamics) {
  const auto cfg = CbaConfig::homogeneous(4, 56);
  // A 56-cycle hold at net -3/cycle refills in 168 cycles.
  EXPECT_EQ(max_refill_delay(cfg, 0, 56), 168u);
  // A 5-cycle hold: 15 units at +1/cycle.
  EXPECT_EQ(max_refill_delay(cfg, 0, 5), 15u);
  // Simulated counterpart (must agree exactly):
  CreditState credits(cfg);
  for (int i = 0; i < 56; ++i) credits.tick(0);
  Cycle idle = 0;
  while (!credits.eligible(0)) {
    credits.tick(kNoMaster);
    ++idle;
  }
  EXPECT_EQ(idle, max_refill_delay(cfg, 0, 56));
}

TEST(ContentionBounds, HcbaRefillFasterForTua) {
  const auto cfg = CbaConfig::paper_hcba(56);
  // TuA: 56 x (6-3) = 168 units at +3/cycle = 56 cycles.
  EXPECT_EQ(max_refill_delay(cfg, 0, 56), 56u);
  // Contender: 56 x (6-1) = 280 units at +1/cycle.
  EXPECT_EQ(max_refill_delay(cfg, 1, 56), 280u);
}

TEST(ContentionBounds, OccupancyBoundMatchesConfig) {
  const auto cfg = CbaConfig::paper_hcba(56);
  EXPECT_DOUBLE_EQ(occupancy_bound(cfg, 0), 0.5);
  EXPECT_NEAR(occupancy_bound(cfg, 1), 1.0 / 6.0, 1e-12);
}

TEST(ContentionBounds, SlowdownBoundIsNForSaturatingTask) {
  const auto cfg = CbaConfig::homogeneous(4, 56);
  // Fully bus-bound task: the paper's "at most N times".
  EXPECT_DOUBLE_EQ(slowdown_bound(cfg, 0, 1.0), 4.0);
  // The paper's SII task (60% of isolated time on the bus):
  // 0.4 + 0.6 x 4 = 2.8 -- exactly the 28,000-cycle closed form.
  EXPECT_DOUBLE_EQ(slowdown_bound(cfg, 0, 0.6), 2.8);
  // No bus usage: no slowdown.
  EXPECT_DOUBLE_EQ(slowdown_bound(cfg, 0, 0.0), 1.0);
}

TEST(ContentionBounds, SimulatedWaitsRespectTheDelayBound) {
  // Adversarial rig: TuA against three COMP-latched MaxL contenders;
  // every granted TuA request's wait must stay within
  // max_request_delay + max_refill_delay (the refill part applies because
  // the TuA re-requests immediately).
  const auto cfg = CbaConfig::paper_table1();
  WcetHarness h(ContenderPolicy::kCompLatch, /*with_credits=*/true);
  for (int cycle = 0; cycle < 20'000; ++cycle) {
    if (h.b.can_request(0)) {
      bus::BusRequest req;
      req.master = 0;
      h.b.request(req, h.kernel.now());
    }
    h.kernel.step();
  }
  const Cycle bound = max_request_delay(cfg) +
                      max_refill_delay(cfg, 0, 5) + 1;
  EXPECT_LE(h.b.statistics().master[0].max_wait, bound);
}

}  // namespace
}  // namespace cbus::core
