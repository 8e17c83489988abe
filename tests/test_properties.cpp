// Property-based suites: invariants that must hold across the whole
// configuration space -- occupancy bounds under CBA for every inner
// policy, work conservation, cycle-conservation accounting, and
// determinism, swept with parameterized tests.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "core/credit_state.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "platform/synthetic_master.hpp"
#include "sim/kernel.hpp"
#include "stats/fairness.hpp"
#include "workloads/eembc_like.hpp"

namespace cbus {
namespace {

using bus::ArbiterKind;
using platform::BusSetup;
using platform::PlatformConfig;
using platform::SyntheticMaster;
using platform::SyntheticMasterConfig;

class ForcedHoldSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    CBUS_ASSERT(false);
    return 1;
  }
};

/// Rig: 4 greedy synthetic masters with the given holds, chosen arbiter,
/// optional CBA, run for `cycles`.
struct SweepRig {
  SweepRig(ArbiterKind kind, std::vector<Cycle> holds,
           std::optional<core::CbaConfig> cba, Cycle cycles)
      : bank(909) {
    arbiter = bus::make_arbiter(kind, 4, bank, /*tdma_slot=*/56);
    b = std::make_unique<bus::NonSplitBus>(bus::BusConfig{4, true}, *arbiter,
                                           slave);
    if (cba.has_value()) {
      filter = std::make_unique<core::CreditState>(*cba);
      b->set_filter(filter.get());
    }
    for (MasterId m = 0; m < 4; ++m) {
      SyntheticMasterConfig cfg;
      cfg.id = m;
      cfg.hold = holds[m];
      cfg.requests = 0;  // unbounded
      cfg.gap = 0;
      masters.push_back(std::make_unique<SyntheticMaster>(cfg, *b));
      kernel.add(*masters.back());
    }
    kernel.add(*b);
    kernel.run(cycles);
  }

  ForcedHoldSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::Arbiter> arbiter;
  std::unique_ptr<bus::NonSplitBus> b;
  std::unique_ptr<core::CreditState> filter;
  std::vector<std::unique_ptr<SyntheticMaster>> masters;
  sim::Kernel kernel;
};

// --- P1: CBA bounds occupancy at 1/N for EVERY inner policy ------------------------

class CbaOccupancyBound : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(CbaOccupancyBound, MixedHoldsUpperBounded) {
  // Mixed request lengths (the adversarial case for request-fair
  // policies): with the CBA filter NOBODY can exceed 1/N of the cycles,
  // whatever the inner policy. Short-request masters additionally pay the
  // eligibility latency (full refill between grants), so their achieved
  // share sits below the cap -- the upper bound is the hard guarantee.
  SweepRig rig(GetParam(), {5, 9, 28, 56}, core::CbaConfig::homogeneous(4, 56),
               300'000);
  const auto& s = rig.b->statistics();
  for (MasterId m = 0; m < 4; ++m) {
    EXPECT_LE(s.occupancy_share(m), 0.26)
        << to_string(GetParam()) << " master " << m;
    EXPECT_GT(s.occupancy_share(m), 0.0)
        << to_string(GetParam()) << " master " << m;
  }
  // The long-request masters, which request-fair policies overfeed
  // (>30% each without CBA), are pinned at their quarter.
  if (GetParam() != ArbiterKind::kTdma) {
    EXPECT_GE(s.occupancy_share(3), 0.20) << to_string(GetParam());
  }
}

TEST_P(CbaOccupancyBound, EqualHoldsConvergeToEqualShares) {
  // With homogeneous request lengths the budget periods pack perfectly:
  // every master ends up with ~1/N of the cycles under every inner
  // policy (TDMA included -- its slots simply quantize the same shares).
  SweepRig rig(GetParam(), {28, 28, 28, 28},
               core::CbaConfig::homogeneous(4, 56), 300'000);
  std::vector<double> occupancy;
  for (MasterId m = 0; m < 4; ++m) {
    occupancy.push_back(rig.b->statistics().occupancy_share(m));
  }
  EXPECT_GT(stats::jain_index(occupancy), 0.97) << to_string(GetParam());
  for (MasterId m = 0; m < 4; ++m) {
    EXPECT_LE(occupancy[m], 0.26) << to_string(GetParam()) << " m" << m;
    if (GetParam() != ArbiterKind::kTdma) {
      EXPECT_GE(occupancy[m], 0.20) << to_string(GetParam()) << " m" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllInnerPolicies, CbaOccupancyBound,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kFifo,
                                           ArbiterKind::kLottery,
                                           ArbiterKind::kRandomPermutation,
                                           ArbiterKind::kTdma));

// --- P2: without CBA, occupancy tracks request length ---------------------------------

class RequestFairUnfairness : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(RequestFairUnfairness, LongRequestsDominateBandwidth) {
  SweepRig rig(GetParam(), {5, 5, 56, 56}, std::nullopt, 200'000);
  const auto& s = rig.b->statistics();
  // Slot-fair: grant shares equal; occupancy shares wildly unequal.
  const double occ_short = s.occupancy_share(0);
  const double occ_long = s.occupancy_share(2);
  EXPECT_GT(occ_long, occ_short * 5.0) << to_string(GetParam());
  std::vector<double> occupancy;
  for (MasterId m = 0; m < 4; ++m) occupancy.push_back(s.occupancy_share(m));
  EXPECT_LT(stats::jain_index(occupancy), 0.75) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(RequestFairPolicies, RequestFairUnfairness,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kFifo,
                                           ArbiterKind::kLottery,
                                           ArbiterKind::kRandomPermutation));

// --- P3: work conservation (non-TDMA, no CBA) -----------------------------------------

class WorkConservation : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(WorkConservation, SaturatedBusStaysBusy) {
  SweepRig rig(GetParam(), {28, 28, 28, 28}, std::nullopt, 50'000);
  const auto& s = rig.b->statistics();
  const double util = static_cast<double>(s.busy_cycles) /
                      static_cast<double>(s.total_cycles);
  EXPECT_GT(util, 0.99) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(WorkConservingPolicies, WorkConservation,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kFifo,
                                           ArbiterKind::kLottery,
                                           ArbiterKind::kRandomPermutation));

TEST(WorkConservationEdge, TdmaLeavesSlotsIdleWithShortRequests) {
  // TDMA with 5-cycle requests in 56-cycle slots wastes ~51/56 of the bus:
  // the §II argument for why slot-aligned TDMA underuses bandwidth.
  SweepRig rig(ArbiterKind::kTdma, {5, 5, 5, 5}, std::nullopt, 50'000);
  const auto& s = rig.b->statistics();
  const double util = static_cast<double>(s.busy_cycles) /
                      static_cast<double>(s.total_cycles);
  EXPECT_LT(util, 0.15);
  EXPECT_GT(util, 0.05);
}

// --- P4: cycle conservation (accounting identity) --------------------------------------

class CycleConservation : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(CycleConservation, BusyPlusIdleEqualsTotal) {
  SweepRig rig(GetParam(), {5, 9, 28, 56}, core::CbaConfig::homogeneous(4, 56),
               30'000);
  const auto& s = rig.b->statistics();
  EXPECT_EQ(s.busy_cycles + s.idle_cycles, s.total_cycles);
  // Sum of per-master holds equals global busy cycles (up to the
  // in-flight transfer's remaining cycles, which are pre-counted at grant).
  std::uint64_t holds = 0;
  for (MasterId m = 0; m < 4; ++m) holds += s.master[m].hold_cycles;
  EXPECT_GE(holds, s.busy_cycles);
  EXPECT_LE(holds, s.busy_cycles + 56);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CycleConservation,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kFifo,
                                           ArbiterKind::kLottery,
                                           ArbiterKind::kRandomPermutation,
                                           ArbiterKind::kTdma));

// --- P5: grants never exceed requests; completions track grants -------------------------

TEST(Accounting, RequestGrantCompleteMonotone) {
  SweepRig rig(ArbiterKind::kRandomPermutation, {5, 9, 28, 56},
               core::CbaConfig::homogeneous(4, 56), 20'000);
  const auto& s = rig.b->statistics();
  for (MasterId m = 0; m < 4; ++m) {
    EXPECT_LE(s.master[m].grants, s.master[m].requests);
    EXPECT_LE(s.master[m].completions, s.master[m].grants);
    EXPECT_GE(s.master[m].completions + 1, s.master[m].grants);
  }
}

// --- P6: H-CBA share sweep --------------------------------------------------------------

TEST(HcbaShares, ThrottleBoundHoldsAndSharesAreMonotone) {
  // Sweep the TuA's configured bandwidth share. Two properties:
  //  (a) hard throttle -- nobody's measured occupancy exceeds its
  //      configured share (plus timing slack);
  //  (b) the TuA's achieved occupancy grows monotonically with its
  //      configured share and clearly exceeds the homogeneous quarter for
  //      every boosted configuration.
  const std::vector<std::pair<unsigned, unsigned>> shares{
      {1, 4}, {1, 2}, {5, 8}, {3, 4}};
  std::vector<double> achieved;
  for (const auto& [num, den] : shares) {
    const RationalRate tua_rate{num, den};
    const RationalRate rest{den - num, den * 3};
    const RationalRate rates[] = {tua_rate, rest, rest, rest};
    SweepRig rig(ArbiterKind::kRoundRobin, {28, 28, 28, 28},
                 core::CbaConfig::heterogeneous(56, rates), 400'000);
    const auto& s = rig.b->statistics();
    const double share0 = static_cast<double>(num) / den;
    const double share_rest = (1.0 - share0) / 3.0;
    EXPECT_LE(s.occupancy_share(0), share0 + 0.02)
        << "TuA share " << num << '/' << den;
    for (MasterId m = 1; m < 4; ++m) {
      EXPECT_LE(s.occupancy_share(m), share_rest + 0.02)
          << "contender under TuA share " << num << '/' << den;
    }
    achieved.push_back(s.occupancy_share(0));
  }
  for (std::size_t i = 1; i < achieved.size(); ++i) {
    EXPECT_GE(achieved[i], achieved[i - 1] - 0.01)
        << "achieved share must grow with the configured share";
  }
  EXPECT_GT(achieved.back(), achieved.front() + 0.10);
}

// --- P7: platform determinism across every bus setup ------------------------------------

class PlatformDeterminism : public ::testing::TestWithParam<BusSetup> {};

TEST_P(PlatformDeterminism, SameSeedSameExecutionTime) {
  auto tua = workloads::make_eembc("canrdr");
  const PlatformConfig cfg = PlatformConfig::paper_wcet(GetParam());
  tua->reset(123);
  platform::Multicore a(cfg, 55, *tua);
  const Cycle ta = a.run().tua_cycles;
  tua->reset(123);
  platform::Multicore b(cfg, 55, *tua);
  EXPECT_EQ(ta, b.run().tua_cycles) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSetups, PlatformDeterminism,
                         ::testing::Values(BusSetup::kRp, BusSetup::kCba,
                                           BusSetup::kHcba));

// --- P8: per-kernel sanity across the EEMBC-like set ------------------------------------

class KernelSanity : public ::testing::TestWithParam<std::string_view> {};

TEST_P(KernelSanity, RunsFinishAndUseTheBus) {
  auto tua = workloads::make_eembc(GetParam());
  tua->reset(31);
  platform::Multicore machine(PlatformConfig::paper(BusSetup::kRp), 31, *tua);
  const auto r = machine.run();
  ASSERT_TRUE(r.tua_finished) << GetParam();
  EXPECT_GT(r.tua_stats.ops, 0u);
  EXPECT_GT(r.bus_stats.master[0].grants, 0u) << GetParam();
  // Execution time exceeds pure op count (pipeline + memory costs).
  EXPECT_GT(r.tua_cycles, r.tua_stats.ops);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSanity,
                         ::testing::ValuesIn(workloads::all_kernels()));

// --- P9: every arbiter kind drives the full platform end to end --------------------------

class PlatformArbiterSweep : public ::testing::TestWithParam<ArbiterKind> {};

TEST_P(PlatformArbiterSweep, RealWorkloadFinishesUnderEveryPolicy) {
  auto tua = workloads::make_eembc("canrdr");
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kCba);
  cfg.arbiter = GetParam();
  tua->reset(77);
  platform::Multicore machine(cfg, 77, *tua);
  const auto r = machine.run();
  ASSERT_TRUE(r.tua_finished) << to_string(GetParam());
  EXPECT_EQ(r.credit_underflows, 0u) << to_string(GetParam());
  EXPECT_GT(r.bus_stats.master[0].completions, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArbiters, PlatformArbiterSweep,
                         ::testing::Values(ArbiterKind::kRoundRobin,
                                           ArbiterKind::kFifo,
                                           ArbiterKind::kFixedPriority,
                                           ArbiterKind::kLottery,
                                           ArbiterKind::kRandomPermutation,
                                           ArbiterKind::kTdma,
                                           ArbiterKind::kDeficitRoundRobin));

// --- P10: DRR as a standalone cycle-fair policy on the live bus --------------------------

TEST(DrrProperties, CycleFairOnTheBusWithInstantRerequest) {
  // Greedy 5- vs 56-cycle masters that keep REQ asserted: DRR equalizes
  // occupancy (its defining property) without any eligibility filter.
  SweepRig rig(ArbiterKind::kDeficitRoundRobin, {5, 56, 5, 56}, std::nullopt,
               1);  // placeholder run; rebuilt below with instant rerequest
  // SweepRig lacks the instant flag; drive the pattern manually instead.
  rng::RandBank bank(4242);
  ForcedHoldSlave slave;
  const auto arb =
      bus::make_arbiter(ArbiterKind::kDeficitRoundRobin, 4, bank, 56);
  bus::NonSplitBus b(bus::BusConfig{4, true}, *arb, slave);
  sim::Kernel kernel;
  std::vector<std::unique_ptr<platform::SyntheticMaster>> masters;
  const Cycle holds[4] = {5, 56, 5, 56};
  for (MasterId m = 0; m < 4; ++m) {
    platform::SyntheticMasterConfig cfg;
    cfg.id = m;
    cfg.hold = holds[m];
    cfg.requests = 0;
    cfg.gap = 0;
    cfg.instant_rerequest = true;
    masters.push_back(std::make_unique<platform::SyntheticMaster>(cfg, b));
    kernel.add(*masters.back());
  }
  kernel.add(b);
  kernel.run(200'000);
  std::vector<double> occ;
  for (MasterId m = 0; m < 4; ++m) occ.push_back(b.statistics().occupancy_share(m));
  EXPECT_GT(stats::jain_index(occ), 0.97)
      << occ[0] << ' ' << occ[1] << ' ' << occ[2] << ' ' << occ[3];
}

// --- P11: budget never exceeds cap / never below zero across a long random run -----------

TEST(CreditInvariants, BudgetsStayInRange) {
  SweepRig rig(ArbiterKind::kLottery, {5, 9, 28, 56},
               core::CbaConfig::paper_hcba(56), 1000);
  // Sample budgets during execution.
  const auto& state = *rig.filter;
  const auto& cfg = state.config();
  for (int extra = 0; extra < 5000; ++extra) {
    rig.kernel.step();
    for (MasterId m = 0; m < 4; ++m) {
      ASSERT_LE(state.budget(m), cfg.saturation[m]);
    }
  }
  EXPECT_EQ(state.underflow_clamps(), 0u);
}

}  // namespace
}  // namespace cbus
