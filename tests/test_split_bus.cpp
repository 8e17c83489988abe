// Split-transaction bus tests: phase timing, off-bus service overlap,
// atomic non-split holds, CBA filtering on the address phase, and the
// paper's SIII-C argument (split buses homogenize request sizes except
// for atomics).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bus/round_robin.hpp"
#include "bus/split_bus.hpp"
#include "core/credit_state.hpp"
#include "sim/kernel.hpp"

namespace cbus::bus {
namespace {

/// Slave with programmable split responses.
class FakeSplitSlave final : public SplitSlave {
 public:
  SplitResponse begin_split_transaction(const BusRequest& request,
                                        Cycle now) override {
    begins.push_back({request.master, now});
    if (request.kind == MemOpKind::kAtomic) {
      return SplitResponse{56, 0, true};
    }
    return SplitResponse{latency, 4, false};
  }

  Cycle latency = 23;  // miss-like: 1 addr + 23 service + 4 beats = 28
  std::vector<std::pair<MasterId, Cycle>> begins;
};

class RecordingMaster final : public BusMaster {
 public:
  void on_grant(const BusRequest&, Cycle now, Cycle hold) override {
    grants.push_back({now, hold});
  }
  void on_complete(const BusRequest&, Cycle now) override {
    completions.push_back(now);
  }
  std::vector<std::pair<Cycle, Cycle>> grants;
  std::vector<Cycle> completions;
};

struct SplitHarness {
  SplitHarness() : arbiter(4), bus(BusConfig{4, true}, arbiter, slave) {
    for (MasterId m = 0; m < 4; ++m) bus.connect_master(m, masters[m]);
    kernel.add(bus);
  }

  BusRequest req(MasterId m, MemOpKind kind = MemOpKind::kLoad) {
    BusRequest r;
    r.master = m;
    r.kind = kind;
    r.addr = 0x100u * (m + 1);
    return r;
  }

  FakeSplitSlave slave;
  RoundRobinArbiter arbiter;
  SplitBus bus;
  RecordingMaster masters[4];
  sim::Kernel kernel;
};

TEST(SplitBus, SingleTransactionTiming) {
  SplitHarness h;
  h.bus.request(h.req(0), 0);
  h.kernel.run(40);
  // Address phase at cycle 1 (1-cycle arbitration), service 23 cycles
  // off-bus (ready at 2+23=25), data phase 4 beats, completion.
  ASSERT_EQ(h.slave.begins.size(), 1u);
  ASSERT_EQ(h.masters[0].completions.size(), 1u);
  // End-to-end matches the non-split 28-cycle transaction within the
  // 1-cycle re-arbitration grain.
  EXPECT_GE(h.masters[0].completions[0], 28u);
  EXPECT_LE(h.masters[0].completions[0], 30u);
}

TEST(SplitBus, BusReleasedDuringService) {
  SplitHarness h;
  h.bus.request(h.req(0), 0);
  h.kernel.run(10);  // address phase done; service in progress
  EXPECT_EQ(h.bus.holder(), kNoMaster) << "bus must be free mid-service";
  EXPECT_TRUE(h.bus.is_outstanding(0));
  EXPECT_FALSE(h.bus.can_request(0));
}

TEST(SplitBus, ServicesOverlapAcrossMasters) {
  // Two 28-cycle transactions on the non-split bus need 56+ cycles; on
  // the split bus their memory service overlaps.
  SplitHarness h;
  h.bus.request(h.req(0), 0);
  h.bus.request(h.req(1), 0);
  h.kernel.run(45);
  ASSERT_EQ(h.masters[0].completions.size(), 1u);
  ASSERT_EQ(h.masters[1].completions.size(), 1u);
  EXPECT_LT(h.masters[1].completions[0], 40u)
      << "second transaction must overlap the first's service";
}

TEST(SplitBus, AtomicHoldsBusNonSplit) {
  SplitHarness h;
  h.bus.request(h.req(0, MemOpKind::kAtomic), 0);
  h.bus.request(h.req(1), 0);
  h.kernel.run(100);
  // The atomic occupies the bus for its full 56 cycles; master 1's
  // address phase cannot start before it ends.
  ASSERT_EQ(h.slave.begins.size(), 2u);
  EXPECT_GE(h.slave.begins[1].second, 56u);
  const auto& s = h.bus.statistics();
  EXPECT_EQ(s.master[0].hold_cycles, 56u);
}

TEST(SplitBus, OccupancyIsHomogeneousForNormalRequests) {
  // The SIII-C argument: on a split bus, hit (5) and miss (28) requests
  // occupy the bus the same 1 + 4 cycles; only service time differs.
  SplitHarness h;
  h.slave.latency = 0;  // hit-like
  h.bus.request(h.req(0), 0);
  h.kernel.run(20);
  const Cycle hit_occ = h.bus.statistics().master[0].hold_cycles;

  SplitHarness h2;
  h2.slave.latency = 23;  // miss-like
  h2.bus.request(h2.req(0), 0);
  h2.kernel.run(40);
  const Cycle miss_occ = h2.bus.statistics().master[0].hold_cycles;

  EXPECT_EQ(hit_occ, 5u);
  EXPECT_EQ(miss_occ, 5u) << "equal occupancy regardless of service time";
}

TEST(SplitBus, DataPhasePriorityOverNewAddresses) {
  SplitHarness h;
  h.slave.latency = 5;
  h.bus.request(h.req(0), 0);
  h.kernel.run(4);  // master 0's address phase done, service running
  h.bus.request(h.req(1), 4);
  h.bus.request(h.req(2), 4);
  h.kernel.run(40);
  // All complete despite the competition.
  EXPECT_EQ(h.masters[0].completions.size(), 1u);
  EXPECT_EQ(h.masters[1].completions.size(), 1u);
  EXPECT_EQ(h.masters[2].completions.size(), 1u);
}

TEST(SplitBus, OneOutstandingPerMaster) {
  SplitHarness h;
  h.bus.request(h.req(0), 0);
  h.kernel.run(5);
  EXPECT_THROW(h.bus.request(h.req(0), 5), std::invalid_argument);
}

TEST(SplitBus, CbaFilterAppliesToAddressPhase) {
  SplitHarness h;
  core::CreditState filter(core::CbaConfig::homogeneous(4, 56));
  filter.set_budget(0, 0);  // master 0 ineligible
  h.bus.set_filter(&filter);
  h.bus.request(h.req(0), 0);
  h.bus.request(h.req(1), 0);
  h.kernel.run(40);
  // Master 1 completes; master 0 is still gated (budget refills at
  // +1/cycle towards 224).
  EXPECT_EQ(h.masters[1].completions.size(), 1u);
  EXPECT_EQ(h.masters[0].completions.size(), 0u);
  h.kernel.run(300);  // budget saturates, master 0 proceeds
  EXPECT_EQ(h.masters[0].completions.size(), 1u);
}

TEST(SplitBus, ThroughputBeatsNonSplitUnderLoad) {
  // Four masters with miss-like requests, re-raised on completion: the
  // split bus pipelines the memory latencies.
  SplitHarness h;
  struct Rerequester final : BusMaster {
    SplitBus* bus = nullptr;
    MasterId id = 0;
    std::uint64_t done = 0;
    void on_grant(const BusRequest&, Cycle, Cycle) override {}
    void on_complete(const BusRequest&, Cycle) override { ++done; }
  } rerequesters[4];
  for (MasterId m = 0; m < 4; ++m) {
    rerequesters[m].bus = &h.bus;
    rerequesters[m].id = m;
    h.bus.connect_master(m, rerequesters[m]);
  }
  for (Cycle t = 0; t < 2000; ++t) {
    for (MasterId m = 0; m < 4; ++m) {
      if (h.bus.can_request(m)) h.bus.request(h.req(m), h.kernel.now());
    }
    h.kernel.step();
  }
  std::uint64_t total = 0;
  for (const auto& r : rerequesters) total += r.done;
  // Non-split: 2000 / 28 = 71 transactions max; split pipelines services:
  // bound is ~2000/5 = 400 occupancy-limited, service-limited ~4 x
  // (2000/28) = 285. Expect well above the non-split ceiling.
  EXPECT_GT(total, 150u);
}

TEST(SplitBus, StatisticsAccounting) {
  SplitHarness h;
  h.bus.request(h.req(0), 0);
  h.kernel.run(40);
  const auto& s = h.bus.statistics();
  EXPECT_EQ(s.master[0].requests, 1u);
  EXPECT_EQ(s.master[0].grants, 1u);
  EXPECT_EQ(s.master[0].completions, 1u);
  EXPECT_EQ(s.master[0].hold_cycles, 5u);  // 1 addr + 4 data
  EXPECT_EQ(s.busy_cycles + s.idle_cycles, s.total_cycles);
}

}  // namespace
}  // namespace cbus::bus
