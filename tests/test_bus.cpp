// Bus-protocol tests: 1-cycle arbitration, non-split holds, overlapped
// re-arbitration (back-to-back transfers), per-master accounting, filter
// hook points. These timings are the foundation every experiment rests on,
// so they are pinned cycle by cycle here.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "sim/kernel.hpp"

namespace cbus::bus {
namespace {

/// Slave with a programmable hold time per request.
class FakeSlave final : public BusSlave {
 public:
  explicit FakeSlave(Cycle hold) : hold_(hold) {}

  Cycle begin_transaction(const BusRequest& request, Cycle now) override {
    begins.push_back({request.master, now});
    return hold_;
  }
  void complete_transaction(const BusRequest& request, Cycle now) override {
    completes.push_back({request.master, now});
  }

  Cycle hold_;
  std::vector<std::pair<MasterId, Cycle>> begins;
  std::vector<std::pair<MasterId, Cycle>> completes;
};

/// Master recording grant/complete callbacks.
class FakeMaster final : public BusMaster {
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

/// Records the eligibility/credit callbacks the bus makes.
class SpyFilter final : public EligibilityFilter {
 public:
  std::uint32_t eligible(std::uint32_t pending, Cycle) override {
    ++eligible_calls;
    return pending & allow_mask;
  }
  void on_cycle(MasterId holder, Cycle) override {
    holders.push_back(holder);
  }
  void on_grant(MasterId master, Cycle) override {
    grants.push_back(master);
  }
  void reset() override {}

  std::uint32_t allow_mask = ~0u;
  int eligible_calls = 0;
  std::vector<MasterId> holders;
  std::vector<MasterId> grants;
};

struct BusHarness {
  explicit BusHarness(Cycle hold = 5, std::uint32_t n = 4,
                      bool overlapped = true)
      : slave(hold), arbiter(n), bus(BusConfig{n, overlapped}, arbiter, slave) {
    for (std::uint32_t m = 0; m < n; ++m) bus.connect_master(m, masters[m]);
    kernel.add(bus);
  }

  FakeSlave slave;
  RoundRobinArbiter arbiter;
  NonSplitBus bus;
  FakeMaster masters[8];
  sim::Kernel kernel;
};

// --- basic protocol timing ---------------------------------------------------

TEST(BusProtocol, SingleRequestTiming) {
  BusHarness h(5);
  // Request raised at cycle 0: arbitration during 0, transfer occupies
  // cycles 1..5, completion callback at the end of cycle 5.
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(10);

  ASSERT_EQ(h.slave.begins.size(), 1u);
  EXPECT_EQ(h.slave.begins[0].second, 1u);  // transfer starts at cycle 1
  ASSERT_EQ(h.masters[0].completions.size(), 1u);
  EXPECT_EQ(h.masters[0].completions[0], 5u);  // ends at end of cycle 5
}

TEST(BusProtocol, HoldOneCycle) {
  BusHarness h(1);
  BusRequest req;
  req.master = 2;
  h.bus.request(req, 0);
  h.kernel.run(5);
  ASSERT_EQ(h.masters[2].completions.size(), 1u);
  EXPECT_EQ(h.masters[2].completions[0], 1u);  // starts and ends at cycle 1
}

TEST(BusProtocol, GrantCallbackCarriesHold) {
  BusHarness h(28);
  BusRequest req;
  req.master = 1;
  h.bus.request(req, 0);
  h.kernel.run(2);
  ASSERT_EQ(h.masters[1].grants.size(), 1u);
  EXPECT_EQ(h.masters[1].grants[0].second, 28u);
}

TEST(BusProtocol, ForcedHoldBypassesSlave) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  req.forced_hold = 56;
  h.bus.request(req, 0);
  h.kernel.run(60);
  EXPECT_TRUE(h.slave.begins.empty());  // slave never consulted
  ASSERT_EQ(h.masters[0].completions.size(), 1u);
  EXPECT_EQ(h.masters[0].completions[0], 56u);
}

TEST(BusProtocol, BackToBackTransfersNoIdleGap) {
  BusHarness h(5);
  BusRequest a;
  a.master = 0;
  BusRequest b;
  b.master = 1;
  h.bus.request(a, 0);
  h.bus.request(b, 0);
  h.kernel.run(15);
  // a: cycles 1..5; overlapped re-arbitration at cycle 5; b: cycles 6..10.
  ASSERT_EQ(h.slave.begins.size(), 2u);
  EXPECT_EQ(h.slave.begins[1].second, 6u);
  EXPECT_EQ(h.masters[1].completions[0], 10u);
}

TEST(BusProtocol, NonOverlappedInsertsGap) {
  BusHarness h(5, 4, /*overlapped=*/false);
  BusRequest a;
  a.master = 0;
  BusRequest b;
  b.master = 1;
  h.bus.request(a, 0);
  h.bus.request(b, 0);
  h.kernel.run(15);
  // a: 1..5; idle arbitration cycle 6; b: 7..11.
  ASSERT_EQ(h.slave.begins.size(), 2u);
  EXPECT_EQ(h.slave.begins[1].second, 7u);
}

TEST(BusProtocol, BusyAndIdleAccounting) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(10);
  const auto& s = h.bus.statistics();
  EXPECT_EQ(s.total_cycles, 10u);
  EXPECT_EQ(s.busy_cycles, 5u);
  EXPECT_EQ(s.idle_cycles, 5u);
}

TEST(BusProtocol, WaitAccounting) {
  BusHarness h(5);
  BusRequest a;
  a.master = 0;
  BusRequest b;
  b.master = 1;
  h.bus.request(a, 0);
  h.bus.request(b, 0);
  h.kernel.run(15);
  const auto& s = h.bus.statistics();
  // a waited 1 cycle (arbitration); b waited 6 (raised at 0, started at 6).
  EXPECT_EQ(s.master[0].wait_cycles, 1u);
  EXPECT_EQ(s.master[1].wait_cycles, 6u);
  EXPECT_EQ(s.master[1].max_wait, 6u);
  EXPECT_EQ(s.master[0].hold_cycles, 5u);
}

TEST(BusProtocol, OccupancyAndGrantShares) {
  BusHarness h(5);
  BusRequest a;
  a.master = 0;
  h.bus.request(a, 0);
  h.kernel.run(10);
  const auto& s = h.bus.statistics();
  EXPECT_DOUBLE_EQ(s.occupancy_share(0), 0.5);
  EXPECT_DOUBLE_EQ(s.grant_share(0), 1.0);
  EXPECT_DOUBLE_EQ(s.occupancy_share(1), 0.0);
}

TEST(BusProtocol, TotalsSumPerMasterCounters) {
  // totals() is the one-pass sum the metrics probes build shares from;
  // the O(1) grant_share overload must agree with the re-summing one.
  BusStatistics s;
  s.master.resize(3);
  s.master[0] = {.requests = 4,
                 .grants = 3,
                 .completions = 3,
                 .wait_cycles = 9,
                 .hold_cycles = 15,
                 .max_wait = 5};
  s.master[2] = {.requests = 2,
                 .grants = 1,
                 .completions = 1,
                 .wait_cycles = 4,
                 .hold_cycles = 28,
                 .max_wait = 4};
  const auto t = s.totals();
  EXPECT_EQ(t.requests, 6u);
  EXPECT_EQ(t.grants, 4u);
  EXPECT_EQ(t.completions, 4u);
  EXPECT_EQ(t.wait_cycles, 13u);
  EXPECT_EQ(t.hold_cycles, 43u);
  for (MasterId m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(s.grant_share(m, t), s.grant_share(m));
  }
  EXPECT_DOUBLE_EQ(s.grant_share(0, t), 0.75);
  EXPECT_DOUBLE_EQ(s.grant_share(1, t), 0.0);
}

// --- request legality ----------------------------------------------------------

TEST(BusProtocol, DoubleRequestRejected) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  EXPECT_THROW(h.bus.request(req, 0), std::invalid_argument);
}

TEST(BusProtocol, RequestWhileHoldingRejected) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(3);  // transfer in flight
  EXPECT_TRUE(h.bus.is_holding(0));
  EXPECT_THROW(h.bus.request(req, 3), std::invalid_argument);
}

TEST(BusProtocol, CanRequestAgainAfterCompletion) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(6);  // completed at end of cycle 5
  EXPECT_TRUE(h.bus.can_request(0));
  EXPECT_NO_THROW(h.bus.request(req, 6));
}

TEST(BusProtocol, BadMasterIdRejected) {
  BusHarness h(5);
  BusRequest req;
  req.master = 99;
  EXPECT_THROW(h.bus.request(req, 0), std::invalid_argument);
}

// --- filter hooks ----------------------------------------------------------------

TEST(BusFilter, OnCycleSeesHolderEveryCycle) {
  BusHarness h(3);
  SpyFilter filter;
  h.bus.set_filter(&filter);
  BusRequest req;
  req.master = 1;
  h.bus.request(req, 0);
  h.kernel.run(6);
  // Cycle 0: idle (arbitrating); cycles 1..3: master 1 holds; 4,5: idle.
  ASSERT_EQ(filter.holders.size(), 6u);
  EXPECT_EQ(filter.holders[0], kNoMaster);
  EXPECT_EQ(filter.holders[1], 1u);
  EXPECT_EQ(filter.holders[2], 1u);
  EXPECT_EQ(filter.holders[3], 1u);
  EXPECT_EQ(filter.holders[4], kNoMaster);
}

TEST(BusFilter, IneligibleRequestWaits) {
  BusHarness h(5);
  SpyFilter filter;
  filter.allow_mask = 0u;  // nobody eligible
  h.bus.set_filter(&filter);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(10);
  EXPECT_TRUE(h.slave.begins.empty());
  EXPECT_TRUE(h.bus.has_pending(0));

  filter.allow_mask = ~0u;  // release
  h.kernel.run(10);
  EXPECT_EQ(h.slave.begins.size(), 1u);
}

TEST(BusFilter, GrantNotification) {
  BusHarness h(5);
  SpyFilter filter;
  h.bus.set_filter(&filter);
  BusRequest req;
  req.master = 2;
  h.bus.request(req, 0);
  h.kernel.run(3);
  ASSERT_EQ(filter.grants.size(), 1u);
  EXPECT_EQ(filter.grants[0], 2u);
}

TEST(BusFilter, FilterSelectsAmongPending) {
  BusHarness h(5);
  SpyFilter filter;
  filter.allow_mask = 0b10;  // only master 1 eligible
  h.bus.set_filter(&filter);
  BusRequest a;
  a.master = 0;
  BusRequest b;
  b.master = 1;
  h.bus.request(a, 0);
  h.bus.request(b, 0);
  h.kernel.run(7);
  ASSERT_FALSE(h.slave.begins.empty());
  EXPECT_EQ(h.slave.begins[0].first, 1u);  // master 1 went first
}

// --- statistics reset -------------------------------------------------------------

TEST(BusProtocol, ResetStatisticsZeroes) {
  BusHarness h(5);
  BusRequest req;
  req.master = 0;
  h.bus.request(req, 0);
  h.kernel.run(10);
  h.bus.reset_statistics();
  const auto& s = h.bus.statistics();
  EXPECT_EQ(s.total_cycles, 0u);
  EXPECT_EQ(s.master[0].grants, 0u);
}

// --- holder/pending introspection ---------------------------------------------------

TEST(BusProtocol, HolderTracksTransfer) {
  BusHarness h(4);
  EXPECT_EQ(h.bus.holder(), kNoMaster);
  BusRequest req;
  req.master = 3;
  h.bus.request(req, 0);
  EXPECT_TRUE(h.bus.has_pending(3));
  h.kernel.run(2);  // transfer started at cycle 1
  EXPECT_EQ(h.bus.holder(), 3u);
  EXPECT_FALSE(h.bus.has_pending(3));
  h.kernel.run(10);
  EXPECT_EQ(h.bus.holder(), kNoMaster);
}

// --- observer hook points ---------------------------------------------------

/// Records every BusObserver milestone with its cycle stamps.
class RecordingObserver final : public BusObserver {
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

TEST(BusProtocol, ObserverStampsRequestStartAndCompletion) {
  // The SingleRequestTiming lifecycle as an observer sees it: raised at
  // 0, transfer occupies cycles 1..5, released at the end of cycle 5.
  BusHarness h(5);
  RecordingObserver observer;
  h.bus.set_observer(&observer);
  BusRequest req;
  req.master = 0;
  req.addr = 0xAB0;
  h.bus.request(req, 0);
  h.kernel.run(10);
  EXPECT_EQ(observer.log.str(),
            "request m0 @0, start m0 @1 hold 5, complete m0 @5, ");
}

}  // namespace
}  // namespace cbus::bus
