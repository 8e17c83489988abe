// Quiescence fast-forward: the closed-form k-cycle updates and the event
// horizons of every skipping component, checked against the tick-by-tick
// model they replace.
//
//  * CreditState::advance against k per-cycle updates of the eager
//    reference (tests/eager_credits.hpp), and the eligibility and
//    saturation crossings against ticking the reference until they
//    happen, on owned and CreditSoA-view storage;
//  * small platforms of InOrderCore, NonSplitBus (with and without a
//    credit filter) and VirtualContender (both policies) run twice on
//    sim::Kernel: once with the tick-every-cycle reference component
//    registered last, so every cycle executes, and once skipping, in
//    run_until calls of a chunk of cycles each -- every public statistic
//    must match;
//  * the edge cases: a run cut by max_cycles inside a compute burst and
//    inside a 56-cycle contender transfer, chunk ends inside quiet
//    windows, a saturation crossing in the cycle the TuA raises its
//    request;
//  * the segmented interconnect, whose quiet segments stop ticking: chain,
//    ring and mesh topologies, unbounded and depth-1 bridges, without a
//    filter, with per-segment credit filters and with Table-I contenders,
//    every public statistic and every credit budget against the
//    reference -- plus its own edge cases (a ready bridge head behind a
//    busy ingress port, a pop opening the upstream mask, remote charges
//    to a quiet home segment, a cut inside a quiet transfer, mid-run
//    reads) and the deadlocked bounded ring, which reaches its budget in
//    one skip;
//  * SyntheticMaster's gap countdown: gaps, initial delays, instant
//    re-requests and unbounded masters, with and without credits;
//  * the adaptive controller's sampling horizon, with epochs that retune
//    the increments inside windows the rest of the machine skips, and
//    the contenders' tick-before-the-bus precondition;
//  * parking: cores blocked on the bus leave the kernel's passes until
//    their completion wakes them -- a parked TuA on the single bus in
//    ISO and WCET mode, with the bus registered after and before the
//    cores, nine parked cores on mesh:3x3, a budget that ends while the
//    TuA is parked, and runs driven by run_until chunks and by step()
//    (one-cycle calls run unbound, so nothing parks there).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "bus/segmented.hpp"
#include "bus/topology.hpp"
#include "core/cba_config.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "cpu/in_order_core.hpp"
#include "eager_credits.hpp"
#include "metrics/record.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "platform/synthetic_master.hpp"
#include "rng/splitmix64.hpp"
#include "sim/kernel.hpp"
#include "tick_every_cycle.hpp"
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

/// Budgets and clamp counts of two credit states (or a state and the
/// eager reference).
template <typename A, typename B>
void expect_same_credits(const A& a, const B& b, const std::string& where) {
  for (MasterId m = 0; m < a.config().n_masters; ++m) {
    EXPECT_EQ(a.budget(m), b.budget(m)) << where << " master " << m;
    EXPECT_EQ(a.underflow_clamps(m), b.underflow_clamps(m))
        << where << " master " << m;
  }
  EXPECT_EQ(a.underflow_clamps(), b.underflow_clamps()) << where;
}

/// One fuzz pass over `config`: random budgets, a random holder (or
/// none) and a random k; `make` builds the state under test, which one
/// advance must bring where k eager ticks bring the reference.
template <typename Make>
void fuzz_advance(const NamedConfig& named, Make make, std::uint64_t seed) {
  const CbaConfig& cfg = named.config;
  rng::SplitMix64 rng(seed);
  const auto draw = [&](std::uint64_t bound) { return rng.next() % bound; };
  const Cycle kLimit = 1'000'000;
  for (int trial = 0; trial < 400; ++trial) {
    test::EagerCredits ticked(cfg);
    auto advanced = make();
    for (MasterId m = 0; m < cfg.n_masters; ++m) {
      // Budgets anywhere in [0, cap], with the cap and the threshold
      // themselves drawn often.
      std::uint64_t units = draw(cfg.saturation[m] + 1);
      const std::uint64_t pick = draw(4);
      if (pick == 0) units = cfg.saturation[m];
      if (pick == 1) units = cfg.threshold[m];
      ticked.set_budget(m, units);
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

    // Crossings first (they only read the state); the reference finds
    // them by ticking a copy.
    const std::uint32_t mask =
        static_cast<std::uint32_t>(draw(1u << cfg.n_masters));
    EXPECT_EQ(advanced->ticks_to_eligible(mask),
              ticked.ticks_to_eligible(mask))
        << where << " mask " << mask;
    const MasterId watched = static_cast<MasterId>(draw(cfg.n_masters));
    EXPECT_EQ(advanced->ticks_to_saturation(watched),
              ticked.ticks_to_saturation(watched))
        << where << " watched " << watched;

    ticked.advance(holder, k);
    advanced->advance(holder, k);
    expect_same_credits(ticked, *advanced, where);
  }
}

TEST(FastForward, CreditAdvanceMatchesTicksOnOwnedStorage) {
  std::uint64_t seed = 1;
  for (const NamedConfig& named : credit_configs()) {
    const auto owned = [&] {
      return std::make_unique<CreditState>(named.config);
    };
    fuzz_advance(named, owned, seed++);
  }
}

TEST(FastForward, CreditAdvanceMatchesTicksOnSoaViews) {
  std::uint64_t seed = 100;
  for (const NamedConfig& named : credit_configs()) {
    // The middle lane of three in one arena: the state's slots are
    // strided, interleaved with the other lanes' words.
    core::CreditSoA soa(3, named.config);
    const auto viewed = [&] {
      return std::make_unique<CreditState>(named.config, soa.lane(1));
    };
    fuzz_advance(named, viewed, seed++);
  }
}

TEST(FastForward, CreditAdvanceSurvivesJumpsToAnUnboundedBudgetEnd) {
  // A quiet run with an unbounded budget jumps almost 2^64 cycles at
  // once; k * increment and k * (scale - increment) overflow 64 bits.
  // Non-holders saturate (a zero increment never moves); the holder
  // pays v / net cycles and clamps on every other one.
  for (const NamedConfig& named : credit_configs()) {
    CbaConfig cfg = named.config;
    cfg.increment[2] = 0;
    cfg.initial[2] = cfg.saturation[2] / 2;
    for (const Cycle k : {kNever - 1, kNever / 3, Cycle{1} << 62}) {
      for (MasterId holder = 0; holder < 2; ++holder) {
        CreditState state(cfg);
        state.set_budget(holder, cfg.saturation[holder] - 1);
        const std::uint64_t before = state.budget(holder);
        state.advance(holder, k);
        const std::string where = named.name + " k " + std::to_string(k) +
                                  " holder " + std::to_string(holder);
        const std::uint64_t net = cfg.scale - cfg.increment[holder];
        if (net == 0) {
          EXPECT_EQ(state.budget(holder), before) << where;
          EXPECT_EQ(state.underflow_clamps(), 0u) << where;
        } else {
          EXPECT_EQ(state.budget(holder), 0u) << where;
          EXPECT_EQ(state.underflow_clamps(holder), k - before / net)
              << where;
        }
        EXPECT_EQ(state.budget(2), cfg.saturation[2] / 2) << where;
        for (MasterId m = 0; m < cfg.n_masters; ++m) {
          if (m == holder || m == 2) continue;
          EXPECT_EQ(state.budget(m), cfg.saturation[m]) << where << ' ' << m;
        }
      }
    }
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

/// run_in_chunks' chunk for driving the kernel with step() instead.
constexpr Cycle kStepping = 0;

/// Runs `kernel` until `done` fires or `max_cycles` elapse, in run_until
/// calls of at most `chunk` cycles: every call executes its first cycle,
/// so no jump crosses a chunk end. kStepping calls step() per cycle,
/// polling `done` after each as run_until does.
bool run_in_chunks(sim::Kernel& kernel, const std::function<bool()>& done,
                   Cycle max_cycles, Cycle chunk) {
  if (chunk == kStepping) {
    while (kernel.now() < max_cycles) {
      kernel.step();
      if (done()) return true;
    }
    return false;
  }
  while (kernel.now() < max_cycles) {
    if (kernel.run_until(done, std::min(chunk, max_cycles - kernel.now()))) {
      return true;
    }
  }
  return false;
}

/// The reference run of `order`: the tick-every-cycle component
/// registered last, so the kernel executes every cycle and never asks the
/// others for a horizon.
bool run_every_cycle(std::span<sim::Component* const> order,
                     const std::function<bool()>& done, Cycle max_cycles) {
  sim::Kernel kernel;
  for (sim::Component* c : order) kernel.add(*c);
  test::TickEveryCycle reference(kernel);
  const bool fired = kernel.run_until(done, max_cycles);
  EXPECT_EQ(kernel.executed_cycles(), kernel.now());
  return fired;
}

/// The skipping run of `order` in chunks of `chunk` cycles; returns the
/// fired flag, reports the cycles simulated and executed.
bool run_skipping(std::span<sim::Component* const> order,
                  const std::function<bool()>& done, Cycle max_cycles,
                  Cycle chunk, std::uint64_t& simulated,
                  std::uint64_t& executed) {
  sim::Kernel kernel;
  for (sim::Component* c : order) kernel.add(*c);
  const bool fired = run_in_chunks(kernel, done, max_cycles, chunk);
  simulated = kernel.now();
  executed = kernel.executed_cycles();
  return fired;
}

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
  bool bus_first = false;  ///< register the bus before the masters
};

/// One small platform: cores, then contenders, then the bus -- the
/// Multicore tick order, or the bus first -- built identically from the
/// same seed.
struct Rig {
  explicit Rig(const RigConfig& cfg) : bank(cfg.seed) {
    arbiter = bus::make_arbiter(cfg.arbiter, cfg.n_masters, bank);
    bus = std::make_unique<bus::NonSplitBus>(
        bus::BusConfig{cfg.n_masters, cfg.overlapped}, *arbiter, slave);
    if (cfg.cba.has_value()) {
      filter = std::make_unique<core::CreditState>(*cfg.cba);
      bus->set_filter(filter.get());
    }
    if (cfg.bus_first) order.push_back(bus.get());
    for (MasterId m = 0; m < cfg.cores; ++m) {
      std::vector<cpu::MemOp> ops = random_ops(cfg.seed * 31 + m, cfg.ops);
      if (m == 0 && cfg.tua_ops.has_value()) ops = *cfg.tua_ops;
      streams.push_back(
          std::make_unique<workloads::FixedOpsStream>(std::move(ops)));
      cores.push_back(std::make_unique<cpu::InOrderCore>(
          m, cpu::CoreConfig{}, *streams.back(), *bus, bank));
      order.push_back(cores.back().get());
    }
    if (cfg.contenders && cfg.cores < cfg.n_masters) {
      std::vector<core::VirtualContender::Contender> cs;
      for (MasterId m = cfg.cores; m < cfg.n_masters; ++m) {
        core::VirtualContenderConfig vc;
        vc.self = m;
        vc.tua = 0;
        vc.policy = cfg.policy;
        cs.push_back({vc, filter.get()});
      }
      contenders = std::make_unique<core::VirtualContender>(cs, *bus);
      order.push_back(contenders.get());
    }
    if (!cfg.bus_first) order.push_back(bus.get());
  }

  /// The reference: every cycle ticked.
  bool run_ticked(Cycle max_cycles) {
    return run_every_cycle(
        order, [this] { return cores.front()->done(); }, max_cycles);
  }

  bool run_skipped(Cycle max_cycles, Cycle chunk, std::uint64_t& simulated,
                   std::uint64_t& executed) {
    return run_skipping(
        order, [this] { return cores.front()->done(); }, max_cycles, chunk,
        simulated, executed);
  }

  PatternSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::Arbiter> arbiter;
  std::unique_ptr<bus::NonSplitBus> bus;
  std::unique_ptr<core::CreditState> filter;
  std::vector<std::unique_ptr<workloads::FixedOpsStream>> streams;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
  std::unique_ptr<core::VirtualContender> contenders;
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
    expect_same_credits(*a.filter, *b.filter, where);
  }
  ASSERT_EQ(a.contenders == nullptr, b.contenders == nullptr) << where;
  if (a.contenders == nullptr) return;
  for (auto m = static_cast<MasterId>(a.cores.size()); m < a.bus->n_masters();
       ++m) {
    EXPECT_EQ(a.contenders->comp(m), b.contenders->comp(m)) << where << m;
    EXPECT_EQ(a.contenders->grants(m), b.contenders->grants(m)) << where << m;
  }
}

/// Runs `cfg` ticked and skipped at every cut and chunk; returns the
/// cycles the skipping runs executed and simulated in total.
std::pair<std::uint64_t, std::uint64_t> check_rig(
    const RigConfig& cfg, const std::string& name,
    std::initializer_list<Cycle> cuts = {200'000'000, 3'001, 20'011},
    std::initializer_list<Cycle> chunks = {kNever, 7}) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const Cycle max_cycles : cuts) {
    for (const Cycle chunk : chunks) {
      const std::string where = name + " max " + std::to_string(max_cycles) +
                                " chunk " + std::to_string(chunk);
      Rig ticked(cfg);
      Rig skipped(cfg);
      const bool fired_ticked = ticked.run_ticked(max_cycles);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(max_cycles, chunk, simulated, executed);
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      expect_same_rig(ticked, skipped, where);
      EXPECT_LE(executed, simulated) << where;
      // Every simulated cycle is a bus cycle of the skipping run.
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
    for (const Cycle chunk : {kNever, Cycle{10}, Cycle{11}}) {
      RigConfig cfg;
      cfg.cba = table1;
      cfg.policy = ContenderPolicy::kCompLatch;
      cfg.tua_ops = std::vector<cpu::MemOp>{{MemOpKind::kLoad, 0x1000, gap}};
      Rig ticked(cfg);
      Rig skipped(cfg);
      for (Rig* rig : {&ticked, &skipped}) {
        for (MasterId m = 1; m < 4; ++m) {
          rig->filter->set_budget(m, table1.saturation[m] - 10 * m);
        }
      }
      const std::string where =
          "gap " + std::to_string(gap) + " chunk " + std::to_string(chunk);
      const bool fired_ticked = ticked.run_ticked(5'000);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(5'000, chunk, simulated, executed);
      ASSERT_TRUE(fired_ticked) << where;
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      expect_same_rig(ticked, skipped, where);
      // An earlier TuA request is granted before the crossing; from
      // gap 10 on the TuA is pending when the budget fills.
      EXPECT_EQ(skipped.contenders->grants(1) > 0, gap >= 10) << where;
    }
  }
}

void expect_same_records(const metrics::Record& a, const metrics::Record& b,
                         const std::string& where) {
  ASSERT_EQ(a.keys(), b.keys()) << where;
  for (const std::string& key : a.keys()) {
    const std::span<const double> x = a.at(key).elements();
    const std::span<const double> y = b.at(key).elements();
    ASSERT_EQ(x.size(), y.size()) << where << ' ' << key;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(y[i]))
          << where << ' ' << key << '[' << i << ']';
    }
  }
}

/// Records, at every executed cycle, which of the watched components its
/// kernel has parked. Its horizon is kNever, so it adds no executed
/// cycle; registered last, it sees the parks of the cycle just ticked.
class ParkWatch final : public sim::Component {
 public:
  ParkWatch(sim::Kernel& kernel, std::vector<const sim::Component*> watched)
      : sim::Component("park-watch"),
        kernel_(kernel),
        watched_(std::move(watched)),
        seen(watched_.size(), false),
        last(watched_.size(), false) {
    kernel_.add(*this);
  }

  void tick(Cycle /*now*/) override {
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      last[i] = kernel_.parked(*watched_[i]);
      seen[i] = seen[i] || last[i];
    }
  }
  [[nodiscard]] Cycle next_event(Cycle /*now*/) const override {
    return kNever;
  }

 private:
  sim::Kernel& kernel_;
  std::vector<const sim::Component*> watched_;

 public:
  std::vector<bool> seen;  ///< parked at the end of some executed cycle
  std::vector<bool> last;  ///< parked at the end of the last one
};

/// Whether the skipping run's TuA was parked at some executed cycle and
/// at the last one.
struct TuaParking {
  bool seen = false;
  bool last = false;
};

/// A Multicore run with the tick-every-cycle reference registered last
/// and one skipping in chunks of `chunk` cycles (kStepping: step()),
/// compared record for record.
TuaParking expect_same_machine_runs(const platform::PlatformConfig& config,
                                    const std::vector<cpu::MemOp>& ops,
                                    Cycle max_cycles, Cycle chunk,
                                    const std::string& where) {
  workloads::FixedOpsStream tua_a(ops);
  workloads::FixedOpsStream tua_b(ops);
  platform::Multicore ticked(config, 42, tua_a);
  platform::Multicore skipped(config, 42, tua_b);
  test::TickEveryCycle reference(ticked.kernel());
  const platform::RunResult a = ticked.run(max_cycles);
  EXPECT_EQ(ticked.kernel().executed_cycles(), ticked.kernel().now())
      << where;
  sim::Kernel& kernel = skipped.kernel();
  const ParkWatch watch(kernel, {&skipped.core(0)});
  const bool fired = run_in_chunks(
      kernel, [&] { return skipped.tua_done(); }, max_cycles, chunk);
  const platform::RunResult b = skipped.harvest(fired, kernel.now());
  EXPECT_EQ(a.tua_finished, b.tua_finished) << where;
  EXPECT_EQ(a.tua_cycles, b.tua_cycles) << where;
  expect_same_core(ticked.core(0), skipped.core(0), where);
  expect_same_bus(ticked.bus(), skipped.bus(), where);
  if (ticked.credit_filter() != nullptr) {
    expect_same_credits(*ticked.credit_filter(), *skipped.credit_filter(),
                        where);
  }
  expect_same_records(a.record, b.record, where);
  if (chunk != kStepping) {
    EXPECT_LT(kernel.executed_cycles(), kernel.now()) << where;
  }
  return {watch.seen[0], watch.last[0]};
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
      expect_same_machine_runs(iso, ops, cut, kNever,
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
      expect_same_machine_runs(wcet, ops, cut, kNever, where);
    }
    EXPECT_EQ(found, 3) << to_string(setup);
  }
}

TEST(FastForward, StripeEndsInsideQuietWindows) {
  // 100- and 333-cycle compute bursts against run_until calls of 64 and
  // 97 cycles: the fast-forward is capped at every call's end and resumes
  // there with an executed cycle.
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
  for (const Cycle chunk : {Cycle{64}, Cycle{97}}) {
    const std::string where = "chunk " + std::to_string(chunk);
    expect_same_machine_runs(iso, ops, 50'000'000, chunk, where);
    expect_same_machine_runs(wcet, ops, 50'000'000, chunk, "wcet " + where);
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
  kCredits,     ///< a CreditState per segment
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
      const std::vector<std::unique_ptr<core::CreditState>>& filters)
      : sim::Component("budget-reader"), filters_(filters) {}

  void tick(Cycle now) override {
    seen.add(now);
    for (const auto& filter : filters_) {
      const CreditState& state = *filter;
      for (MasterId m = 0; m < state.config().n_masters; ++m) {
        seen.add(state.budget(m));
        seen.add(state.underflow_clamps(m));
      }
    }
    ++seen.reads;
  }

  Digest seen;

 private:
  const std::vector<std::unique_ptr<core::CreditState>>& filters_;
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
        filters.push_back(std::make_unique<core::CreditState>(
            segment_credits(kPerSegment, seg->n_local_masters(s))));
        seg->set_filter(s, filters.back().get());
      }
    }
    std::vector<core::VirtualContender::Contender> cs;
    for (MasterId m = 0; m < sc.n_masters; ++m) {
      const std::uint32_t home = seg->home_segment(m);
      if (cfg.filters == SegFilters::kContenders && m != 0 &&
          seg->local_slot(m) + 1 == kPerSegment) {
        core::VirtualContenderConfig vc;
        vc.self = m;
        vc.tua = 0;
        vc.credit_slot = seg->local_slot(m);
        cs.push_back({vc, filters[home].get()});
        contender_ids.push_back(m);
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
    if (!cs.empty()) {
      contenders = std::make_unique<core::VirtualContender>(cs, *seg);
      order.push_back(contenders.get());
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

  /// The reference: every component, every cycle. (The interconnect
  /// still ticks only its busy segments inside.)
  bool run_ticked(Cycle max_cycles) {
    return run_every_cycle(
        order, [this] { return cores_done(); }, max_cycles);
  }

  bool run_skipped(Cycle max_cycles, Cycle chunk, std::uint64_t& simulated,
                   std::uint64_t& executed) {
    return run_skipping(
        order, [this] { return cores_done(); }, max_cycles, chunk, simulated,
        executed);
  }

  PatternSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::SegmentedInterconnect> seg;
  std::vector<std::unique_ptr<core::CreditState>> filters;
  std::vector<std::unique_ptr<workloads::FixedOpsStream>> streams;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
  std::unique_ptr<core::VirtualContender> contenders;
  std::vector<MasterId> contender_ids;
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
    expect_same_credits(*a.filters[s], *b.filters[s],
                        where + " segment " + std::to_string(s));
  }
  ASSERT_EQ(a.contenders == nullptr, b.contenders == nullptr) << where;
  for (const MasterId m : a.contender_ids) {
    EXPECT_EQ(a.contenders->comp(m), b.contenders->comp(m)) << where << m;
    EXPECT_EQ(a.contenders->grants(m), b.contenders->grants(m)) << where << m;
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

/// Runs `cfg` ticked and skipped at every cut and chunk; returns the
/// cycles the skipping runs executed and simulated in total.
std::pair<std::uint64_t, std::uint64_t> check_seg_rig(
    const SegRigConfig& cfg, const std::string& name,
    std::initializer_list<Cycle> cuts = {2'000'000, 3'001, 20'011},
    std::initializer_list<Cycle> chunks = {kNever, 7}) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const Cycle max_cycles : cuts) {
    for (const Cycle chunk : chunks) {
      const std::string where = name + " max " + std::to_string(max_cycles) +
                                " chunk " + std::to_string(chunk);
      SegRig ticked(cfg);
      SegRig skipped(cfg);
      const bool fired_ticked = ticked.run_ticked(max_cycles);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(max_cycles, chunk, simulated, executed);
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      if (max_cycles >= 1'000'000) {
        EXPECT_TRUE(fired_ticked) << where << ": the long cut never binds";
      }
      expect_same_seg_rig(ticked, skipped, where);
      EXPECT_LE(executed, simulated) << where;
      // Every simulated cycle is an interconnect cycle of the run.
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
  ASSERT_TRUE(skipped.run_skipped(10'000, kNever, simulated, executed));
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
  for (const Cycle chunk : {kNever, Cycle{7}, Cycle{8}}) {
    SegRig ticked(cfg);
    SegRig skipped(cfg);
    ASSERT_TRUE(ticked.run_ticked(10'000));
    std::uint64_t simulated = 0;
    std::uint64_t executed = 0;
    ASSERT_TRUE(skipped.run_skipped(10'000, chunk, simulated, executed));
    const std::string where = "pop chunk " + std::to_string(chunk);
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
    (void)check_seg_rig(cfg, where, {10'000, 66, 130}, {kNever, 3});
  }
}

TEST(FastForward, SegmentedRunCutInsideATransferOnAQuietSegment) {
  // Master 0's load holds segment 1 from cycle 8 to 63 while segment 0
  // idles: cuts inside that window end the run with both segments quiet,
  // and harvesting settles the transfer's partial countdown.
  const SegRigConfig cfg = scripted_chain({one_load(0x1000)}, 0);
  (void)check_seg_rig(cfg, "quiet transfer",
                      {9, 20, 40, 62, 63, 64, 10'000}, {kNever, 16});
}

TEST(FastForward, DeadlockedBoundedRingReachesTheBudgetInOneSkip) {
  // docs/TOPOLOGIES.md's bounded-ring deadlock: two masters per ring:4
  // segment load antipodal lines (two forward hops) at depth 1, all from
  // cycle 0. Round-robin grants each segment's second home master the
  // forward bridge the first one's delivery frees, ahead of that
  // delivery's own transit hop (cycle 7); so every forward bridge fills
  // while each ingress occupant waits on the next full one. From then on
  // every horizon is kNever and the run jumps to its budget end at once.
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
  EXPECT_FALSE(
      skipped.run_skipped(max_cycles, kNever, simulated, executed));
  expect_same_seg_rig(ticked, skipped, "deadlocked ring");
  EXPECT_EQ(simulated, max_cycles);
  EXPECT_LE(executed, 16u) << "only the run-up to the deadlock executes";
  std::uint64_t stalls = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    stalls += skipped.seg->backpressure_stalls(s);
  }
  EXPECT_GT(stalls, max_cycles) << "every segment stalls to the end";
}

// --- SyntheticMaster: gap countdowns skipped vs ticked -----------------------

struct SynthRigConfig {
  /// Master 0 must issue a bounded number of requests: its completion
  /// ends the run.
  std::vector<platform::SyntheticMasterConfig> masters;
  bus::ArbiterKind arbiter = bus::ArbiterKind::kRandomPermutation;
  bool credits = false;  ///< homogeneous CBA over the masters
  bool bus_first = false;  ///< register the bus before the masters
  std::uint64_t seed = 1;
};

/// The synthetic masters and the bus in either tick order -- built
/// identically from the same seed.
struct SynthRig {
  explicit SynthRig(const SynthRigConfig& cfg) : bank(cfg.seed) {
    const auto n = static_cast<std::uint32_t>(cfg.masters.size());
    arbiter = bus::make_arbiter(cfg.arbiter, n, bank);
    bus = std::make_unique<bus::NonSplitBus>(bus::BusConfig{n, true},
                                             *arbiter, slave);
    if (cfg.credits) {
      filter = std::make_unique<core::CreditState>(
          CbaConfig::homogeneous(n, 56));
      bus->set_filter(filter.get());
    }
    if (cfg.bus_first) order.push_back(bus.get());
    for (const platform::SyntheticMasterConfig& master : cfg.masters) {
      masters.push_back(
          std::make_unique<platform::SyntheticMaster>(master, *bus));
      order.push_back(masters.back().get());
    }
    if (!cfg.bus_first) order.push_back(bus.get());
  }

  bool run_ticked(Cycle max_cycles) {
    return run_every_cycle(
        order, [this] { return masters.front()->done(); }, max_cycles);
  }

  bool run_skipped(Cycle max_cycles, Cycle chunk, std::uint64_t& simulated,
                   std::uint64_t& executed) {
    return run_skipping(
        order, [this] { return masters.front()->done(); }, max_cycles,
        chunk, simulated, executed);
  }

  PatternSlave slave;
  rng::RandBank bank;
  std::unique_ptr<bus::Arbiter> arbiter;
  std::unique_ptr<bus::NonSplitBus> bus;
  std::unique_ptr<core::CreditState> filter;
  std::vector<std::unique_ptr<platform::SyntheticMaster>> masters;
  std::vector<sim::Component*> order;
};

/// Runs `cfg` ticked and skipped at two cuts and two chunks; returns the
/// cycles the skipping runs executed and simulated in total.
std::pair<std::uint64_t, std::uint64_t> check_synth_rig(
    const SynthRigConfig& cfg, const std::string& name) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const Cycle max_cycles : {Cycle{2'000'000}, Cycle{3'001}}) {
    for (const Cycle chunk : {kNever, Cycle{7}}) {
      const std::string where = name + " max " + std::to_string(max_cycles) +
                                " chunk " + std::to_string(chunk);
      SynthRig ticked(cfg);
      SynthRig skipped(cfg);
      const bool fired_ticked = ticked.run_ticked(max_cycles);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      const bool fired_skipped =
          skipped.run_skipped(max_cycles, chunk, simulated, executed);
      EXPECT_EQ(fired_ticked, fired_skipped) << where;
      if (max_cycles > 1'000'000) EXPECT_TRUE(fired_ticked) << where;
      for (std::size_t m = 0; m < ticked.masters.size(); ++m) {
        const platform::SyntheticMaster& a = *ticked.masters[m];
        const platform::SyntheticMaster& b = *skipped.masters[m];
        const std::string who = where + " m" + std::to_string(m);
        EXPECT_EQ(a.completed(), b.completed()) << who;
        EXPECT_EQ(a.done(), b.done()) << who;
        EXPECT_EQ(a.finish_cycle(), b.finish_cycle()) << who;
      }
      expect_same_bus(*ticked.bus, *skipped.bus, where);
      if (cfg.credits) {
        expect_same_credits(*ticked.filter, *skipped.filter, where);
      }
      EXPECT_EQ(simulated, skipped.bus->statistics().total_cycles) << where;
      executed_total += executed;
      simulated_total += simulated;
    }
  }
  return {executed_total, simulated_total};
}

/// check_synth_rig under every arbiter, credit setting and tick order.
std::pair<std::uint64_t, std::uint64_t> check_synth_settings(
    SynthRigConfig cfg, const std::string& name) {
  std::uint64_t executed_total = 0;
  std::uint64_t simulated_total = 0;
  for (const bus::ArbiterKind arbiter :
       {bus::ArbiterKind::kRandomPermutation, bus::ArbiterKind::kRoundRobin,
        bus::ArbiterKind::kTdma}) {
    for (const bool credits : {false, true}) {
      for (const bool bus_first : {false, true}) {
        cfg.arbiter = arbiter;
        cfg.credits = credits;
        cfg.bus_first = bus_first;
        std::string label = name + " " + std::string(bus::short_name(arbiter));
        if (credits) label += " cba";
        if (bus_first) label += " bus-first";
        const auto [executed, simulated] = check_synth_rig(cfg, label);
        executed_total += executed;
        simulated_total += simulated;
      }
    }
  }
  return {executed_total, simulated_total};
}

[[nodiscard]] platform::SyntheticMasterConfig synthetic(
    MasterId id, Cycle hold, std::uint64_t requests, std::uint32_t gap,
    std::uint32_t initial_delay = 0, bool instant_rerequest = false) {
  platform::SyntheticMasterConfig cfg;
  cfg.id = id;
  cfg.hold = hold;
  cfg.requests = requests;
  cfg.gap = gap;
  cfg.initial_delay = initial_delay;
  cfg.instant_rerequest = instant_rerequest;
  return cfg;
}

TEST(FastForward, SyntheticMasterGapsSkippedMatchTicked) {
  // The paper's illustrative pair (5- and 45-cycle requests) with think
  // times, plus a sparse master whose long gaps dominate the run.
  SynthRigConfig cfg;
  cfg.masters = {synthetic(0, 5, 120, 4), synthetic(1, 45, 40, 30),
                 synthetic(2, 6, 0, 250)};
  const auto [executed, simulated] = check_synth_settings(cfg, "gaps");
  EXPECT_LT(executed, simulated) << "gap countdowns must be skipped";
}

TEST(FastForward, SyntheticMasterInitialDelaySkippedMatchesTicked) {
  // A TuA idle for 700 cycles before its first request (banking credit
  // under CBA) against unbounded back-to-back contenders, one of which
  // starts late too.
  SynthRigConfig cfg;
  cfg.masters = {synthetic(0, 6, 60, 0, 700), synthetic(1, 56, 0, 0),
                 synthetic(2, 8, 0, 3, 333)};
  (void)check_synth_settings(cfg, "initial delay");
}

TEST(FastForward, SyntheticMasterInstantRerequestSkippedMatchesTicked) {
  // Masters that keep REQ asserted re-request in their completion cycle,
  // next to one that needs a cycle to turn around and a gapped one.
  SynthRigConfig cfg;
  cfg.masters = {synthetic(0, 5, 150, 0, 0, true),
                 synthetic(1, 45, 0, 0, 0, true), synthetic(2, 5, 0, 0),
                 synthetic(3, 9, 0, 17, 40)};
  (void)check_synth_settings(cfg, "instant re-request");
}

// --- parking: blocked cores leave the kernel's passes -------------------------

TEST(FastForward, ParkedTuaOnTheSingleBusMatchesTicked) {
  // The TuA's loads, atomics and drains block it on the bus: alone in
  // ISO mode, behind Table-I contenders in WCET mode. It parks, and the
  // bus's completion wakes it.
  const auto ops = random_ops(21, 400);
  platform::PlatformConfig iso = platform::PlatformConfig::paper(BusSetup::kCba);
  iso.mode = PlatformMode::kOperation;
  for (const auto& [name, config] :
       {std::pair{std::string("iso"), iso},
        std::pair{std::string("wcet"),
                  platform::PlatformConfig::paper_wcet(BusSetup::kCba)},
        std::pair{std::string("wcet rp"),
                  platform::PlatformConfig::paper_wcet(BusSetup::kRp)}}) {
    for (const Cycle chunk : {kNever, Cycle{7}}) {
      const std::string where = name + " chunk " + std::to_string(chunk);
      const TuaParking parked =
          expect_same_machine_runs(config, ops, 50'000'000, chunk, where);
      EXPECT_TRUE(parked.seen) << where;
    }
  }
}

TEST(FastForward, ParkedCoresWithTheBusRegisteredFirstMatchTicked) {
  // The bus ticks before the cores: a completion at cycle t wakes a core
  // whose slot at t is still ahead, so the wake settles the cycles up to
  // t and the core ticks at t in the same pass. Real cores only: the
  // Table-I contenders' horizons assume the platform's order (contenders
  // before the bus).
  for (const bool credits : {false, true}) {
    RigConfig cfg;
    cfg.cores = 2;
    cfg.contenders = false;
    if (credits) cfg.cba = CbaConfig::paper_table1();
    cfg.bus_first = true;
    cfg.seed = 31;
    const std::string name =
        credits ? "bus first, two cores, cba" : "bus first, two cores";
    (void)check_rig(cfg, name, {200'000'000, 3'001}, {kNever, 7, kStepping});
  }
  RigConfig iso;
  iso.contenders = false;
  iso.bus_first = true;
  iso.seed = 32;
  (void)check_rig(iso, "bus first, iso");
}

TEST(FastForward, BudgetEndingWhileTheTuaIsParked) {
  // One load that misses the L1 and the L2 after 10 compute cycles: the
  // TuA waits on the bus from cycle 10. Every cut inside the wait ends
  // the run unfinished with the TuA parked at its last executed cycle;
  // the settled cycle and stall counts must match the ticked run's.
  const std::vector<cpu::MemOp> ops{{MemOpKind::kLoad, 0x1000, 10},
                                    {MemOpKind::kLoad, 0x9000, 0}};
  platform::PlatformConfig iso = platform::PlatformConfig::paper(BusSetup::kRp);
  iso.mode = PlatformMode::kOperation;
  const platform::PlatformConfig wcet =
      platform::PlatformConfig::paper_wcet(BusSetup::kCba);
  int parked_cuts = 0;
  for (const auto& [name, config] :
       {std::pair{std::string("iso"), iso},
        std::pair{std::string("wcet"), wcet}}) {
    for (Cycle cut = 12; cut < 80; cut += 5) {
      const std::string where = name + " cut " + std::to_string(cut);
      workloads::FixedOpsStream probe_stream(ops);
      platform::Multicore probe(config, 42, probe_stream);
      if (probe.run(cut).tua_finished) continue;
      const TuaParking parked =
          expect_same_machine_runs(config, ops, cut, kNever, where);
      if (parked.last) ++parked_cuts;
    }
  }
  EXPECT_GE(parked_cuts, 10) << "cuts that end with the TuA parked";
}

TEST(FastForward, TuaDrivenByStepMatchesTicked) {
  // step() executes one cycle per call. Whatever parks in a one-cycle
  // call is settled at once with nothing to settle, so such a call runs
  // unbound and nothing parks.
  const auto ops = random_ops(23, 150);
  platform::PlatformConfig iso =
      platform::PlatformConfig::paper(BusSetup::kHcba);
  iso.mode = PlatformMode::kOperation;
  for (const auto& [name, config] :
       {std::pair{std::string("iso"), iso},
        std::pair{std::string("wcet"),
                  platform::PlatformConfig::paper_wcet(BusSetup::kHcba)}}) {
    const TuaParking parked =
        expect_same_machine_runs(config, ops, 50'000'000, kStepping, name);
    EXPECT_FALSE(parked.seen) << name;
  }
}

/// The mesh_corun shape: nine cores on mesh:3x3, every one running its
/// own random ops, under `setup` with bridges bounded at `depth`.
[[nodiscard]] platform::PlatformConfig mesh_corun_config(
    const std::string& setup, std::uint32_t depth) {
  std::istringstream in("cores = 9\ntopology = mesh:3x3\nmode = operation\n"
                        "arbiter = rr\nsetup = " + setup + "\nbridge_depth = " +
                        (depth == 0 ? std::string("unbounded")
                                    : std::to_string(depth)) +
                        "\n");
  return platform::parse_config(in);
}

/// Nine-core Multicore runs: the every-cycle reference against a parking,
/// skipping run driven in chunks of `chunk` (kStepping: step()); every
/// core, interconnect and credit statistic and the record must match,
/// and every core must have parked unless driven by step().
void expect_same_mesh_corun(const platform::PlatformConfig& config,
                            Cycle max_cycles, Cycle chunk,
                            const std::string& where) {
  struct Side {
    explicit Side(const platform::PlatformConfig& config) {
      for (MasterId m = 0; m < config.n_cores; ++m) {
        streams.push_back(std::make_unique<workloads::FixedOpsStream>(
            random_ops(77 + m, 160)));
        if (m > 0) corunners.push_back(streams.back().get());
      }
      machine = std::make_unique<platform::Multicore>(
          config, 42, *streams.front(), corunners);
    }
    std::vector<std::unique_ptr<workloads::FixedOpsStream>> streams;
    std::vector<cpu::OpStream*> corunners;
    std::unique_ptr<platform::Multicore> machine;
  };
  Side ticked(config);
  Side skipped(config);
  test::TickEveryCycle reference(ticked.machine->kernel());
  const platform::RunResult a = ticked.machine->run(max_cycles);
  sim::Kernel& kernel = skipped.machine->kernel();
  std::vector<const sim::Component*> cores;
  for (std::size_t i = 0; i < skipped.machine->real_cores(); ++i) {
    cores.push_back(&skipped.machine->core(i));
  }
  const ParkWatch watch(kernel, cores);
  platform::Multicore& machine = *skipped.machine;
  const bool fired = run_in_chunks(
      kernel, [&] { return machine.tua_done(); }, max_cycles, chunk);
  const platform::RunResult b = machine.harvest(fired, kernel.now());
  EXPECT_EQ(a.tua_finished, b.tua_finished) << where;
  EXPECT_EQ(a.tua_cycles, b.tua_cycles) << where;
  for (std::size_t i = 0; i < machine.real_cores(); ++i) {
    const std::string who = where + " core " + std::to_string(i);
    expect_same_core(ticked.machine->core(i), machine.core(i), who);
    // One-cycle calls run unbound (see TuaDrivenByStepMatchesTicked).
    EXPECT_EQ(watch.seen[i], chunk != kStepping) << who;
  }
  const auto x = interconnect_stats(*ticked.machine->segmented());
  const auto y = interconnect_stats(*machine.segmented());
  ASSERT_EQ(x.size(), y.size()) << where;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].second, y[i].second) << where << ' ' << x[i].first;
  }
  for (std::uint32_t s = 0; s < machine.interconnect().n_segments(); ++s) {
    if (machine.credit_filter(s) == nullptr) continue;
    expect_same_credits(*ticked.machine->credit_filter(s),
                        *machine.credit_filter(s),
                        where + " segment " + std::to_string(s));
  }
  expect_same_records(a.record, b.record, where);
}

TEST(FastForward, NineParkedCoresOnTheMeshMatchTicked) {
  for (const std::string setup : {"rp", "hcba"}) {
    for (const std::uint32_t depth : {0u, 1u}) {
      for (const Cycle chunk : {kNever, Cycle{7}}) {
        const std::string where = setup + " depth " + std::to_string(depth) +
                                  " chunk " + std::to_string(chunk);
        expect_same_mesh_corun(mesh_corun_config(setup, depth), 50'000'000,
                               chunk, where);
      }
    }
  }
  // A cut mid-run and a stepped run.
  expect_same_mesh_corun(mesh_corun_config("hcba", 1), 2'501, kNever,
                         "hcba depth 1 cut 2501");
  expect_same_mesh_corun(mesh_corun_config("rp", 1), 50'000'000, kStepping,
                         "rp depth 1 step");
}

// --- the contender component and the TDMA horizon ---------------------------

/// Counts the executed cycles that end with a Table-I contender holding
/// the bus AND pending again: it re-requested in the cycle between its
/// latch and its grant, where the non-split bus lets it. Its horizon is
/// kNever, so it adds no executed cycle.
class LatchGapWatch final : public sim::Component {
 public:
  LatchGapWatch(const bus::NonSplitBus& bus, MasterId first)
      : sim::Component("latch-gap-watch"), bus_(bus), first_(first) {}

  void tick(Cycle /*now*/) override {
    for (MasterId m = first_; m < bus_.n_masters(); ++m) {
      if (bus_.is_holding(m) && bus_.has_pending(m)) ++seen;
    }
  }
  [[nodiscard]] Cycle next_event(Cycle /*now*/) const override {
    return kNever;
  }

  std::uint64_t seen = 0;

 private:
  const bus::NonSplitBus& bus_;
  MasterId first_;
};

TEST(FastForward, ContendersReRequestingInTheLatchGapMatchTicked) {
  // A latched contender stays latched until its grant, and the latch
  // frees its port a cycle earlier: it raises a fresh request in that
  // cycle, so its pending bit must end at on_latch and survive on_grant.
  for (const ContenderPolicy policy :
       {ContenderPolicy::kAlwaysCompete, ContenderPolicy::kCompLatch}) {
    RigConfig cfg;
    cfg.policy = policy;
    if (policy == ContenderPolicy::kCompLatch) {
      cfg.cba = CbaConfig::paper_table1();
    }
    cfg.seed = 41;
    for (const Cycle max_cycles : {Cycle{200'000'000}, Cycle{3'001}}) {
      for (const Cycle chunk : {kNever, Cycle{7}, kStepping}) {
        const std::string where =
            std::string(policy == ContenderPolicy::kCompLatch ? "latch"
                                                              : "always") +
            " max " + std::to_string(max_cycles) + " chunk " +
            std::to_string(chunk);
        Rig ticked(cfg);
        Rig skipped(cfg);
        LatchGapWatch ticked_watch(*ticked.bus, 1);
        LatchGapWatch skipped_watch(*skipped.bus, 1);
        ticked.order.push_back(&ticked_watch);
        skipped.order.push_back(&skipped_watch);
        const bool fired_ticked = ticked.run_ticked(max_cycles);
        std::uint64_t simulated = 0;
        std::uint64_t executed = 0;
        const bool fired_skipped =
            skipped.run_skipped(max_cycles, chunk, simulated, executed);
        EXPECT_EQ(fired_ticked, fired_skipped) << where;
        expect_same_rig(ticked, skipped, where);
        EXPECT_GT(ticked_watch.seen, 0u) << where;
        EXPECT_GT(skipped_watch.seen, 0u) << where;
      }
    }
  }
}

TEST(FastForward, RigCutInsideAContenderTransferMatchesTicked) {
  // Cuts at which the reference ends with a Table-I contender holding
  // the bus mid-transfer; every contender's latch and grants must match
  // too, under both policies and every way of driving the kernel.
  for (const ContenderPolicy policy :
       {ContenderPolicy::kAlwaysCompete, ContenderPolicy::kCompLatch}) {
    RigConfig cfg;
    cfg.policy = policy;
    cfg.cba = CbaConfig::paper_table1();
    cfg.seed = 43;
    int found = 0;
    for (Cycle cut = 2'000; cut < 6'000 && found < 3; cut += 41) {
      Rig probe(cfg);
      if (probe.run_ticked(cut)) continue;
      const MasterId holder = probe.bus->holder();
      if (holder == 0 || holder == kNoMaster) continue;
      ++found;
      const std::string name =
          std::string(policy == ContenderPolicy::kCompLatch ? "latch"
                                                            : "always") +
          " contender " + std::to_string(holder) + " holding at the cut";
      (void)check_rig(cfg, name, {cut}, {kNever, 7, kStepping});
    }
    EXPECT_EQ(found, 3);
  }
}

TEST(FastForward, ContendersRegisteredAfterTheBusThrow) {
  // The contenders' closed forms assume they tick before the bus. With
  // the bus registered first, its first callback to a contender comes in
  // a cycle the contender has not ticked yet: the run stops with a
  // precondition failure instead of diverging from the every-cycle
  // reference.
  for (const ContenderPolicy policy :
       {ContenderPolicy::kAlwaysCompete, ContenderPolicy::kCompLatch}) {
    RigConfig cfg;
    cfg.cores = 2;
    cfg.cba = CbaConfig::paper_table1();
    cfg.policy = policy;
    cfg.bus_first = true;
    cfg.seed = 31;
    Rig ticked(cfg);
    EXPECT_THROW((void)ticked.run_ticked(200'000'000), std::invalid_argument);
    for (const Cycle chunk : {kNever, Cycle{7}, kStepping}) {
      Rig skipped(cfg);
      std::uint64_t simulated = 0;
      std::uint64_t executed = 0;
      EXPECT_THROW(
          (void)skipped.run_skipped(200'000'000, chunk, simulated, executed),
          std::invalid_argument)
          << "chunk " << chunk;
    }
  }
}

TEST(FastForward, AdaptiveEpochsInsideQuietWindowsMatchTicked) {
  // Every fourth load comes after 3000 compute cycles. While the TuA
  // computes, the bus is idle (alone, or with COMP-latch contenders that
  // wait for its next request), so the adaptive controller's sampling
  // points are the only events there: its epochs (every 256 cycles,
  // samples every 16) fall inside windows the rest of the machine
  // skips, and each one that retunes the increments settles the budgets
  // it changes. The ctrl.* metrics in the records pin the epoch cycles.
  rng::SplitMix64 rng(5);
  std::vector<cpu::MemOp> ops;
  for (int i = 0; i < 48; ++i) {
    const auto gap = static_cast<std::uint32_t>(i % 4 == 0 ? 3'000
                                                           : rng.next() % 40);
    ops.push_back(
        {MemOpKind::kLoad, static_cast<Addr>((rng.next() % 4096) * 64), gap});
  }
  for (const std::string mode : {"operation", "wcet"}) {
    std::istringstream in("cores = 4\nsetup = hcba\ncontroller = "
                          "adaptive:256\nmode = " + mode + "\n");
    const platform::PlatformConfig config = platform::parse_config(in);
    {
      workloads::FixedOpsStream stream(ops);
      platform::Multicore probe(config, 42, stream);
      ASSERT_TRUE(probe.run().tua_finished) << mode;
      ASSERT_NE(probe.controller(), nullptr);
      EXPECT_GT(probe.controller()->stats().epochs, 100u) << mode;
      EXPECT_GT(probe.controller()->stats().updates, 0u) << mode;
      // The quiet windows are skipped between sampling points.
      EXPECT_LT(probe.kernel().executed_cycles() * 4, probe.kernel().now())
          << mode;
    }
    for (const Cycle chunk : {kNever, Cycle{7}, kStepping}) {
      const std::string where = mode + " chunk " + std::to_string(chunk);
      expect_same_machine_runs(config, ops, 50'000'000, chunk, where);
      expect_same_machine_runs(config, ops, 20'011, chunk, where + " cut");
    }
  }
}

/// Multicore runs of `config` (segmented, WCET mode, the TuA alone on
/// master 0): the every-cycle reference against a skipping run in chunks
/// of `chunk`; the TuA, every interconnect and credit statistic and the
/// record must match.
void expect_same_segmented_wcet(const platform::PlatformConfig& config,
                                const std::vector<cpu::MemOp>& ops,
                                Cycle max_cycles, Cycle chunk,
                                const std::string& where) {
  workloads::FixedOpsStream tua_a(ops);
  workloads::FixedOpsStream tua_b(ops);
  platform::Multicore ticked(config, 42, tua_a);
  platform::Multicore skipped(config, 42, tua_b);
  test::TickEveryCycle reference(ticked.kernel());
  const platform::RunResult a = ticked.run(max_cycles);
  sim::Kernel& kernel = skipped.kernel();
  const bool fired = run_in_chunks(
      kernel, [&] { return skipped.tua_done(); }, max_cycles, chunk);
  const platform::RunResult b = skipped.harvest(fired, kernel.now());
  EXPECT_EQ(a.tua_finished, b.tua_finished) << where;
  EXPECT_EQ(a.tua_cycles, b.tua_cycles) << where;
  expect_same_core(ticked.core(0), skipped.core(0), where);
  const auto x = interconnect_stats(*ticked.segmented());
  const auto y = interconnect_stats(*skipped.segmented());
  ASSERT_EQ(x.size(), y.size()) << where;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].second, y[i].second) << where << ' ' << x[i].first;
  }
  for (std::uint32_t s = 0; s < skipped.interconnect().n_segments(); ++s) {
    if (skipped.credit_filter(s) == nullptr) continue;
    expect_same_credits(*ticked.credit_filter(s), *skipped.credit_filter(s),
                        where + " segment " + std::to_string(s));
  }
  expect_same_records(a.record, b.record, where);
  if (chunk != kStepping) {
    EXPECT_LT(kernel.executed_cycles(), kernel.now()) << where;
  }
}

TEST(FastForward, SegmentedWcetContendersOnEveryHomeSegmentMatchTicked) {
  // One component drives the three contenders, each reading BUDGi from
  // its own home segment's credit state; the segmented interconnect never
  // calls on_latch, so their pending bits end at the grant.
  const auto ops = random_ops(51, 300);
  for (const std::string topology : {"ring:4", "mesh:2x2"}) {
    for (const std::string setup : {"rp", "cba", "hcba"}) {
      std::istringstream in("cores = 4\nmode = wcet\nbridge_depth = 2\n"
                            "topology = " + topology + "\nsetup = " + setup +
                            "\n");
      const platform::PlatformConfig config = platform::parse_config(in);
      {
        workloads::FixedOpsStream stream(ops);
        platform::Multicore machine(config, 42, stream);
        std::vector<std::uint32_t> homes;
        for (MasterId m = 0; m < 4; ++m) {
          homes.push_back(machine.interconnect().home_segment(m));
        }
        std::sort(homes.begin(), homes.end());
        ASSERT_EQ(std::unique(homes.begin(), homes.end()), homes.end())
            << topology << ": one master per home segment";
      }
      for (const Cycle chunk : {kNever, Cycle{7}, kStepping}) {
        const std::string where =
            topology + ' ' + setup + " chunk " + std::to_string(chunk);
        expect_same_segmented_wcet(config, ops, 50'000'000, chunk, where);
        expect_same_segmented_wcet(config, ops, 4'001, chunk,
                                   where + " cut 4001");
      }
    }
  }
}

/// The TDMA rigs execute 13-15% of their cycles; without the arbiter's
/// horizon (Arbiter::next_pick) they executed 80-99%.
constexpr std::uint64_t kTdmaSkipFactor = 4;

TEST(FastForward, TdmaWithRealCoresSkippedMatchesTicked) {
  // TDMA declines every arbitration outside a pending owner's slot; the
  // bus's horizon jumps to the cycle before that slot, with and without
  // credits (the later of the slot and the eligibility crossing).
  for (const std::optional<CbaConfig>& cba :
       {std::optional<CbaConfig>{}, std::optional<CbaConfig>{
                                        CbaConfig::homogeneous(4, 56)},
        std::optional<CbaConfig>{CbaConfig::paper_hcba(56)}}) {
    RigConfig cfg;
    cfg.cores = 4;
    cfg.contenders = false;
    cfg.arbiter = bus::ArbiterKind::kTdma;
    cfg.cba = cba;
    cfg.seed = 61;
    const std::string name =
        cba.has_value() ? "tdma credits " + std::to_string(cba->increment[0])
                        : "tdma";
    const auto [executed, simulated] =
        check_rig(cfg, name, {200'000'000, 3'001}, {kNever, 7});
    // Requests wait for their owner's slot without executing each cycle.
    EXPECT_LT(executed * kTdmaSkipFactor, simulated) << name;
    (void)check_rig(cfg, name + " step", {3'001}, {kStepping});
  }
}

TEST(FastForward, TdmaOnSegmentsSkippedMatchesTicked) {
  for (const SegFilters filters : {SegFilters::kNone, SegFilters::kCredits}) {
    for (const bus::Topology& topology :
         {bus::Topology::chain(2), bus::Topology::mesh(2, 2)}) {
      for (const std::uint32_t depth : {0u, 1u}) {
        SegRigConfig cfg;
        cfg.topology = topology;
        cfg.depth = depth;
        cfg.filters = filters;
        cfg.arbiter = bus::ArbiterKind::kTdma;
        cfg.seed = 71 + depth;
        const std::string name =
            std::string(filters == SegFilters::kNone ? "tdma" : "tdma cba") +
            ' ' + topology.label() + " depth " + std::to_string(depth);
        const auto [executed, simulated] = check_seg_rig(cfg, name);
        EXPECT_LT(executed * kTdmaSkipFactor, simulated) << name;
      }
    }
  }
}

}  // namespace
}  // namespace cbus
