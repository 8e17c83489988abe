// E1 -- the paper's SII illustrative example, reproduced cycle by cycle.
//
//   "let us assume that the task under analysis issues frequent requests
//    that access the L2 cache with a total turnaround latency of 6 cycles
//    once granted access to the bus. [...] tasks in the other cores are
//    streaming applications issuing constantly read requests to memory
//    that take 28 cycles. [...] its execution time with contention will
//    easily be close to (10,000 - 6,000) + 1,000 x (6 + 84) = 94,000 [...]
//    a 9.4x slowdown. [...] if a cycle-fair arbitration is used, execution
//    time would be (10,000 - 6,000) + 1,000 x (6 + 18) = 28,000, so a 2.8x
//    slowdown."
//
// We run the exact scenario on the modelled non-split bus: the TuA issues
// 1,000 5-cycle-hold requests separated by 4 compute cycles (the 1-cycle
// arbitration makes the 6-cycle turnaround), against three greedy
// 28-cycle streamers, under request-fair arbitration and under CBA.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "common/contracts.hpp"
#include "core/credit_state.hpp"
#include "platform/synthetic_master.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace cbus;

class UnusedSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    CBUS_ASSERT(false);  // every request carries a forced hold
    return 1;
  }
};

struct Outcome {
  double cycles = 0;
  double tua_occupancy = 0;
  double contender_occupancy = 0;
};

Outcome run_example(std::optional<core::CbaConfig> cba, int n_contenders,
                    Cycle contender_hold) {
  UnusedSlave slave;
  bus::RoundRobinArbiter arbiter(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arbiter, slave);
  std::unique_ptr<core::CreditState> filter;
  if (cba.has_value()) {
    filter = std::make_unique<core::CreditState>(*cba);
    b.set_filter(filter.get());
  }
  sim::Kernel kernel;

  platform::SyntheticMasterConfig tua_cfg;
  tua_cfg.id = 0;
  tua_cfg.hold = 5;
  tua_cfg.requests = 1000;
  tua_cfg.gap = 4;
  platform::SyntheticMaster tua(tua_cfg, b);
  kernel.add(tua);

  std::vector<std::unique_ptr<platform::SyntheticMaster>> contenders;
  for (int i = 1; i <= n_contenders; ++i) {
    platform::SyntheticMasterConfig c;
    c.id = static_cast<MasterId>(i);
    c.hold = contender_hold;
    c.requests = 0;  // stream forever
    c.gap = 0;
    contenders.push_back(std::make_unique<platform::SyntheticMaster>(c, b));
    kernel.add(*contenders.back());
  }
  kernel.add(b);

  const bool done =
      kernel.run_until([&]() { return tua.done(); }, 5'000'000);
  CBUS_ASSERT(done);

  Outcome out;
  out.cycles = static_cast<double>(tua.finish_cycle());
  const auto& s = b.statistics();
  out.tua_occupancy = s.occupancy_share(0);
  out.contender_occupancy = n_contenders > 0 ? s.occupancy_share(1) : 0.0;
  return out;
}

void print_example() {
  bench::banner(
      "SII illustrative example -- 1,000 short requests vs 3 streaming "
      "contenders",
      "TuA: 5-cycle holds + 1-cycle arbitration (6-cycle turnaround), "
      "4-cycle gaps.\nContenders: greedy 28-cycle memory reads.");

  const auto iso = run_example(std::nullopt, 0, 28);
  const auto rf = run_example(std::nullopt, 3, 28);
  const auto cba = run_example(core::CbaConfig::homogeneous(4, 56), 3, 28);
  const auto rf56 = run_example(std::nullopt, 3, 56);
  const auto cba56 = run_example(core::CbaConfig::homogeneous(4, 56), 3, 56);

  bench::Table table({"scenario", "cycles", "slowdown", "paper", "TuA occ",
                      "contender occ"});
  table.add_row({"isolation", bench::fmt(iso.cycles, 0), "1.00x",
                 "10,000 (1.0x)", bench::fmt(iso.tua_occupancy), "-"});
  table.add_row({"request-fair, 28-cy contenders", bench::fmt(rf.cycles, 0),
                 bench::fmt(rf.cycles / iso.cycles) + "x", "94,000 (9.4x)",
                 bench::fmt(rf.tua_occupancy),
                 bench::fmt(rf.contender_occupancy)});
  table.add_row({"CBA, 28-cy contenders", bench::fmt(cba.cycles, 0),
                 bench::fmt(cba.cycles / iso.cycles) + "x",
                 "28,000 (2.8x, idealized)", bench::fmt(cba.tua_occupancy),
                 bench::fmt(cba.contender_occupancy)});
  table.add_row({"request-fair, 56-cy contenders", bench::fmt(rf56.cycles, 0),
                 bench::fmt(rf56.cycles / iso.cycles) + "x",
                 "(unbounded in hold)", bench::fmt(rf56.tua_occupancy),
                 bench::fmt(rf56.contender_occupancy)});
  table.add_row({"CBA, 56-cy contenders", bench::fmt(cba56.cycles, 0),
                 bench::fmt(cba56.cycles / iso.cycles) + "x", "(bounded)",
                 bench::fmt(cba56.tua_occupancy),
                 bench::fmt(cba56.contender_occupancy)});
  table.print();

  std::cout
      << "\nShape check: request-fair slowdown grows with the contenders'\n"
         "request length (8.9x -> 17.3x); CBA pins every contender at 25%\n"
         "occupancy so the TuA's time barely moves. The paper's 94,000 is\n"
         "the fully-serialized closed form (our 4-cycle gap overlaps the\n"
         "head of each wait: 89,000); its 28,000 cycle-fair figure assumes\n"
         "zero eligibility latency, while the implementable mechanism\n"
         "(full-budget eligibility, Table I) measures ~56,000 -- still\n"
         "bounded, unlike the request-fair baseline.\n";
}

void BM_IllustrativeRequestFair(benchmark::State& state) {
  for (auto _ : state) {
    const auto out = run_example(std::nullopt, 3, 28);
    benchmark::DoNotOptimize(out.cycles);
  }
}
BENCHMARK(BM_IllustrativeRequestFair);

void BM_IllustrativeCba(benchmark::State& state) {
  for (auto _ : state) {
    const auto out = run_example(core::CbaConfig::homogeneous(4, 56), 3, 28);
    benchmark::DoNotOptimize(out.cycles);
  }
}
BENCHMARK(BM_IllustrativeCba);

}  // namespace

int main(int argc, char** argv) {
  print_example();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
