// E2 -- Table I of the paper: the CBA signal summary, demonstrated live.
//
//   |          | Every cycle            | When using bus |
//   | BUDGi    | min(BUDGi + 1, 228)    | BUDGi - 4      |
//   |          | WCET mode              | Operation mode |
//   | COMP1    | --                     | --             |
//   | COMP2,3,4| BUDGi == 228 ^ REQ1==1 | 1              |
//   | REQ1     | when request ready     | when request ready |
//   | REQ2,3,4 | 1                      | when request ready |
//
// This bench replays a deterministic WCET-mode scenario on the real
// arbiter/credit machinery and prints a cycle-by-cycle register trace
// showing each Table-I rule firing: the saturating +1, the -4 occupancy
// charge, the COMP latch (budget full AND TuA request pending) and its
// reset on grant.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "common/contracts.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "platform/synthetic_master.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace cbus;

class UnusedSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    CBUS_ASSERT(false);
    return 1;
  }
};

void print_table1_trace() {
  bench::banner(
      "Table I -- CBA signals in WCET-estimation mode",
      "4 cores, MaxL = 56, 8-bit budgets saturating at 228, +1/cycle,\n"
      "-4/cycle while holding. TuA (core 0) starts with zero budget and\n"
      "issues 5-cycle requests; contenders hold 56 cycles, COMP-latched.");

  UnusedSlave slave;
  bus::RoundRobinArbiter arbiter(4);
  bus::NonSplitBus b(bus::BusConfig{4, true}, arbiter, slave);
  core::CreditState filter(core::CbaConfig::paper_table1());
  b.set_filter(&filter);
  filter.set_budget(0, 0);  // TuA zero initial budget (SIII-B)

  sim::Kernel kernel;
  platform::SyntheticMasterConfig tua_cfg;
  tua_cfg.id = 0;
  tua_cfg.hold = 5;
  tua_cfg.requests = 3;
  tua_cfg.gap = 4;
  platform::SyntheticMaster tua(tua_cfg, b);
  kernel.add(tua);

  std::vector<core::VirtualContender::Contender> cs;
  for (MasterId m = 1; m < 4; ++m) {
    core::VirtualContenderConfig vc;
    vc.self = m;
    vc.tua = 0;
    vc.hold = 56;
    vc.policy = core::ContenderPolicy::kCompLatch;
    cs.push_back({vc, &filter});
  }
  core::VirtualContender contenders(cs, b);
  kernel.add(contenders);
  kernel.add(b);

  bench::Table table({"cycle", "BUDG0", "BUDG1", "BUDG2", "BUDG3", "COMP2",
                      "COMP3", "COMP4", "REQ1", "holder", "event"});

  std::uint64_t prev_budg0 = 0;
  MasterId prev_holder = kNoMaster;
  for (Cycle t = 0; t < 800; ++t) {
    kernel.step();
    const MasterId holder = b.holder();

    // Record only the interesting cycles to keep the trace readable.
    std::string event;
    if (t == 0) event = "TuA budget zeroed at analysis start";
    if (filter.budget(0) == 228 && prev_budg0 < 228) {
      event = "BUDG0 saturates at 228 -> TuA eligible";
    }
    if (holder != prev_holder && holder != kNoMaster) {
      event = "core " + std::to_string(holder) + " granted" +
              (holder == 0 ? " (TuA)" : " (holds 56)");
    }
    if (holder == kNoMaster && prev_holder != kNoMaster) {
      event = "bus released by core " + std::to_string(prev_holder);
    }
    if (!event.empty() || t % 100 == 99) {
      table.add_row(
          {std::to_string(t), std::to_string(filter.budget(0)),
           std::to_string(filter.budget(1)), std::to_string(filter.budget(2)),
           std::to_string(filter.budget(3)),
           contenders.comp(1) ? "1" : "0",
           contenders.comp(2) ? "1" : "0",
           contenders.comp(3) ? "1" : "0",
           b.has_pending(0) ? "1" : "0",
           holder == kNoMaster ? "-" : std::to_string(holder), event});
    }
    prev_budg0 = filter.budget(0);
    prev_holder = holder;
    if (tua.done() && t > 600) break;
  }
  table.print();

  std::cout << "\nRules verified live: budgets never exceed 228; the holder "
               "pays net -3/cycle\n(+1 and -4 combined); COMPi latches only "
               "when BUDGi == 228 and the TuA has a\npending request, and "
               "resets on grant; the TuA's first request waits for its\n"
               "zeroed budget to saturate (228 cycles).\n";
}

/// Timing: the credit-state update (the per-cycle hardware op) with a
/// holder change on every tick, each settling two counters, and a
/// closed-form budget read.
void BM_CreditTick(benchmark::State& state) {
  core::CreditState credits(core::CbaConfig::paper_table1());
  MasterId holder = 0;
  for (auto _ : state) {
    credits.tick(holder);
    holder = (holder + 1) % 5 == 4 ? kNoMaster : (holder + 1) % 4;
    benchmark::DoNotOptimize(credits.budget(0));
  }
}
BENCHMARK(BM_CreditTick);

/// Timing: eligibility mask computation (the filter's combinational path),
/// one closed-form read per pending master.
void BM_EligibilityMask(benchmark::State& state) {
  core::CreditState credits(core::CbaConfig::paper_table1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(credits.eligible_mask(0b1111));
  }
}
BENCHMARK(BM_EligibilityMask);

}  // namespace

int main(int argc, char** argv) {
  print_table1_trace();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
