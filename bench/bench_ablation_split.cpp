// A6 -- ablation: split-transaction bus vs the paper's non-split bus.
//
// Paper SIII-C: "despite buses with split transactions have more
// homogeneous request sizes, the worst-case situation, having very long
// and very short requests, is possible since atomic operations by
// definition cannot be split."
//
// Scenario: master 0 issues short requests; masters 1-3 alternate
// normal reads with atomics (the unsplittable long requests). We measure
// master 0's occupancy and worst-case wait on both bus protocols, with
// and without CBA -- showing (a) the split bus alone fixes the
// hit-vs-miss heterogeneity, (b) it does NOT fix atomic hogging, and
// (c) CBA caps the atomic masters on either protocol.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <optional>

#include "bench_common.hpp"
#include "bus/round_robin.hpp"
#include "bus/split_bus.hpp"
#include "core/credit_state.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace cbus;

/// Split slave with the platform's latency classes.
class ClassSlave final : public bus::SplitSlave {
 public:
  bus::SplitResponse begin_split_transaction(const bus::BusRequest& request,
                                             Cycle) override {
    if (request.kind == MemOpKind::kAtomic) {
      return bus::SplitResponse{56, 0, true};
    }
    // Miss-like read: 23 cycles of service + 4 beats (28 total).
    return bus::SplitResponse{23, 4, false};
  }
};

/// Greedy requester that alternates reads and atomics.
class MixMaster final : public bus::BusMaster {
 public:
  MixMaster(MasterId id, bool use_atomics)
      : id_(id), use_atomics_(use_atomics) {}

  template <typename Bus>
  void drive(Bus& bus, Cycle now) {
    if (!bus.can_request(id_)) return;
    bus::BusRequest req;
    req.master = id_;
    req.addr = 0x1000u * id_;
    req.kind = (use_atomics_ && (++count_ % 2 == 0)) ? MemOpKind::kAtomic
                                                     : MemOpKind::kLoad;
    bus.request(req, now);
  }

  void on_grant(const bus::BusRequest&, Cycle, Cycle) override {}
  void on_complete(const bus::BusRequest&, Cycle) override {}

 private:
  MasterId id_;
  bool use_atomics_;
  std::uint64_t count_ = 0;
};

struct Measured {
  double occ_short = 0;
  double occ_atomic = 0;
  Cycle short_max_wait = 0;
};

template <typename BusT, typename SlaveT>
Measured run_protocol(bool with_cba, bool atomics) {
  SlaveT slave;
  bus::RoundRobinArbiter arbiter(4);
  BusT b(bus::BusConfig{4, true}, arbiter, slave);
  std::unique_ptr<core::CreditState> filter;
  if (with_cba) {
    filter = std::make_unique<core::CreditState>(
        core::CbaConfig::homogeneous(4, 56));
    b.set_filter(filter.get());
  }
  sim::Kernel kernel;
  kernel.add(b);

  MixMaster short_master(0, false);
  MixMaster m1(1, atomics), m2(2, atomics), m3(3, atomics);
  b.connect_master(0, short_master);
  b.connect_master(1, m1);
  b.connect_master(2, m2);
  b.connect_master(3, m3);

  // Master 0's "short" requests: plain reads too (homogeneous on the
  // split bus, 28-cycle on the non-split one).
  for (Cycle t = 0; t < 200'000; ++t) {
    short_master.drive(b, kernel.now());
    m1.drive(b, kernel.now());
    m2.drive(b, kernel.now());
    m3.drive(b, kernel.now());
    kernel.step();
  }
  Measured out;
  out.occ_short = b.statistics().occupancy_share(0);
  out.occ_atomic = b.statistics().occupancy_share(1);
  out.short_max_wait = b.statistics().master[0].max_wait;
  return out;
}

/// Adapter so the non-split bus sees the same latency classes.
class NonSplitClassSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest& request, Cycle) override {
    return request.kind == MemOpKind::kAtomic ? 56 : 28;
  }
};

void print_ablation() {
  bench::banner(
      "A6 -- split vs non-split bus, with and without atomics and CBA",
      "Master 0: plain reads. Masters 1-3: alternating reads/atomics\n"
      "(56-cycle unsplittable holds). All greedy; round-robin inner.");

  bench::Table table({"protocol", "contender atomics", "CBA",
                      "occ short-master", "occ atomic-master",
                      "short max wait"});
  const auto add = [&](const char* proto, bool atomics, bool cba,
                       const Measured& m) {
    table.add_row({proto, atomics ? "yes" : "no", cba ? "yes" : "no",
                   bench::fmt(m.occ_short), bench::fmt(m.occ_atomic),
                   std::to_string(m.short_max_wait)});
  };

  add("non-split", false, false,
      run_protocol<bus::NonSplitBus, NonSplitClassSlave>(false, false));
  add("split", false, false,
      run_protocol<bus::SplitBus, ClassSlave>(false, false));
  add("non-split", true, false,
      run_protocol<bus::NonSplitBus, NonSplitClassSlave>(false, true));
  add("split", true, false,
      run_protocol<bus::SplitBus, ClassSlave>(false, true));
  add("non-split", true, true,
      run_protocol<bus::NonSplitBus, NonSplitClassSlave>(true, true));
  add("split", true, true,
      run_protocol<bus::SplitBus, ClassSlave>(true, true));
  table.print();

  std::cout
      << "\nWith homogeneous reads the split bus equalizes occupancy by\n"
         "construction (every transaction occupies 1+4 cycles). Adding\n"
         "atomics re-creates the short-vs-long mix -- the atomic masters'\n"
         "56-cycle unsplittable holds dominate the split bus exactly as the\n"
         "paper argues -- and CBA restores the occupancy cap on either\n"
         "protocol. Credit-based throttling is not made redundant by split\n"
         "transactions.\n";
}

void BM_SplitBusStep(benchmark::State& state) {
  ClassSlave slave;
  bus::RoundRobinArbiter arbiter(4);
  bus::SplitBus b(bus::BusConfig{4, true}, arbiter, slave);
  sim::Kernel kernel;
  kernel.add(b);
  MixMaster masters[4] = {{0, false}, {1, true}, {2, true}, {3, true}};
  for (MasterId m = 0; m < 4; ++m) b.connect_master(m, masters[m]);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      for (MasterId m = 0; m < 4; ++m) masters[m].drive(b, kernel.now());
      kernel.step();
    }
    benchmark::DoNotOptimize(b.statistics().busy_cycles);
  }
}
BENCHMARK(BM_SplitBusStep);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
