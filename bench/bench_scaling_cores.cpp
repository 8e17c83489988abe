// E7 -- core-count scaling: the paper's closing claim.
//
//   "Our results show that the maximum slowdown roughly matches the core
//    count -- as one would expect -- when all tasks saturate the shared
//    resource, which compares to existing policies whose slowdown is
//    virtually unbounded."
//
// Two sweeps over N = 2..8 cores, always against greedy MaxL (56-cycle)
// contenders:
//
//  (a) the SII task shape -- short 5-cycle requests with compute gaps --
//      where request-fair waits scale with (N-1) x MaxL / period while
//      CBA's budget throttle keeps the slowdown near the N x share bound;
//  (b) equal saturating requests (everyone 56-cycle greedy), where both
//      policies land at ~N -- the paper's "roughly matches the core
//      count" reference point.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <optional>

#include "bench_common.hpp"
#include "bus/arbiter_factory.hpp"
#include "bus/bus.hpp"
#include "core/credit_state.hpp"
#include "platform/scenarios.hpp"
#include "platform/synthetic_master.hpp"
#include "sim/kernel.hpp"
#include "workloads/eembc_like.hpp"

namespace {

using namespace cbus;

class NoSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    CBUS_ASSERT(false);
    return 1;
  }
};

/// TuA finish time with `n_cores-1` greedy 56-cycle contenders.
double run_case(std::uint32_t n_cores, Cycle tua_hold, std::uint32_t tua_gap,
                std::uint32_t contenders, bool with_cba) {
  rng::RandBank bank(0xCA1E);
  NoSlave slave;
  const auto arbiter =
      bus::make_arbiter(bus::ArbiterKind::kRandomPermutation, n_cores, bank);
  bus::NonSplitBus b(bus::BusConfig{n_cores, true}, *arbiter, slave);
  std::unique_ptr<core::CreditState> filter;
  if (with_cba) {
    filter = std::make_unique<core::CreditState>(
        core::CbaConfig::homogeneous(n_cores, 56));
    b.set_filter(filter.get());
  }
  sim::Kernel kernel;
  platform::SyntheticMasterConfig tc;
  tc.id = 0;
  tc.hold = tua_hold;
  tc.requests = 500;
  tc.gap = tua_gap;
  platform::SyntheticMaster tua(tc, b);
  kernel.add(tua);
  std::vector<std::unique_ptr<platform::SyntheticMaster>> cs;
  for (MasterId m = 1; m <= contenders; ++m) {
    platform::SyntheticMasterConfig cc;
    cc.id = m;
    cc.hold = 56;
    cc.requests = 0;
    cc.gap = 0;
    cs.push_back(std::make_unique<platform::SyntheticMaster>(cc, b));
    kernel.add(*cs.back());
  }
  kernel.add(b);
  const bool done =
      kernel.run_until([&]() { return tua.done(); }, 10'000'000);
  CBUS_ASSERT(done);
  return static_cast<double>(tua.finish_cycle());
}

void print_scaling() {
  bench::banner(
      "E7 -- slowdown vs core count (greedy MaxL contenders)",
      "(a) SII-shaped TuA: 5-cycle requests, 4-cycle gaps;\n"
      "(b) equal saturation: TuA = contenders = greedy 56-cycle requests.\n"
      "Random-permutations inner policy; slowdown vs the TuA alone.");

  bench::Table table({"cores N", "(a) request-fair", "(a) CBA",
                      "(b) request-fair", "(b) CBA", "N (paper bound)"});
  for (const std::uint32_t n : {2u, 3u, 4u, 6u, 8u}) {
    const double short_iso = run_case(n, 5, 4, 0, false);
    const double short_rf = run_case(n, 5, 4, n - 1, false) / short_iso;
    const double short_cba = run_case(n, 5, 4, n - 1, true) / short_iso;
    const double sat_iso = run_case(n, 56, 0, 0, false);
    const double sat_rf = run_case(n, 56, 0, n - 1, false) / sat_iso;
    const double sat_cba = run_case(n, 56, 0, n - 1, true) / sat_iso;
    table.add_row({std::to_string(n), bench::fmt(short_rf) + "x",
                   bench::fmt(short_cba) + "x", bench::fmt(sat_rf) + "x",
                   bench::fmt(sat_cba) + "x", bench::fmt(double(n), 0) + "x"});
  }
  table.print();
  std::cout
      << "\n(a): the request-fair column grows with (N-1) x MaxL per\n"
         "request -- 5.6x steeper than the TuA's own requests -- while the\n"
         "CBA column grows with the budget share alone (roughly half the\n"
         "request-fair value at every N). (b): with equal saturating\n"
         "requests both policies sit at ~N, the paper's reference point;\n"
         "CBA adds no penalty there.\n";
}

void BM_ScalingRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_case(n, 5, 4, n - 1, true));
  }
}
BENCHMARK(BM_ScalingRun)->Arg(2)->Arg(4)->Arg(8);

// --- campaign throughput: slice size and threads --------------------------
//
// The multi-seed campaign is THE hot loop of the paper's evaluation
// (1,000 runs per configuration); this measures the slice scheduler. A
// slice runs its runs one machine at a time on the skipping loop, so
// `batch` should cost nothing over {1, 1} at one thread, and threading
// across slices should divide the time. Args are {batch, threads}; {1, 1}
// (one run per slice on one thread) is the reference point. A batched
// row drifting from it means slices picked up per-run overhead or
// stopped skipping.

constexpr std::uint32_t kCampaignRuns = 24;

[[nodiscard]] platform::CampaignSpec campaign_spec(std::uint32_t batch,
                                                   std::uint32_t threads,
                                                   std::uint32_t cores = 0) {
  platform::CampaignSpec spec;
  spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
  spec.config = platform::PlatformConfig::paper_wcet(platform::BusSetup::kCba);
  if (cores != 0) {
    // E7's wider points: the TuA against cores-1 greedy MaxL contenders.
    spec.config.n_cores = cores;
    spec.config.cba = core::CbaConfig::homogeneous(
        cores, spec.config.timings.max_latency());
    spec.config.validate();
  }
  spec.tua_factory = []() { return workloads::make_eembc("canrdr"); };
  spec.runs = kCampaignRuns;
  spec.base_seed = 0xC0FFEE;
  spec.batch = batch;
  spec.threads = threads;
  return spec;
}

void BM_CampaignBatch(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  const platform::CampaignSpec spec = campaign_spec(batch, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform::run_campaign(spec));
  }
  state.SetItemsProcessed(state.iterations() * kCampaignRuns);
}
// UseRealTime: the campaign spawns its own workers, so wall clock is the
// honest throughput measure (thread-CPU time would only see the caller).
BENCHMARK(BM_CampaignBatch)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({24, 1})
    ->Args({8, 4})
    ->Args({8, 8})
    ->UseRealTime();

// The same campaign at E7's widest point (8 cores: the TuA against 7
// greedy MaxL contenders). The per-cycle Table-I work grows with the
// master count while the TuA's own compute does not, so this is the
// credit-bound end of the campaign spectrum, where events are densest.
// Args are {batch, threads}.
void BM_CampaignBatchWide(benchmark::State& state) {
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  const platform::CampaignSpec spec = campaign_spec(batch, threads, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform::run_campaign(spec));
  }
  state.SetItemsProcessed(state.iterations() * kCampaignRuns);
}
BENCHMARK(BM_CampaignBatchWide)
    ->Args({1, 1})
    ->Args({24, 1})
    ->Args({8, 4})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  print_scaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
