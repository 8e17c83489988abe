// Observability-cost microbenches: what the demand probe and the timeline
// tracer cost, pinned by the CI bench gate so instrumentation overhead
// cannot silently creep into the simulation hot path.
//
// The registered benchmarks are bench-gate entries (tools/bench_compare.py
// vs bench/baselines.json):
//   BM_DemandWindowRecord  -- one sliding-window demand update;
//   BM_ObsRunBare          -- a 4-core H-CBA contention run, no tracer;
//   BM_ObsRunTraced        -- the same run with a Timeline attached PLUS
//                             a bare re-run asserting bit-identical
//                             results (the no-perturbation contract,
//                             enforced where the overhead is measured);
//                             its time therefore covers ~2 runs + capture.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "obs/demand_window.hpp"
#include "obs/timeline.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "workloads/eembc_like.hpp"

namespace {

using namespace cbus;
using platform::BusSetup;
using platform::PlatformConfig;

void BM_DemandWindowRecord(benchmark::State& state) {
  obs::DemandWindow window(4, /*window=*/4096, /*buckets=*/16);
  Cycle now = 0;
  for (auto _ : state) {
    window.record(static_cast<MasterId>(now & 3), now);
    ++now;
  }
  benchmark::DoNotOptimize(window.demand(0, now));
}
BENCHMARK(BM_DemandWindowRecord);

[[nodiscard]] Cycle one_run(std::uint64_t seed, bool traced) {
  static auto tua = workloads::make_eembc("matrix");
  const PlatformConfig cfg = PlatformConfig::paper_wcet(BusSetup::kHcba);
  tua->reset(seed);
  platform::Multicore machine(cfg, seed, *tua);
  obs::Timeline timeline;
  if (traced) timeline.attach(machine);
  return machine.run().tua_cycles;
}

void BM_ObsRunBare(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_run(seed, /*traced=*/false));
    ++seed;
  }
}
BENCHMARK(BM_ObsRunBare);

void BM_ObsRunTraced(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Cycle traced = one_run(seed, /*traced=*/true);
    const Cycle bare = one_run(seed, /*traced=*/false);
    if (traced != bare) {
      std::cerr << "FATAL: tracer perturbed the simulation (seed " << seed
                << ": " << traced << " vs " << bare << " cycles)\n";
      std::abort();
    }
    benchmark::DoNotOptimize(traced);
    ++seed;
  }
}
BENCHMARK(BM_ObsRunTraced);

}  // namespace

BENCHMARK_MAIN();
