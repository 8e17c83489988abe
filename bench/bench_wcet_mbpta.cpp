// E6 -- SIII-B WCET estimation: CBA's compatibility with MBPTA.
//
// Protocol (paper SIII-B + Table I): collect execution times of the task
// under analysis in WCET-estimation mode -- TuA budget zeroed, contender
// REQ forced, COMP latch, MaxL holds -- over many randomized runs; fit a
// Gumbel tail to block maxima; read pWCET values. Validation: everything
// observed in operation mode (real streaming co-runners) must fall below
// the pWCET curve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/streaming.hpp"

namespace {

using namespace cbus;
using platform::BusSetup;
using platform::CampaignSpec;
using platform::PlatformConfig;

void print_mbpta() {
  constexpr std::uint32_t kBlockSize = 10;
  // mbpta::analyze fits block maxima and its CV and runs tests need four
  // of them, so a smaller CBUS_BENCH_RUNS is raised to that floor.
  const std::uint32_t runs =
      std::max(bench::campaign_runs(150), 4 * kBlockSize);
  bench::banner(
      "SIII-B -- MBPTA pWCET estimation on the CBA bus",
      "Analysis: " + std::to_string(runs) +
          " WCET-mode runs per kernel (paper: 1,000); PWM Gumbel fit on "
          "block maxima\n(block 10). Validation: max over operation-mode "
          "runs against 3 streaming co-runners.");

  bench::Table table({"kernel", "analysis mean", "analysis max",
                      "pWCET@1e-9", "pWCET@1e-12", "op-mode max", "bound",
                      "CV ok", "indep ok"});
  for (const auto kernel : workloads::figure1_kernels()) {
    const CampaignSpec::StreamFactory tua = [kernel = std::string(kernel)]() {
      return workloads::make_eembc(kernel);
    };
    CampaignSpec analysis_spec;
    analysis_spec.protocol = CampaignSpec::Protocol::kMaxContention;
    analysis_spec.config = PlatformConfig::paper_wcet(BusSetup::kCba);
    analysis_spec.tua_factory = tua;
    analysis_spec.runs = runs;
    analysis_spec.base_seed = 0xE57;
    analysis_spec.retain_raw = true;  // mbpta::analyze wants the series

    const auto analysis_runs = platform::run_campaign(analysis_spec);

    mbpta::MbptaConfig mcfg;
    mcfg.block_size = kBlockSize;
    const auto result = mbpta::analyze(analysis_runs.samples(), mcfg);

    CampaignSpec op_spec;
    op_spec.protocol = CampaignSpec::Protocol::kCorun;
    op_spec.config = PlatformConfig::paper(BusSetup::kCba);
    op_spec.tua_factory = tua;
    op_spec.corunner_factories.assign(3, []() {
      return std::make_unique<workloads::StreamingStream>(0);
    });
    op_spec.runs = std::max(10u, runs / 5);
    op_spec.base_seed = 0x0b5;
    const auto op = platform::run_campaign(op_spec);

    const double p9 = result.fit.quantile_exceedance(1e-9);
    const double p12 = result.fit.quantile_exceedance(1e-12);
    table.add_row(
        {std::string(kernel),
         bench::fmt(analysis_runs.exec_time().mean(), 0),
         bench::fmt(analysis_runs.exec_time().max(), 0), bench::fmt(p9, 0),
         bench::fmt(p12, 0), bench::fmt(op.exec_time().max(), 0),
         op.exec_time().max() <= p12 ? "holds" : "VIOLATED",
         result.diagnostics.cv.accepted ? "yes" : "no",
         result.diagnostics.runs.accepted ? "yes" : "no"});
  }
  table.print();
  std::cout
      << "\nThe WCET-estimation protocol (contenders gated by the Table-I "
         "COMP latch,\nTuA starting with zero budget) produces analysis "
         "measurements whose Gumbel\ntail upper-bounds operation-mode "
         "behaviour -- the paper's MBPTA claim.\n";
}

void BM_WcetModeRun(benchmark::State& state) {
  auto tua = workloads::make_eembc("canrdr");
  const PlatformConfig cfg = PlatformConfig::paper_wcet(BusSetup::kCba);
  std::uint64_t seed = 3;
  for (auto _ : state) {
    tua->reset(seed);
    platform::Multicore machine(cfg, seed, *tua);
    benchmark::DoNotOptimize(machine.run().tua_cycles);
    ++seed;
  }
}
BENCHMARK(BM_WcetModeRun);

void BM_GumbelFitPwm(benchmark::State& state) {
  std::vector<double> sample;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sample.push_back(1e6 + static_cast<double>(x % 100'000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbpta::fit_pwm(sample));
  }
}
BENCHMARK(BM_GumbelFitPwm);

}  // namespace

int main(int argc, char** argv) {
  print_mbpta();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
