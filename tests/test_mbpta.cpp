// MBPTA/EVT tests: Gumbel fitting recovers known parameters, quantile
// arithmetic, block maxima, diagnostics behave correctly on synthetic
// distributions with known properties.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mbpta/convergence.hpp"
#include "mbpta/diagnostics.hpp"
#include "mbpta/gumbel.hpp"
#include "mbpta/pwcet.hpp"
#include "rng/distributions.hpp"
#include "rng/xorshift.hpp"

namespace cbus::mbpta {
namespace {

/// Sample a Gumbel(mu, beta) via inverse transform.
std::vector<double> gumbel_sample(double mu, double beta, std::size_t n,
                                  std::uint64_t seed) {
  rng::XorShift64Star g(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng::uniform01(g);
    if (u <= 0.0) u = 1e-12;
    xs.push_back(mu - beta * std::log(-std::log(u)));
  }
  return xs;
}

std::vector<double> exponential_sample(double rate, std::size_t n,
                                       std::uint64_t seed) {
  rng::XorShift64Star g(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(-std::log(1.0 - rng::uniform01(g)) / rate);
  }
  return xs;
}

// --- GumbelFit basics -----------------------------------------------------------

TEST(Gumbel, CdfAtLocationIsExpMinusOne) {
  const GumbelFit fit{10.0, 2.0};
  EXPECT_NEAR(fit.cdf(10.0), std::exp(-1.0), 1e-12);
}

TEST(Gumbel, QuantileInvertsdCdf) {
  const GumbelFit fit{100.0, 7.0};
  for (const double p : {0.5, 0.1, 1e-3, 1e-6}) {
    const double x = fit.quantile_exceedance(p);
    EXPECT_NEAR(fit.cdf(x), 1.0 - p, 1e-9);
  }
}

TEST(Gumbel, QuantileMonotoneInExceedance) {
  const GumbelFit fit{100.0, 7.0};
  EXPECT_LT(fit.quantile_exceedance(1e-3), fit.quantile_exceedance(1e-6));
  EXPECT_LT(fit.quantile_exceedance(1e-6), fit.quantile_exceedance(1e-12));
}

TEST(Gumbel, QuantileRejectsBadP) {
  const GumbelFit fit{0.0, 1.0};
  EXPECT_THROW((void)fit.quantile_exceedance(0.0), std::invalid_argument);
  EXPECT_THROW((void)fit.quantile_exceedance(1.0), std::invalid_argument);
}

// --- estimators recover known parameters -------------------------------------------

TEST(Gumbel, MomentsFitRecoversParameters) {
  const auto xs = gumbel_sample(1000.0, 50.0, 20'000, 17);
  const GumbelFit fit = fit_moments(xs);
  EXPECT_NEAR(fit.location, 1000.0, 5.0);
  EXPECT_NEAR(fit.scale, 50.0, 3.0);
}

TEST(Gumbel, PwmFitRecoversParameters) {
  const auto xs = gumbel_sample(1000.0, 50.0, 20'000, 19);
  const GumbelFit fit = fit_pwm(xs);
  EXPECT_NEAR(fit.location, 1000.0, 5.0);
  EXPECT_NEAR(fit.scale, 50.0, 3.0);
}

TEST(Gumbel, EstimatorsAgreeOnGumbelData) {
  const auto xs = gumbel_sample(500.0, 20.0, 10'000, 23);
  const GumbelFit a = fit_moments(xs);
  const GumbelFit b = fit_pwm(xs);
  EXPECT_NEAR(a.location, b.location, 3.0);
  EXPECT_NEAR(a.scale, b.scale, 2.0);
}

TEST(Gumbel, DegenerateConstantSampleHandled) {
  const std::vector<double> xs(100, 42.0);
  const GumbelFit fit = fit_pwm(xs);
  EXPECT_GT(fit.scale, 0.0);  // clamped, not zero/negative
  EXPECT_NEAR(fit.location, 42.0, 1.0);
}

// --- block maxima -----------------------------------------------------------------

TEST(BlockMaxima, TakesPerBlockMax) {
  const std::vector<double> xs{1, 5, 2, 9, 3, 4, 8, 7};
  const auto maxima = block_maxima(xs, 4);
  ASSERT_EQ(maxima.size(), 2u);
  EXPECT_DOUBLE_EQ(maxima[0], 9.0);
  EXPECT_DOUBLE_EQ(maxima[1], 8.0);
}

TEST(BlockMaxima, DropsTrailingPartialBlock) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_EQ(block_maxima(xs, 2).size(), 2u);
}

TEST(BlockMaxima, BlockOneIsIdentity) {
  const std::vector<double> xs{3, 1, 2};
  const auto maxima = block_maxima(xs, 1);
  EXPECT_EQ(maxima, xs);
}

// --- diagnostics ------------------------------------------------------------------

TEST(Diagnostics, KsSmallForCorrectModel) {
  const auto xs = gumbel_sample(100.0, 10.0, 5000, 29);
  const GumbelFit fit = fit_pwm(xs);
  EXPECT_LT(ks_distance(xs, fit), 0.03);
}

TEST(Diagnostics, KsLargeForWrongModel) {
  const auto xs = gumbel_sample(100.0, 10.0, 5000, 31);
  const GumbelFit wrong{200.0, 1.0};
  EXPECT_GT(ks_distance(xs, wrong), 0.5);
}

TEST(Diagnostics, CvTestAcceptsExponentialTail) {
  const auto xs = exponential_sample(0.1, 20'000, 37);
  const CvTestResult r = cv_test(xs, 0.7);
  EXPECT_NEAR(r.cv, 1.0, 0.05);
  EXPECT_TRUE(r.accepted);
}

TEST(Diagnostics, CvTestRejectsUniformTail) {
  // Uniform excesses have CV 1/sqrt(3) ~ 0.577: clearly rejected.
  rng::XorShift64Star g(41);
  std::vector<double> xs;
  for (int i = 0; i < 20'000; ++i) xs.push_back(rng::uniform01(g));
  const CvTestResult r = cv_test(xs, 0.5);
  EXPECT_LT(r.cv, 0.7);
  EXPECT_FALSE(r.accepted);
}

TEST(Diagnostics, RunsTestAcceptsIid) {
  // A 5% significance test rejects ~1 seed in 20; sample a few seeds and
  // require the typical (majority) outcome to be acceptance.
  int accepted = 0;
  for (const std::uint64_t seed : {43u, 44u, 45u, 46u, 47u}) {
    const auto xs = gumbel_sample(0.0, 1.0, 5000, seed);
    accepted += runs_test(xs).accepted ? 1 : 0;
  }
  EXPECT_GE(accepted, 4);
}

TEST(Diagnostics, RunsTestRejectsTrend) {
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(i);
  const RunsTestResult r = runs_test(xs);
  EXPECT_FALSE(r.accepted);
}

TEST(Diagnostics, RunsTestRejectsAlternation) {
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(i % 2 == 0 ? 0.0 : 10.0);
  const RunsTestResult r = runs_test(xs);
  EXPECT_FALSE(r.accepted);
  EXPECT_GT(r.z, 1.96);  // far more runs than expected
}

// --- end-to-end analyze --------------------------------------------------------------

TEST(Analyze, ProducesMonotoneCurveAboveObservations) {
  const auto xs = gumbel_sample(10'000.0, 200.0, 3000, 47);
  const MbptaResult r = analyze(xs);
  ASSERT_EQ(r.curve.size(), 5u);
  for (std::size_t i = 1; i < r.curve.size(); ++i) {
    EXPECT_GT(r.curve[i].wcet_estimate, r.curve[i - 1].wcet_estimate);
  }
  // pWCET at 1e-12 must comfortably exceed every observation of a sample
  // this size.
  EXPECT_GT(r.curve[3].wcet_estimate, r.observed_max);
  EXPECT_EQ(r.maxima_used, 300u);
}

TEST(Analyze, RequiresEnoughSamples) {
  const std::vector<double> xs(5, 1.0);
  EXPECT_THROW((void)analyze(xs), std::invalid_argument);
}

TEST(Analyze, CustomProbabilities) {
  const auto xs = gumbel_sample(100.0, 5.0, 1000, 53);
  MbptaConfig cfg;
  cfg.probabilities = {1e-2, 1e-4};
  const MbptaResult r = analyze(xs, cfg);
  ASSERT_EQ(r.curve.size(), 2u);
  EXPECT_DOUBLE_EQ(r.curve[0].exceedance_probability, 1e-2);
}

TEST(Analyze, BlockSizeReducesMaxima) {
  const auto xs = gumbel_sample(100.0, 5.0, 1000, 59);
  MbptaConfig cfg;
  cfg.block_size = 20;
  const MbptaResult r = analyze(xs, cfg);
  EXPECT_EQ(r.maxima_used, 50u);
}

// --- tail convergence -----------------------------------------------------------

TEST(Convergence, StationaryGumbelSeriesConverges) {
  // 8192 iid Gumbel samples: prefix refits should agree, the deep-tail
  // estimate should have stopped moving, and the curve's run counts
  // must halve down to the floor and end with the full series.
  const auto xs = gumbel_sample(1000.0, 5.0, 8192, 21);
  const ConvergenceReport report = tail_convergence(xs);
  ASSERT_GE(report.curve.size(), 3u);
  EXPECT_EQ(report.curve.back().runs, xs.size());
  for (std::size_t i = 1; i < report.curve.size(); ++i) {
    EXPECT_LT(report.curve[i - 1].runs, report.curve[i].runs);
  }
  EXPECT_TRUE(report.converged)
      << "scale_cv=" << report.scale_cv
      << " pwcet_drift=" << report.pwcet_drift;
  EXPECT_LT(report.scale_cv, 0.05);
  EXPECT_LT(report.pwcet_drift, 0.02);
  EXPECT_DOUBLE_EQ(report.target_probability, 1e-15);
  // Every prefix pWCET sits above the prefix's own observations region.
  for (const ConvergencePoint& point : report.curve) {
    EXPECT_GT(point.pwcet, 1000.0);
    EXPECT_GT(point.scale, 0.0);
  }
}

TEST(Convergence, DriftingSeriesDoesNotConverge) {
  // A strong trend keeps moving the tail as runs accumulate: the last
  // doubling must still show drift, so converged stays false.
  auto xs = gumbel_sample(1000.0, 5.0, 1024, 33);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] += static_cast<double>(i) * 2.0;
  }
  const ConvergenceReport report = tail_convergence(xs);
  EXPECT_FALSE(report.converged);
  EXPECT_GT(report.pwcet_drift + report.scale_cv, 0.02);
}

TEST(Convergence, ShortSeriesYieldsSinglePointNotConverged) {
  // Just enough for one analyze() but below the halving floor twice:
  // a one-point curve cannot claim convergence.
  const auto xs = gumbel_sample(1000.0, 5.0, 30, 5);
  MbptaConfig config;
  config.block_size = 10;
  const ConvergenceReport report = tail_convergence(xs, config);
  ASSERT_GE(report.curve.size(), 1u);
  EXPECT_EQ(report.curve.back().runs, xs.size());
  EXPECT_FALSE(report.converged);
}

TEST(Convergence, RecordEmitsMbptaKeys) {
  const auto xs = gumbel_sample(500.0, 2.0, 512, 9);
  const ConvergenceReport report = tail_convergence(xs);
  const metrics::Record record = report.record();
  EXPECT_EQ(record.at("mbpta.converged").scalar(),
            report.converged ? 1.0 : 0.0);
  EXPECT_DOUBLE_EQ(record.at("mbpta.scale_cv").scalar(), report.scale_cv);
  EXPECT_DOUBLE_EQ(record.at("mbpta.pwcet_drift").scalar(),
                   report.pwcet_drift);
  EXPECT_DOUBLE_EQ(record.at("mbpta.target_log10p").scalar(), -15.0);
  ASSERT_EQ(record.at("mbpta.curve_runs").size(), report.curve.size());
  ASSERT_EQ(record.at("mbpta.curve_pwcet").size(), report.curve.size());
  for (std::size_t i = 0; i < report.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(record.at("mbpta.curve_runs")[i],
                     static_cast<double>(report.curve[i].runs));
    EXPECT_DOUBLE_EQ(record.at("mbpta.curve_pwcet")[i],
                     report.curve[i].pwcet);
  }
}

}  // namespace
}  // namespace cbus::mbpta
