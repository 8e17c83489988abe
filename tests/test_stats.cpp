// Unit tests for cbus_stats: Welford statistics, quantiles, histograms,
// fairness indices.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/exact_sum.hpp"
#include "stats/fairness.hpp"
#include "stats/log_histogram.hpp"
#include "stats/summary.hpp"

namespace cbus::stats {
namespace {

// --- OnlineStats ---------------------------------------------------------------

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesConcatenation) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats whole;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    (i % 2 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(OnlineStats, Ci95ShrinksWithN) {
  OnlineStats small;
  OnlineStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(OnlineStats, CoefficientOfVariation) {
  OnlineStats s;
  s.add(1.0);
  s.add(3.0);
  // mean 2, sd sqrt(2): cv = 0.7071...
  EXPECT_NEAR(s.cv(), std::sqrt(2.0) / 2.0, 1e-12);
}

// --- quantile -------------------------------------------------------------------

TEST(Quantile, MedianOfOddSample) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
}

TEST(Quantile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, RejectsEmptyAndBadQ) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(v, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(v, 1.1), std::invalid_argument);
}

// --- autocorrelation -------------------------------------------------------------

TEST(Autocorrelation, IidNoiseNearZero) {
  std::vector<double> v;
  std::uint64_t state = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    v.push_back(static_cast<double>(state % 1000));
  }
  EXPECT_NEAR(autocorrelation(v, 1), 0.0, 0.05);
}

TEST(Autocorrelation, AlternatingSequenceNegative) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_LT(autocorrelation(v, 1), -0.9);
}

TEST(Autocorrelation, TrendPositive) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_GT(autocorrelation(v, 1), 0.9);
}

// --- fairness --------------------------------------------------------------------

TEST(Fairness, JainEqualSharesIsOne) {
  const std::vector<double> shares{0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(jain_index(shares), 1.0);
}

TEST(Fairness, JainSingleHogIsOneOverN) {
  const std::vector<double> shares{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(shares), 0.25);
}

TEST(Fairness, JainPaperExample) {
  // The paper's §I example: 5-cycle vs 45-cycle alternating requests give
  // 10% vs 90% of bandwidth -> Jain = (1)^2 / (2 * (0.01 + 0.81)) = 0.6097...
  const std::vector<double> shares{0.1, 0.9};
  EXPECT_NEAR(jain_index(shares), 1.0 / (2 * 0.82), 1e-12);
}

TEST(Fairness, JainEmptyAndZeros) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(Fairness, JainGoldenValues) {
  // n masters, one holding everything -> 1/n; k of n equal -> k/n.
  const std::vector<double> hog3{7.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(hog3), 1.0 / 3.0);
  const std::vector<double> two_of_four{3.0, 3.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(two_of_four), 0.5);
  // Scale invariance: indices depend on proportions only.
  const std::vector<double> scaled{10.0, 90.0};
  const std::vector<double> shares{0.1, 0.9};
  EXPECT_DOUBLE_EQ(jain_index(scaled), jain_index(shares));
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{42.0}), 1.0);
}

TEST(Fairness, JainRejectsNegativeShares) {
  const std::vector<double> bad{0.5, -0.1};
  EXPECT_THROW((void)jain_index(bad), std::invalid_argument);
}

TEST(Fairness, MaxMinRatio) {
  const std::vector<double> shares{0.1, 0.4};
  EXPECT_DOUBLE_EQ(max_min_ratio(shares), 4.0);
  const std::vector<double> equal{0.5, 0.5};
  EXPECT_DOUBLE_EQ(max_min_ratio(equal), 1.0);
}

TEST(Fairness, MaxMinRatioDegenerateSpansAreVacuouslyFair) {
  // Empty, single-element and all-zero spans: nobody is being treated
  // unfairly relative to anybody else.
  EXPECT_DOUBLE_EQ(max_min_ratio({}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{5.0}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio(std::vector<double>{0.0}), 1.0);
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(max_min_ratio(zeros), 1.0);
}

TEST(Fairness, MaxMinRatioInfinityContract) {
  // A starved master alongside a served one is infinitely unfair --
  // regardless of where the zero sits or how many zeros there are.
  const std::vector<double> starved{0.0, 0.4};
  EXPECT_TRUE(std::isinf(max_min_ratio(starved)));
  const std::vector<double> tail_zero{0.4, 0.2, 0.0};
  EXPECT_TRUE(std::isinf(max_min_ratio(tail_zero)));
  EXPECT_GT(max_min_ratio(tail_zero), 0.0);  // +infinity, not -infinity
}

TEST(Fairness, MaxMinRatioRejectsNegativeShares) {
  const std::vector<double> bad{-1.0, 2.0};
  EXPECT_THROW((void)max_min_ratio(bad), std::invalid_argument);
  const std::vector<double> single_bad{-1.0};
  EXPECT_THROW((void)max_min_ratio(single_bad), std::invalid_argument);
}

// --- ExactSum ---------------------------------------------------------------

[[nodiscard]] std::uint64_t bits_of(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

TEST(ExactSum, SumsExactlyWhereNaiveAdditionRounds) {
  // 1 + 2^-60 repeated: naive left-to-right addition loses every tiny
  // addend; the superaccumulator keeps all of them.
  ExactSum sum;
  sum.add(1.0);
  const double tiny = std::ldexp(1.0, -60);
  for (int i = 0; i < 1 << 12; ++i) sum.add(tiny);
  const double expected = 1.0 + std::ldexp(1.0, -48);  // 2^12 * 2^-60
  EXPECT_EQ(bits_of(sum.to_double()), bits_of(expected));
}

TEST(ExactSum, OrderAndPartitionInvariantToTheLastBit) {
  // The property the whole campaign determinism story leans on: any
  // ordering and any partition of the addends gives identical limbs.
  const std::vector<double> values{1e308,  -1e308, 3.5,     5e-324,
                                   -2.25,  1e30,   -1e-30,  0.25,
                                   -0.0,   1e155,  -1e155,  7.125};
  ExactSum forward;
  for (const double v : values) forward.add(v);
  ExactSum backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.add(*it);
  }
  EXPECT_EQ(forward, backward);

  ExactSum odd, even;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 != 0 ? odd : even).add(values[i]);
  }
  even.merge(odd);
  EXPECT_EQ(even, forward);
  EXPECT_EQ(bits_of(even.to_double()), bits_of(forward.to_double()));
}

TEST(ExactSum, CancellationIsExact) {
  ExactSum sum;
  sum.add(1e308);
  sum.add(3.0);
  sum.add(-1e308);
  EXPECT_EQ(bits_of(sum.to_double()), bits_of(3.0));

  ExactSum zero;
  zero.add(0.1);
  zero.add(-0.1);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(bits_of(zero.to_double()), bits_of(0.0));  // +0, not -0
}

TEST(ExactSum, OverflowPastDoubleRangeRoundsToInfinity) {
  ExactSum sum;
  const double huge = std::numeric_limits<double>::max();
  sum.add(huge);
  sum.add(huge);
  EXPECT_TRUE(std::isinf(sum.to_double()));
  EXPECT_GT(sum.to_double(), 0.0);
  sum.add(-huge);
  EXPECT_EQ(bits_of(sum.to_double()), bits_of(huge));
}

TEST(ExactSum, RoundsToNearestEven) {
  // 1 + 2^-53 is exactly half-way between 1 and the next double: ties
  // go to even (stay at 1). Adding one more ulp of the tail breaks the
  // tie upward.
  ExactSum half_way;
  half_way.add(1.0);
  half_way.add(std::ldexp(1.0, -53));
  EXPECT_EQ(bits_of(half_way.to_double()), bits_of(1.0));

  ExactSum above;
  above.add(1.0);
  above.add(std::ldexp(1.0, -53));
  above.add(std::ldexp(1.0, -80));  // sticky bit
  EXPECT_EQ(bits_of(above.to_double()),
            bits_of(1.0 + std::ldexp(1.0, -52)));
}

TEST(ExactSum, LimbsRoundTrip) {
  ExactSum sum;
  sum.add(-123.456);
  sum.add(5e-324);
  const ExactSum back = ExactSum::from_limbs(sum.limbs());
  EXPECT_EQ(back, sum);
  EXPECT_EQ(bits_of(back.to_double()), bits_of(sum.to_double()));
}

// --- LogHistogram -----------------------------------------------------------

TEST(LogHistogram, MergeIsExactAndOrderFree) {
  std::vector<double> values;
  for (int i = 1; i <= 500; ++i) values.push_back(i * 0.37);
  LogHistogram whole;
  for (const double v : values) whole.add(v);
  LogHistogram a, b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : b).add(values[i]);
  }
  b.merge(a);
  EXPECT_EQ(b, whole);
  EXPECT_EQ(b.count(), 500u);
}

TEST(LogHistogram, QuantileWithinRelativeResolution) {
  LogHistogram sketch;
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) {
    values.push_back(static_cast<double>(i));
    sketch.add(static_cast<double>(i));
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = quantile(values, q);
    // Error budget: half a bucket (~0.2% relative) plus one sample
    // spacing (the sketch does not interpolate between ranks).
    EXPECT_NEAR(sketch.quantile(q), exact, exact * 0.005 + 1.0) << q;
  }
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0),
                   LogHistogram::representative(
                       LogHistogram::bucket_key(1.0)));
}

TEST(LogHistogram, BucketKeysOrderLikeValues) {
  const std::vector<double> ascending{-1e6, -2.5,  -1e-5, 0.0,
                                      1e-9, 0.125, 3.7,   1e20};
  for (std::size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(LogHistogram::bucket_key(ascending[i - 1]),
              LogHistogram::bucket_key(ascending[i]))
        << ascending[i];
  }
  // Signed zero shares the zero bucket; representatives invert keys.
  EXPECT_EQ(LogHistogram::bucket_key(-0.0), LogHistogram::bucket_key(0.0));
  EXPECT_DOUBLE_EQ(LogHistogram::representative(0), 0.0);
  const std::int64_t key = LogHistogram::bucket_key(1234.5);
  EXPECT_NEAR(LogHistogram::representative(key), 1234.5, 1234.5 * 0.003);
  EXPECT_NEAR(LogHistogram::representative(-key), -1234.5, 1234.5 * 0.003);
}

TEST(LogHistogram, FromBucketsValidates) {
  LogHistogram sketch;
  sketch.add(1.0);
  sketch.add(2.0);
  const auto buckets = sketch.buckets();
  const LogHistogram back = LogHistogram::from_buckets(
      std::vector<LogHistogram::Bucket>(buckets.begin(), buckets.end()));
  EXPECT_EQ(back, sketch);

  EXPECT_THROW((void)LogHistogram::from_buckets(
                   {{.key = 5, .count = 1}, {.key = 5, .count = 1}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)LogHistogram::from_buckets({{.key = 2, .count = 0}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cbus::stats
