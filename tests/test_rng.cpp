// Unit + statistical smoke tests for cbus_rng: determinism per seed,
// independence of channels, absence of sampling bias, hardware-generator
// periods.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/mwc.hpp"
#include "rng/permutation.hpp"
#include "rng/rand_bank.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xorshift.hpp"

namespace cbus::rng {
namespace {

// --- determinism -------------------------------------------------------------

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(XorShift32, NeverReturnsZeroState) {
  XorShift32 g(123);
  for (int i = 0; i < 10'000; ++i) EXPECT_NE(g.next(), 0u);
}

TEST(XorShift32, ZeroSeedRemapped) {
  XorShift32 g(0);  // zero state would be a fixed point; must be remapped
  EXPECT_NE(g.next(), 0u);
}

TEST(XorShift64Star, Deterministic) {
  XorShift64Star a(7);
  XorShift64Star b(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());
}

// --- MWC ---------------------------------------------------------------------

TEST(Mwc32, DeterministicAndNonDegenerate) {
  Mwc32 a(99);
  Mwc32 b(99);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    seen.insert(x);
  }
  EXPECT_GT(seen.size(), 990u);  // essentially no repeats in 1000 draws
}

TEST(Mwc32, MeanIsCentered) {
  Mwc32 g(2024);
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += g.next();
  const double mean = sum / kN;
  const double expected = 2147483647.5;  // (2^32-1)/2
  EXPECT_NEAR(mean / expected, 1.0, 0.01);
}

// --- RandBank ----------------------------------------------------------------

TEST(RandBank, ChannelsAreIndependentStreams) {
  RandBank bank(7);
  auto a = bank.open("a");
  auto b = bank.open("b");
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.word() == b.word()) ++equal;
  }
  EXPECT_LT(equal, 5);  // collisions essentially never
}

TEST(RandBank, SameSeedSameChannels) {
  RandBank bank1(123);
  RandBank bank2(123);
  auto a1 = bank1.open("arb");
  auto a2 = bank2.open("arb");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.word(), a2.word());
}

TEST(RandBank, OpenOrderDefinesStream) {
  // Channel identity is positional (derived seeds in order), documenting
  // that consumers must open channels in a fixed order.
  RandBank bank1(5);
  RandBank bank2(5);
  auto first1 = bank1.open("x");
  auto first2 = bank2.open("y");
  EXPECT_EQ(first1.word(), first2.word());
}

TEST(RandBank, CountsWordsDrawn) {
  RandBank bank(1);
  auto c = bank.open("count");
  EXPECT_EQ(c.words_drawn(), 0u);
  (void)c.word();
  (void)c.word();
  EXPECT_EQ(c.words_drawn(), 2u);
}

// --- uniform_below / shuffle ---------------------------------------------------

TEST(UniformBelow, BoundsRespected) {
  XorShift32 g(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(uniform_below(g, 7u), 7u);
  }
}

TEST(UniformBelow, BoundOneAlwaysZero) {
  XorShift32 g(5);
  EXPECT_EQ(uniform_below(g, 1u), 0u);
}

TEST(UniformBelow, RejectsZeroBound) {
  XorShift32 g(5);
  EXPECT_THROW((void)uniform_below(g, 0u), std::invalid_argument);
}

TEST(UniformBelow, NoModuloBias) {
  // Chi-square-ish check over a bound that does not divide 2^32.
  XorShift64Star g(17);
  constexpr std::uint32_t kBound = 6;
  constexpr int kN = 120'000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kN; ++i) ++counts[uniform_below(g, kBound)];
  const double expected = static_cast<double>(kN) / kBound;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(Shuffle, ProducesPermutation) {
  XorShift32 g(11);
  std::vector<std::uint32_t> perm(8);
  random_permutation(g, std::span<std::uint32_t>(perm));
  std::set<std::uint32_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 8u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 7u);
}

TEST(Shuffle, UniformFirstPosition) {
  // Every master should appear in position 0 about n/4 of the time:
  // unbiased Fisher-Yates (biased shuffles skew grant probabilities).
  XorShift64Star g(23);
  constexpr int kN = 40'000;
  std::array<int, 4> first{};
  std::vector<std::uint32_t> perm(4);
  for (int i = 0; i < kN; ++i) {
    random_permutation(g, std::span<std::uint32_t>(perm));
    ++first[perm[0]];
  }
  for (const int c : first) {
    EXPECT_NEAR(c, kN / 4, 5 * std::sqrt(kN / 4.0));
  }
}

// --- distributions ------------------------------------------------------------

TEST(Distributions, UniformInInclusiveBounds) {
  XorShift32 g(3);
  for (int i = 0; i < 10'000; ++i) {
    const auto x = uniform_in(g, 10u, 20u);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 20u);
  }
}

TEST(Distributions, UniformInSingleton) {
  XorShift32 g(3);
  EXPECT_EQ(uniform_in(g, 9u, 9u), 9u);
}

TEST(Distributions, BernoulliFrequency) {
  XorShift64Star g(31);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) hits += bernoulli(g, 256, 1024) ? 1 : 0;
  EXPECT_NEAR(hits, kN / 4, 5 * std::sqrt(kN * 0.25 * 0.75));
}

TEST(Distributions, BernoulliEdges) {
  XorShift32 g(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(g, 0, 1024));
    EXPECT_TRUE(bernoulli(g, 1024, 1024));
  }
}

TEST(Distributions, Uniform01Range) {
  XorShift32 g(77);
  for (int i = 0; i < 10'000; ++i) {
    const double u = uniform01(g);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Distributions, GeometricMeanMatches) {
  // E[failures before success] = (1-p)/p; for p=0.25 that is 3.
  XorShift64Star g(41);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += geometric(g, 0.25);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Distributions, GeometricPOneIsZero) {
  XorShift32 g(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(geometric(g, 1.0), 0u);
}

}  // namespace
}  // namespace cbus::rng
