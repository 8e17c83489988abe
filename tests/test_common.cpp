// Unit tests for cbus_common: vocabulary types, contracts, rational
// rates.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/contracts.hpp"
#include "common/rational_rate.hpp"
#include "common/types.hpp"

namespace cbus {
namespace {

// --- contracts -------------------------------------------------------------

TEST(Contracts, ExpectsThrowsInvalidArgument) {
  EXPECT_THROW(CBUS_EXPECTS(false), std::invalid_argument);
  EXPECT_NO_THROW(CBUS_EXPECTS(true));
}

TEST(Contracts, ExpectsMsgCarriesMessage) {
  try {
    CBUS_EXPECTS_MSG(false, "the reason");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
  }
}

TEST(Contracts, AssertThrowsLogicError) {
  EXPECT_THROW(CBUS_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(CBUS_ASSERT(true));
}

// --- enum printers ----------------------------------------------------------

TEST(Types, MemOpKindNames) {
  EXPECT_EQ(to_string(MemOpKind::kLoad), "load");
  EXPECT_EQ(to_string(MemOpKind::kStore), "store");
  EXPECT_EQ(to_string(MemOpKind::kAtomic), "atomic");
}

TEST(Types, AccessOutcomeNames) {
  EXPECT_EQ(to_string(AccessOutcome::kHit), "hit");
  EXPECT_EQ(to_string(AccessOutcome::kMissClean), "miss-clean");
  EXPECT_EQ(to_string(AccessOutcome::kMissDirty), "miss-dirty");
  EXPECT_EQ(to_string(AccessOutcome::kUncached), "uncached");
}

TEST(Types, PlatformModeNames) {
  EXPECT_EQ(to_string(PlatformMode::kOperation), "operation");
  EXPECT_EQ(to_string(PlatformMode::kWcetEstimation), "wcet-estimation");
}

// --- RationalRate ------------------------------------------------------------

TEST(RationalRate, ReducesToLowestTerms) {
  const RationalRate r(2, 8);
  EXPECT_EQ(r.num(), 1u);
  EXPECT_EQ(r.den(), 4u);
}

TEST(RationalRate, ZeroNumeratorIsZero) {
  const RationalRate r(0, 7);
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.den(), 1u);  // reduced
}

TEST(RationalRate, RejectsZeroDenominator) {
  EXPECT_THROW(RationalRate(1, 0), std::invalid_argument);
}

TEST(RationalRate, AsDouble) {
  EXPECT_DOUBLE_EQ(RationalRate(1, 4).as_double(), 0.25);
  EXPECT_DOUBLE_EQ(RationalRate(1, 2).as_double(), 0.5);
}

TEST(RationalRate, EqualityAfterReduction) {
  EXPECT_EQ(RationalRate(2, 4), RationalRate(1, 2));
  EXPECT_NE(RationalRate(1, 2), RationalRate(1, 3));
}

TEST(RationalRate, CommonScaleIsLcmOfDenominators) {
  const RationalRate rates[] = {{1, 2}, {1, 6}, {1, 6}, {1, 6}};
  EXPECT_EQ(common_scale(rates), 6u);
}

TEST(RationalRate, CommonScaleHomogeneous) {
  const RationalRate rates[] = {{1, 4}, {1, 4}, {1, 4}, {1, 4}};
  EXPECT_EQ(common_scale(rates), 4u);
}

TEST(RationalRate, ScaledIncrementsPaperHcba) {
  // The paper's H-CBA: TuA recovers 1/2, others 1/6 -> units of 1/6 cycle:
  // increments {3, 1, 1, 1} and 6 units charged per occupied cycle.
  const RationalRate rates[] = {{1, 2}, {1, 6}, {1, 6}, {1, 6}};
  const auto inc = scaled_increments(rates);
  ASSERT_EQ(inc.size(), 4u);
  EXPECT_EQ(inc[0], 3u);
  EXPECT_EQ(inc[1], 1u);
  EXPECT_EQ(inc[2], 1u);
  EXPECT_EQ(inc[3], 1u);
}

TEST(RationalRate, ScaledIncrementsMixedDenominators) {
  const RationalRate rates[] = {{1, 3}, {1, 4}};
  const auto inc = scaled_increments(rates);  // scale 12
  EXPECT_EQ(inc[0], 4u);
  EXPECT_EQ(inc[1], 3u);
}

}  // namespace
}  // namespace cbus
