// Unit tests for the metrics subsystem: Record/Value semantics, key
// references, the campaign Aggregator and the standard probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "bus/bus.hpp"
#include "core/credit_state.hpp"
#include "ctrl/controller.hpp"
#include "metrics/aggregator.hpp"
#include "metrics/probes.hpp"
#include "metrics/record.hpp"

namespace cbus::metrics {
namespace {

// --- Value / Record ---------------------------------------------------------

TEST(Record, ScalarAndVectorValues) {
  Record r;
  r.set("a.scalar", 2.5);
  r.set("a.vector", std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(r.has("a.scalar"));
  EXPECT_FALSE(r.has("a.missing"));
  EXPECT_DOUBLE_EQ(r.at("a.scalar").scalar(), 2.5);
  EXPECT_FALSE(r.at("a.scalar").is_vector());
  EXPECT_TRUE(r.at("a.vector").is_vector());
  EXPECT_EQ(r.at("a.vector").size(), 3u);
  EXPECT_DOUBLE_EQ(r.at("a.vector")[1], 2.0);
  // Scalars expose a 1-element span for uniform consumption.
  EXPECT_EQ(r.at("a.scalar").elements().size(), 1u);
  EXPECT_THROW((void)r.at("a.vector").scalar(), std::invalid_argument);
  EXPECT_THROW((void)r.at("a.missing"), std::invalid_argument);
}

TEST(Record, PreservesInsertionOrderAndReplacesInPlace) {
  Record r;
  r.set("z", 1.0);
  r.set("a", 2.0);
  r.set("m", 3.0);
  r.set("z", 9.0);  // replace, keep position
  EXPECT_EQ(r.keys(), (std::vector<std::string>{"z", "a", "m"}));
  EXPECT_DOUBLE_EQ(r.at("z").scalar(), 9.0);
  EXPECT_EQ(r.size(), 3u);
}

TEST(Record, RejectsEmptyKey) {
  Record r;
  EXPECT_THROW(r.set("", 1.0), std::invalid_argument);
}

// --- key references ---------------------------------------------------------

TEST(KeyRef, ParsesBareAndElementForms) {
  EXPECT_EQ(parse_key_ref("tua.cycles"),
            (KeyRef{"tua.cycles", std::nullopt}));
  EXPECT_EQ(parse_key_ref("bus.occupancy_share[2]"),
            (KeyRef{"bus.occupancy_share", 2}));
  EXPECT_EQ(element_key("bus.occupancy_share", 2), "bus.occupancy_share[2]");
}

TEST(KeyRef, RejectsMalformedReferences) {
  EXPECT_THROW((void)parse_key_ref(""), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("x["), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("x[]"), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("x[2"), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("x]2["), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("x[two]"), std::invalid_argument);
  EXPECT_THROW((void)parse_key_ref("[2]"), std::invalid_argument);
}

// --- Aggregator -------------------------------------------------------------

[[nodiscard]] Record run_record(double cycles, double util,
                                std::vector<double> shares) {
  Record r;
  r.set("tua.cycles", cycles);
  r.set("bus.utilization", util);
  r.set("bus.occupancy_share", std::move(shares));
  return r;
}

TEST(Aggregator, FoldsScalarsAndVectors) {
  Aggregator agg{Aggregator::Options{.retain_raw = true}};
  agg.add(run_record(100.0, 0.5, {0.25, 0.75}));
  agg.add(run_record(120.0, 0.7, {0.35, 0.65}));
  EXPECT_EQ(agg.runs(), 2u);
  EXPECT_EQ(agg.keys(),
            (std::vector<std::string>{"tua.cycles", "bus.utilization",
                                      "bus.occupancy_share"}));
  EXPECT_EQ(agg.width("tua.cycles"), 1u);
  EXPECT_EQ(agg.width("bus.occupancy_share"), 2u);
  EXPECT_EQ(agg.width("nope"), 0u);
  EXPECT_DOUBLE_EQ(agg.element_stats("tua.cycles").mean(), 110.0);
  EXPECT_DOUBLE_EQ(agg.element_stats("bus.occupancy_share", 1).mean(), 0.7);
  EXPECT_EQ(agg.element_samples("tua.cycles"),
            (std::vector<double>{100.0, 120.0}));
  EXPECT_EQ(agg.element_samples("bus.occupancy_share", 0),
            (std::vector<double>{0.25, 0.35}));
  EXPECT_FALSE(agg.is_vector("tua.cycles"));
  EXPECT_TRUE(agg.is_vector("bus.occupancy_share"));
}

TEST(Aggregator, RejectsShapeChanges) {
  Aggregator agg;
  agg.add(run_record(100.0, 0.5, {0.25, 0.75}));
  // Width change on a vector key.
  EXPECT_THROW(agg.add(run_record(1.0, 0.5, {0.1, 0.2, 0.7})),
               std::invalid_argument);
  // Missing key.
  Record partial;
  partial.set("tua.cycles", 1.0);
  EXPECT_THROW(agg.add(partial), std::invalid_argument);
  // Same size but different key order/name.
  Record renamed;
  renamed.set("tua.cycles", 1.0);
  renamed.set("bus.wrong", 0.5);
  renamed.set("bus.occupancy_share", std::vector<double>{0.5, 0.5});
  EXPECT_THROW(agg.add(renamed), std::invalid_argument);
}

TEST(Aggregator, StreamsByDefaultAndRefusesRawReads) {
  // The default Aggregator keeps digests only; asking for the per-run
  // series is a contract violation, not an empty vector.
  Aggregator agg;
  agg.add(run_record(100.0, 0.5, {0.25, 0.75}));
  agg.add(run_record(120.0, 0.7, {0.35, 0.65}));
  EXPECT_FALSE(agg.retains_raw());
  EXPECT_DOUBLE_EQ(agg.element_stats("tua.cycles").mean(), 110.0);
  EXPECT_THROW((void)agg.element_samples("tua.cycles"),
               std::invalid_argument);
}

TEST(Aggregator, SummarizeEmitsStatsAndPercentiles) {
  Aggregator agg{Aggregator::Options{.retain_raw = true}};
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    Record r;
    r.set("k", x);
    r.set("v", std::vector<double>{x, 2.0 * x});
    agg.add(r);
  }
  const double percentiles[] = {50.0, 100.0};
  const Record summary = agg.summarize(percentiles);
  EXPECT_DOUBLE_EQ(summary.at("k.mean").scalar(), 2.5);
  EXPECT_DOUBLE_EQ(summary.at("k.min").scalar(), 1.0);
  EXPECT_DOUBLE_EQ(summary.at("k.max").scalar(), 4.0);
  EXPECT_NEAR(summary.at("k.stddev").scalar(), std::sqrt(5.0 / 3.0),
              1e-12);
  EXPECT_DOUBLE_EQ(summary.at("k.p50").scalar(), 2.5);
  EXPECT_DOUBLE_EQ(summary.at("k.p100").scalar(), 4.0);
  // Vector keys summarize element-wise, keeping their shape.
  EXPECT_TRUE(summary.at("v.mean").is_vector());
  EXPECT_DOUBLE_EQ(summary.at("v.mean")[1], 5.0);
  EXPECT_DOUBLE_EQ(summary.at("v.p50")[0], 2.5);

  EXPECT_THROW((void)agg.summarize(std::vector<double>{101.0}),
               std::invalid_argument);
}

// Canonical digest bytes of a streaming aggregator; the property tests
// below compare these for bit-for-bit equality.
[[nodiscard]] std::string digest_bytes(const Aggregator& agg) {
  std::ostringstream out(std::ios::binary);
  agg.serialize(out);
  return out.str();
}

/// A record over every standard catalog key (scalars and 4-wide
/// per-master vectors), with values drawn from a deliberately nasty
/// pool: NaN, +-inf, +-0.0, denormals and magnitudes whose square
/// overflows a double.
[[nodiscard]] Record nasty_catalog_record(std::mt19937_64& rng) {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kNasty[] = {
      std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
      0.0,
      -0.0,
      1e200,   // x*x overflows to inf
      -1e200,
      5e-324,  // smallest denormal
      1.0,
      -3.75,
      123456.789};
  std::uniform_int_distribution<std::size_t> pick(0, std::size(kNasty) - 1);
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  const auto draw = [&]() {
    // Mostly ordinary finite values, with a steady trickle of edge cases.
    return rng() % 4 == 0 ? kNasty[pick(rng)] : uniform(rng);
  };
  Record r;
  for (const MetricInfo& info : metric_catalog()) {
    if (info.per_master) {
      r.set(std::string(info.key),
            std::vector<double>{draw(), draw(), draw(), draw()});
    } else {
      r.set(std::string(info.key), draw());
    }
  }
  return r;
}

TEST(Aggregator, ShardMergeIsOrderInvariantAndAssociative) {
  // The determinism contract behind checkpoints and cbus_merge: folding
  // any partition of a run set in any order gives BIT-identical digest
  // state. 100+ seeded random partitions over every catalog key, with
  // non-finite and overflow-prone values in the mix.
  std::mt19937_64 rng(0xC0FFEE5EEDull);
  std::vector<Record> runs;
  for (int i = 0; i < 64; ++i) runs.push_back(nasty_catalog_record(rng));

  Aggregator reference;
  for (const Record& r : runs) reference.add(r);
  const std::string expected = digest_bytes(reference);

  for (int trial = 0; trial < 120; ++trial) {
    // Partition the runs into 1..5 shards at random...
    std::uniform_int_distribution<std::size_t> pick_shards(1, 5);
    const std::size_t shard_count = pick_shards(rng);
    std::vector<Aggregator> shards(shard_count);
    std::vector<Record> shuffled = runs;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const Record& r : shuffled) {
      shards[rng() % shard_count].add(r);
    }
    // ... and fold the shards back together in random order. Both the
    // partition and the merge order must be invisible in the bytes.
    std::shuffle(shards.begin(), shards.end(), rng);
    Aggregator merged;
    for (const Aggregator& shard : shards) merged.merge(shard);
    ASSERT_EQ(digest_bytes(merged), expected) << "trial " << trial;
    ASSERT_EQ(merged.runs(), runs.size());
  }
}

TEST(Aggregator, SerializeRoundTripsAndRejectsJunk) {
  std::mt19937_64 rng(42);
  Aggregator agg;
  for (int i = 0; i < 8; ++i) agg.add(nasty_catalog_record(rng));
  const std::string bytes = digest_bytes(agg);

  std::istringstream in(bytes);
  const Aggregator back = Aggregator::deserialize(in);
  EXPECT_EQ(digest_bytes(back), bytes);
  EXPECT_EQ(back.runs(), agg.runs());
  EXPECT_EQ(back.keys(), agg.keys());

  std::istringstream junk("not an aggregator digest");
  EXPECT_THROW((void)Aggregator::deserialize(junk), std::invalid_argument);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)Aggregator::deserialize(truncated),
               std::invalid_argument);
}

TEST(Aggregator, MergeRefusesRawAndMismatchedSchemas) {
  Aggregator raw{Aggregator::Options{.retain_raw = true}};
  raw.add(run_record(1.0, 0.5, {0.5, 0.5}));
  Aggregator streaming;
  streaming.add(run_record(2.0, 0.5, {0.5, 0.5}));
  EXPECT_THROW(streaming.merge(raw), std::invalid_argument);

  Aggregator other_schema;
  Record r;
  r.set("different.key", 1.0);
  other_schema.add(r);
  EXPECT_THROW(streaming.merge(other_schema), std::invalid_argument);

  // Merging an empty aggregator into an empty one stays empty; merging
  // content into an empty one adopts the schema.
  Aggregator empty;
  empty.merge(Aggregator{});
  EXPECT_TRUE(empty.empty());
  empty.merge(streaming);
  EXPECT_EQ(digest_bytes(empty), digest_bytes(streaming));
}

TEST(Aggregator, StreamingQuantilesTrackExactOnes) {
  // The sketch's ~0.2% resolution contract, checked against the exact
  // quantile from a raw-retaining twin.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(1.0, 1e4);
  Aggregator stream;
  Aggregator raw{Aggregator::Options{.retain_raw = true}};
  for (int i = 0; i < 2000; ++i) {
    Record r;
    r.set("k", uniform(rng));
    stream.add(r);
    raw.add(r);
  }
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = raw.element_quantile("k", 0, q);
    const double approx = stream.element_quantile("k", 0, q);
    EXPECT_NEAR(approx, exact, std::abs(exact) * 0.005 + 1e-12) << q;
  }
}

TEST(Aggregator, EmptySummarizesToEmptyRecord) {
  const Aggregator agg;
  EXPECT_TRUE(agg.empty());
  EXPECT_TRUE(agg.summarize().empty());
  EXPECT_THROW((void)agg.element_stats("tua.cycles"),
               std::invalid_argument);
}

// --- probes -----------------------------------------------------------------

[[nodiscard]] bus::BusStatistics two_master_stats() {
  bus::BusStatistics stats;
  stats.master.resize(2);
  stats.master[0] = {.requests = 10,
                     .grants = 10,
                     .completions = 10,
                     .wait_cycles = 40,
                     .hold_cycles = 50,
                     .max_wait = 12};
  stats.master[1] = {.requests = 6,
                     .grants = 5,
                     .completions = 5,
                     .wait_cycles = 10,
                     .hold_cycles = 150,
                     .max_wait = 7};
  stats.busy_cycles = 200;
  stats.idle_cycles = 50;
  stats.total_cycles = 250;
  return stats;
}

TEST(Probes, BusProbeMatchesHandComputedShares) {
  const auto stats = two_master_stats();
  Record r;
  probe_bus(stats, r);
  EXPECT_DOUBLE_EQ(r.at("bus.utilization").scalar(), 200.0 / 250.0);
  EXPECT_DOUBLE_EQ(r.at("bus.occupancy_share")[0], 50.0 / 250.0);
  EXPECT_DOUBLE_EQ(r.at("bus.occupancy_share")[1], 150.0 / 250.0);
  EXPECT_DOUBLE_EQ(r.at("bus.grant_share")[0], 10.0 / 15.0);
  EXPECT_DOUBLE_EQ(r.at("bus.grant_share")[1], 5.0 / 15.0);
  EXPECT_DOUBLE_EQ(r.at("bus.requests")[1], 6.0);
  EXPECT_DOUBLE_EQ(r.at("bus.mean_wait")[0], 4.0);
  EXPECT_DOUBLE_EQ(r.at("bus.max_wait")[1], 7.0);
}

TEST(Probes, FairnessProbeMatchesFairnessFunctions) {
  const auto stats = two_master_stats();
  Record r;
  probe_fairness(stats, r);
  // Jain over occupancy {50, 150}: 200^2 / (2 * (2500 + 22500)) = 0.8.
  EXPECT_DOUBLE_EQ(r.at("fair.jain_occupancy").scalar(), 0.8);
  // Jain over grants {10, 5}: 225 / (2 * 125) = 0.9.
  EXPECT_DOUBLE_EQ(r.at("fair.jain_grants").scalar(), 0.9);
  EXPECT_DOUBLE_EQ(r.at("fair.maxmin_occupancy").scalar(), 3.0);
  EXPECT_DOUBLE_EQ(r.at("fair.maxmin_grants").scalar(), 2.0);
}

TEST(Probes, CreditProbeWithAndWithoutFilter) {
  Record none;
  probe_credit(0, {}, none);
  EXPECT_DOUBLE_EQ(none.at("credit.underflows").scalar(), 0.0);
  EXPECT_FALSE(none.has("credit.budget"));

  const std::vector<double> budgets(4, 56.0);
  Record with;
  probe_credit(0, budgets, with);
  EXPECT_DOUBLE_EQ(with.at("credit.underflows").scalar(), 0.0);
  EXPECT_EQ(with.at("credit.budget").size(), 4u);
}

TEST(Probes, CtrlProbeSkipsNull) {
  const auto stats = two_master_stats();
  core::CreditState credits(core::CbaConfig::homogeneous(2, 56));
  Record r;
  // A static machine has no controller: ctrl.* keys appear only for the
  // adaptive one, so static campaigns keep the pre-controller record
  // shape byte-for-byte.
  probe_ctrl(nullptr, r);
  EXPECT_EQ(r.size(), 0u);

  const ctrl::AdaptiveController adaptive(
      ctrl::parse_controller("adaptive:1024"), credits, stats);
  probe_ctrl(&adaptive, r);
  EXPECT_EQ(r.at("ctrl.increment").size(), 2u);
  EXPECT_DOUBLE_EQ(r.at("ctrl.epochs").scalar(), 0.0);
}

TEST(Probes, CatalogCoversProbeKeysWithPerMasterFlags) {
  const auto stats = two_master_stats();
  core::CreditState credits(core::CbaConfig::homogeneous(2, 56));
  const ctrl::AdaptiveController controller(
      ctrl::parse_controller("adaptive:1024"), credits, stats);
  Record r;
  probe_tua(1234, cpu::CoreStats{}, r);
  probe_bus(stats, r);
  probe_fairness(stats, r);
  probe_credit(0, std::vector<double>(2, 56.0), r);
  probe_segments(nullptr, stats, r);
  probe_ctrl(&controller, r);
  // Every emitted key is in the catalog with the right shape...
  for (const auto& [key, value] : r) {
    const MetricInfo* info = find_metric(key);
    ASSERT_NE(info, nullptr) << key;
    EXPECT_EQ(info->per_master, value.is_vector()) << key;
    EXPECT_FALSE(info->description.empty()) << key;
  }
  // ... and with a CBA filter installed the probes cover the whole
  // catalog, so `metrics = all` and --list metrics stay truthful.
  EXPECT_EQ(r.size(), metric_catalog().size());
  EXPECT_EQ(find_metric("no.such.key"), nullptr);
}

}  // namespace
}  // namespace cbus::metrics
