// cbus::vec kernel semantics and the batch credit engine's identity
// with production campaigns.
//
// Two layers:
//  * kernel units -- every vec entry point checked against an
//    independent re-implementation of the Table-I formula, on random
//    inputs, including the padding lanes (which must come back
//    untouched) and the tail mask of eq_mask_row.
//  * engine batteries -- the lockstep batch credit engine, which
//    campaigns no longer run but perfbench's traced replay still builds,
//    driven directly on stripes of lanes and compared byte for byte with
//    the production campaign path: batch {1,3,8} x threads {1,4}, tail
//    stripes (runs % batch != 0), a stripe wider than kLaneAlign and a
//    wide (8-core) machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/cba_config.hpp"
#include "core/credit_state.hpp"
#include "metrics/aggregator.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"
#include "workloads/eembc_like.hpp"

namespace {

using namespace cbus;

/// Deterministic 64-bit generator for fuzz inputs (tests must not draw
/// from global randomness).
struct Mix {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  /// A value in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// A lane mask honouring the padding contract: bits >= n are zero.
  std::uint64_t mask(std::uint32_t n) {
    return n < 64 ? next() & ((std::uint64_t{1} << n) - 1) : next();
  }
};

/// Independent reference for the Table-I per-lane step (vec.hpp's
/// documented semantics, written the naive way).
std::uint64_t reference_tick(std::uint64_t value, std::uint64_t inc,
                             std::uint64_t charge, std::uint64_t cap,
                             bool* clamped) {
  const std::uint64_t up = value + inc;
  if (up < charge) {
    *clamped = true;
    return 0;
  }
  *clamped = false;
  return std::min(up - charge, cap);
}

constexpr std::size_t kPad = vec::kLaneAlign;

/// A padded row of `n` live lanes plus poison padding whose survival the
/// tests assert (the kernels must never change a padding lane).
struct PaddedRow {
  std::vector<std::uint64_t> data;
  explicit PaddedRow(std::uint32_t n, Mix& mix, std::uint64_t bound) {
    const std::size_t padded = ((n + kPad - 1) / kPad) * kPad;
    data.resize(padded);
    for (std::size_t l = 0; l < padded; ++l) data[l] = mix.below(bound);
  }
};

TEST(VecKernels, CreditTickRowMatchesReference) {
  Mix mix;
  for (const std::uint32_t n : {1u, 3u, 7u, 8u, 9u, 24u, 63u, 64u}) {
    for (int iter = 0; iter < 50; ++iter) {
      const std::uint64_t cap = 1 + mix.below(300);
      const std::uint64_t scale = 1 + mix.below(8);
      PaddedRow values(n, mix, cap + 10);
      PaddedRow incs(n, mix, 4);
      const std::uint64_t charge_mask = mix.mask(n);
      const std::uint64_t update_mask = mix.mask(n);
      const std::vector<std::uint64_t> before = values.data;

      std::vector<std::uint64_t> want = values.data;
      std::uint64_t want_clamp = 0;
      for (std::uint32_t l = 0; l < n; ++l) {
        if (((update_mask >> l) & 1u) == 0) continue;
        bool clamped = false;
        want[l] = reference_tick(before[l], incs.data[l],
                                 ((charge_mask >> l) & 1u) ? scale : 0, cap,
                                 &clamped);
        if (clamped) want_clamp |= std::uint64_t{1} << l;
      }

      const vec::CreditRow row{
          values.data.data(),
          incs.data.data(),
          scale,
          cap,
          charge_mask,
          update_mask,
          n,
      };
      const std::uint64_t got_clamp = vec::credit_tick_row(row);
      EXPECT_EQ(got_clamp, want_clamp) << "n=" << n;
      for (std::size_t l = 0; l < values.data.size(); ++l) {
        EXPECT_EQ(values.data[l], want[l]) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(VecKernels, CreditTickCycleMatchesPerRowCalls) {
  Mix mix;
  // slots > n_masters exercises the widened-arena geometry (the
  // segmented interconnect's extra bridge-port slots share the stride).
  for (const std::uint32_t slots : {2u, 4u, 11u}) {
    for (const std::uint32_t lanes : {1u, 3u, 8u, 24u}) {
      const std::uint32_t stride =
          ((lanes + kPad - 1) / kPad) * kPad;
      const std::uint64_t scale = 1 + mix.below(8);
      std::vector<std::uint64_t> values(slots * stride);
      std::vector<std::uint64_t> incs(slots * stride);
      std::vector<std::uint64_t> caps(slots);
      std::vector<std::uint64_t> charge(slots);
      for (std::uint32_t m = 0; m < slots; ++m) {
        caps[m] = 1 + mix.below(300);
        charge[m] = mix.mask(lanes);
        for (std::uint32_t l = 0; l < stride; ++l) {
          values[m * stride + l] = mix.below(caps[m] + 10);
          incs[m * stride + l] = mix.below(4);
        }
      }
      const std::uint64_t update_mask = mix.mask(lanes);

      std::vector<std::uint64_t> want = values;
      std::vector<std::uint64_t> want_clamped(slots);
      for (std::uint32_t m = 0; m < slots; ++m) {
        const vec::CreditRow row{
            want.data() + m * stride,
            incs.data() + m * stride,
            scale,
            caps[m],
            charge[m],
            update_mask,
            lanes,
        };
        want_clamped[m] = vec::credit_tick_row(row);
      }

      std::vector<std::uint64_t> got = values;
      std::vector<std::uint64_t> got_clamped(slots);
      const vec::CreditCycle cycle{
          got.data(),
          incs.data(),
          caps.data(),
          charge.data(),
          got_clamped.data(),
          scale,
          update_mask,
          stride,
          lanes,
          slots,
      };
      vec::credit_tick_cycle(cycle);
      EXPECT_EQ(got, want) << "slots=" << slots << " lanes=" << lanes;
      EXPECT_EQ(got_clamped, want_clamped)
          << "slots=" << slots << " lanes=" << lanes;
    }
  }
}

TEST(VecKernels, EqMaskRowMasksTailLanes) {
  // Every padding lane holds the target value; bits >= n must stay 0.
  for (const std::uint32_t n : {1u, 3u, 7u, 8u, 12u, 63u}) {
    const std::size_t padded = ((n + kPad - 1) / kPad) * kPad;
    std::vector<std::uint64_t> row(padded, 42);
    const std::uint64_t mask = vec::eq_mask_row(row.data(), 42, n);
    EXPECT_EQ(mask, n < 64 ? (std::uint64_t{1} << n) - 1 : ~std::uint64_t{0})
        << "n=" << n;
  }
}

TEST(VecKernels, SatWordsMatchesEqMaskPerRow) {
  Mix mix;
  const std::uint32_t lanes = 13;
  const std::uint32_t stride = ((lanes + kPad - 1) / kPad) * kPad;
  const std::uint32_t arena_slots = 9;
  std::vector<std::uint64_t> values(arena_slots * stride);
  for (auto& v : values) v = mix.below(5);
  const std::vector<std::uint32_t> slots = {1, 4, 8};
  const std::vector<std::uint64_t> caps = {3, 0, 4};
  std::vector<std::uint64_t> out(slots.size(), ~std::uint64_t{0});

  const vec::SatQuery query{
      values.data(),
      slots.data(),
      caps.data(),
      out.data(),
      stride,
      lanes,
      static_cast<std::uint32_t>(slots.size()),
  };
  vec::sat_words(query);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(out[i], vec::eq_mask_row(values.data() + slots[i] * stride,
                                       caps[i], lanes))
        << "query " << i;
  }
}

// --- engine batteries: lockstep engine vs production, byte for byte ---

/// The max-contention campaign perfbench's con_wcet measures: a real
/// EEMBC-like TuA against greedy MaxL virtual contenders under CBA.
[[nodiscard]] platform::CampaignSpec engine_spec(std::uint32_t runs,
                                                 std::uint32_t batch,
                                                 std::uint32_t threads,
                                                 std::uint32_t cores = 0) {
  platform::CampaignSpec spec;
  spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
  spec.config = platform::PlatformConfig::paper_wcet(platform::BusSetup::kCba);
  if (cores != 0) {
    spec.config.n_cores = cores;
    spec.config.cba = core::CbaConfig::homogeneous(
        cores, spec.config.timings.max_latency());
    spec.config.validate();
  }
  spec.tua_factory = []() { return workloads::make_eembc("canrdr"); };
  spec.runs = runs;
  spec.base_seed = 0xBADC0DE;
  spec.batch = batch;
  spec.threads = threads;
  spec.retain_raw = true;  // the batteries compare per-run bytes
  return spec;
}

/// `spec`'s runs in lockstep stripes of `spec.batch` lanes under
/// core::BatchCreditEngine -- one CreditSoA arena per stripe, machines
/// built with their credit lane and the engine, ticked every cycle by
/// the staged BatchKernel loop -- folded in run order. This is the
/// shape perfbench's traced replay builds; production campaigns run
/// each run through Multicore::run on its own skipping kernel instead.
[[nodiscard]] platform::CampaignResult run_on_engine(
    const platform::CampaignSpec& spec) {
  const platform::PlatformConfig& config = spec.config;
  platform::CampaignResult result;
  result.aggregate =
      metrics::Aggregator(metrics::Aggregator::Options{.retain_raw = true});
  for (std::uint32_t first = 0; first < spec.runs; first += spec.batch) {
    const std::size_t lanes = std::min(spec.batch, spec.runs - first);
    core::CreditSoA credit(lanes, *config.cba, config.credit_slots());
    core::BatchCreditEngine engine(credit, *config.cba, lanes);
    sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
    std::vector<std::unique_ptr<cpu::OpStream>> tuas;
    std::vector<std::unique_ptr<platform::Multicore>> machines;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::uint64_t seed = platform::run_seed(
          spec.base_seed, first + static_cast<std::uint32_t>(lane));
      rng::SplitMix64 stream_seeds(seed);
      tuas.push_back(spec.tua_factory());
      tuas.back()->reset(stream_seeds.next());
      machines.push_back(std::make_unique<platform::Multicore>(
          config, seed, *tuas.back(), std::vector<cpu::OpStream*>{},
          credit.lane(lane), &engine, lane));
      for (sim::Component* component :
           machines.back()->kernel().components()) {
        batch.add(lane, *component);
      }
    }
    batch.set_stage(engine);
    const std::vector<bool> fired = batch.run_until(
        [&](std::size_t lane) { return machines[lane]->tua_done(); },
        spec.max_cycles);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const platform::RunResult run =
          machines[lane]->harvest(fired[lane], batch.now());
      if (!run.tua_finished) {
        ++result.unfinished_runs;
        continue;
      }
      result.aggregate.add(run.record);
    }
  }
  return result;
}

void expect_identical_campaigns(const platform::CampaignResult& a,
                                const platform::CampaignResult& b,
                                const std::string& label) {
  EXPECT_EQ(a.unfinished_runs, b.unfinished_runs) << label;
  ASSERT_EQ(a.samples().size(), b.samples().size()) << label;
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.samples()[i]),
              std::bit_cast<std::uint64_t>(b.samples()[i]))
        << label << " run " << i;
  }
  ASSERT_EQ(a.aggregate.keys(), b.aggregate.keys()) << label;
  for (const std::string& key : a.aggregate.keys()) {
    ASSERT_EQ(a.aggregate.width(key), b.aggregate.width(key)) << label;
    for (std::size_t e = 0; e < a.aggregate.width(key); ++e) {
      const auto& sa = a.aggregate.element_samples(key, e);
      const auto& sb = b.aggregate.element_samples(key, e);
      ASSERT_EQ(sa.size(), sb.size()) << label << ' ' << key;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sa[i]),
                  std::bit_cast<std::uint64_t>(sb[i]))
            << label << ' ' << key << '[' << e << "] run " << i;
      }
    }
  }
}

TEST(EngineParity, BatchThreadMatrixMatchesClassicPath) {
  // runs = 7 leaves a tail stripe for batch 3 (7 % 3 == 1: a one-lane
  // engine) and 8 (7 % 8 == 7: one under-full stripe).
  for (const std::uint32_t batch : {1u, 3u, 8u}) {
    const platform::CampaignResult engine =
        run_on_engine(engine_spec(7, batch, 1));
    ASSERT_EQ(engine.samples().size(), 7u) << "batch=" << batch;
    for (const std::uint32_t threads : {1u, 4u}) {
      const platform::CampaignResult classic =
          platform::run_campaign(engine_spec(7, batch, threads));
      expect_identical_campaigns(
          engine, classic,
          "batch=" + std::to_string(batch) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(EngineParity, WideStripeAboveVectorWidthMatches) {
  // One 12-lane stripe: wider than kLaneAlign, so each row spans two
  // padded blocks and ends in a 4-lane tail.
  expect_identical_campaigns(run_on_engine(engine_spec(12, 12, 1)),
                             platform::run_campaign(engine_spec(12, 12, 1)),
                             "12-lane stripe");
}

TEST(EngineParity, EightCoreMachineMatches) {
  // The credit-bound end of the spectrum (BM_CampaignBatchWide's shape):
  // 7 greedy contender banks, 8 Table-I slots per lane.
  expect_identical_campaigns(run_on_engine(engine_spec(6, 6, 1, 8)),
                             platform::run_campaign(engine_spec(6, 6, 1, 8)),
                             "8-core machine");
}

}  // namespace
