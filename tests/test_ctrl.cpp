// ctrl subsystem tests: the controller registry and `controller =` value
// syntax, the Fahmy/Jain water-filling fair share, the epoch-driven
// adaptive feedback loop (demand sampling, rate mixing, deterministic
// integerization), the PhaseShiftedStream workload, and the campaign
// determinism contracts (static byte-identity to pre-controller specs;
// adaptive byte-identity across batch/thread counts, checkpoint resume
// and shard+merge; end-to-end fairness improvement over static on the
// phased workload).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "core/cba_config.hpp"
#include "core/credit_state.hpp"
#include "ctrl/controller.hpp"
#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/phased.hpp"

namespace cbus::ctrl {
namespace {

// --- registry and value syntax ----------------------------------------------

TEST(ControllerRegistry, ListsEveryKindOnce) {
  EXPECT_EQ(all_controller_kinds().size(), 2u);
  EXPECT_EQ(known_controller_list(), "static adaptive");
  EXPECT_EQ(short_name(ControllerKind::kStatic), "static");
  EXPECT_EQ(short_name(ControllerKind::kAdaptive), "adaptive");
}

TEST(ControllerParse, AcceptsTheDocumentedForms) {
  EXPECT_EQ(parse_controller("static").kind, ControllerKind::kStatic);

  const ControllerConfig bare = parse_controller("adaptive");
  EXPECT_TRUE(bare.adaptive());
  EXPECT_EQ(bare.window, 2048u);

  const ControllerConfig windowed = parse_controller("adaptive:4096");
  EXPECT_EQ(windowed.window, 4096u);
  EXPECT_DOUBLE_EQ(windowed.gain, 0.5);

  const ControllerConfig full = parse_controller("adaptive:1024:0.25");
  EXPECT_EQ(full.window, 1024u);
  EXPECT_DOUBLE_EQ(full.gain, 0.25);
}

TEST(ControllerParse, RejectsJunkAndListsTheRegistry) {
  // The unknown-name error enumerates the registered controllers,
  // matching `cbus_sim --list controllers` (the satellite contract).
  try {
    (void)parse_controller("pid");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("static adaptive"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_controller(""), std::invalid_argument);
  EXPECT_THROW((void)parse_controller("static:8"), std::invalid_argument);
  EXPECT_THROW((void)parse_controller("adaptive:8"),
               std::invalid_argument);  // window < 16
  EXPECT_THROW((void)parse_controller("adaptive:1024:0"),
               std::invalid_argument);  // gain out of (0, 1]
  EXPECT_THROW((void)parse_controller("adaptive:1024:1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_controller("adaptive:-16"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_controller("adaptive:1024:0.5:x"),
               std::invalid_argument);
}

TEST(ControllerParse, RoundTripsThroughConfigString) {
  for (const std::string text :
       {"static", "adaptive:2048:0.5", "adaptive:512:0.25"}) {
    EXPECT_EQ(to_config_string(parse_controller(text)), text);
  }
  // The short forms normalise to the explicit rendering.
  EXPECT_EQ(to_config_string(parse_controller("adaptive")),
            "adaptive:2048:0.5");
}

// --- fair_shares water-filling ----------------------------------------------

TEST(FairShares, SplitsEvenlyWhenEveryoneIsGreedy) {
  const std::vector<double> demand{10.0, 10.0, 10.0};
  const auto share = fair_shares(demand, {}, 6.0);
  ASSERT_EQ(share.size(), 3u);
  for (const double s : share) EXPECT_DOUBLE_EQ(s, 2.0);
}

TEST(FairShares, CapsLowDemandersAndWaterFillsTheRest) {
  // Classic max-min: demand {1, 4, 10} over capacity 9 -> {1, 4, 4}.
  const std::vector<double> demand{1.0, 4.0, 10.0};
  const auto share = fair_shares(demand, {}, 9.0);
  EXPECT_DOUBLE_EQ(share[0], 1.0);
  EXPECT_DOUBLE_EQ(share[1], 4.0);
  EXPECT_DOUBLE_EQ(share[2], 4.0);
}

TEST(FairShares, RespectsWeights) {
  // Both greedy, weights 2:1 -> shares 2:1.
  const std::vector<double> demand{100.0, 100.0};
  const std::vector<double> weight{2.0, 1.0};
  const auto share = fair_shares(demand, weight, 6.0);
  EXPECT_DOUBLE_EQ(share[0], 4.0);
  EXPECT_DOUBLE_EQ(share[1], 2.0);
}

TEST(FairShares, NeverExceedsCapacityOrDemand) {
  const std::vector<double> demand{0.5, 3.0, 2.0, 8.0};
  const auto share = fair_shares(demand, {}, 6.0);
  double total = 0.0;
  for (std::size_t m = 0; m < share.size(); ++m) {
    EXPECT_LE(share[m], demand[m] + 1e-12);
    total += share[m];
  }
  EXPECT_NEAR(total, 6.0, 1e-12);  // total demand exceeds capacity
}

TEST(FairShares, UnderloadedSystemCapsEveryoneAtDemand) {
  const std::vector<double> demand{1.0, 2.0};
  const auto share = fair_shares(demand, {}, 10.0);
  EXPECT_DOUBLE_EQ(share[0], 1.0);
  EXPECT_DOUBLE_EQ(share[1], 2.0);
}

// --- CreditState::set_increment ---------------------------------------------

TEST(SetIncrement, RetunesTheRecoveryRate) {
  core::CreditState state(core::CbaConfig::homogeneous(4, 56));
  EXPECT_EQ(state.config().increment[2], 1u);
  state.set_increment(2, 3);
  EXPECT_EQ(state.config().increment[2], 3u);
  // Out of range: master index, zero increment, above scale.
  EXPECT_THROW(state.set_increment(4, 1), std::invalid_argument);
  EXPECT_THROW(state.set_increment(0, 0), std::invalid_argument);
  EXPECT_THROW(state.set_increment(0, state.config().scale + 1),
               std::invalid_argument);
}

// --- the adaptive feedback loop over synthetic demand ------------------------

/// Drive `cycles` ticks, bumping the synthetic per-master busy counters
/// by `busy_per_cycle` each cycle (the controller samples the deltas).
void drive(AdaptiveController& ctrl, bus::BusStatistics& stats, Cycle& now,
           Cycle cycles, const std::vector<Cycle>& busy_per_cycle) {
  for (Cycle c = 0; c < cycles; ++c) {
    for (std::size_t m = 0; m < busy_per_cycle.size(); ++m) {
      stats.master[m].hold_cycles += busy_per_cycle[m];
    }
    ctrl.tick(now++);
  }
}

TEST(AdaptiveController, ConvergesToEqualSharesUnderEqualDemand) {
  // Biased start (the paper's H-CBA: master 0 holds 3 of 6 units) plus
  // equal saturating demand: the explicit-rate loop must level the
  // increments.
  core::CreditState credits(core::CbaConfig::paper_hcba(56));
  bus::BusStatistics stats;
  stats.master.resize(4);

  AdaptiveController ctrl(parse_controller("adaptive:1024"), credits, stats);
  EXPECT_EQ(ctrl.increments(), (std::vector<std::uint64_t>{3, 1, 1, 1}));

  Cycle now = 1;
  drive(ctrl, stats, now, 16 * 1024, {1, 1, 1, 1});
  const auto& stat = ctrl.stats();
  EXPECT_GT(stat.epochs, 0u);
  EXPECT_GT(stat.updates, 0u);
  EXPECT_LT(stat.convergence_cycles, now);
  // 6 units over 4 equal masters cannot split evenly; the rotating
  // largest-remainder integerization keeps every master within one unit
  // of the 1.5-unit fair share and the total pinned at the scale.
  std::uint64_t total = 0;
  for (const std::uint64_t inc : ctrl.increments()) {
    EXPECT_GE(inc, 1u);
    EXPECT_LE(inc, 2u);
    total += inc;
  }
  EXPECT_EQ(total, 6u);
}

TEST(AdaptiveController, ShiftsBudgetTowardTheDemandingMasters) {
  core::CreditState credits(core::CbaConfig::homogeneous(4, 56));
  bus::BusStatistics stats;
  stats.master.resize(4);
  AdaptiveController ctrl(parse_controller("adaptive:1024:1"), credits,
                          stats);

  // Master 2 wants the whole bus, the others are idle: it must end up
  // with every unit the MCR floors leave free.
  Cycle now = 1;
  drive(ctrl, stats, now, 32 * 1024, {0, 0, 1, 0});
  EXPECT_EQ(ctrl.increments(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  // (scale 4 with a 1-unit floor for each of 4 masters leaves nothing to
  // shift; widen the bus to see the actual transfer.)
  core::CbaConfig wide = core::CbaConfig::homogeneous(4, 56);
  wide.scale = 8;
  wide.increment = {2, 2, 2, 2};
  core::CreditState credits8(wide);
  bus::BusStatistics stats8;
  stats8.master.resize(4);
  AdaptiveController ctrl8(parse_controller("adaptive:1024:1"), credits8,
                           stats8);
  now = 1;
  drive(ctrl8, stats8, now, 32 * 1024, {0, 0, 1, 0});
  EXPECT_EQ(ctrl8.increments(), (std::vector<std::uint64_t>{1, 1, 5, 1}));
  EXPECT_EQ(credits8.config().increment[2], 5u);
}

TEST(AdaptiveController, DeadbandFreezesTheRatesAtTheFixedPoint) {
  core::CreditState credits(core::CbaConfig::homogeneous(2, 56));
  bus::BusStatistics stats;
  stats.master.resize(2);
  AdaptiveController ctrl(parse_controller("adaptive:256"), credits, stats);
  Cycle now = 1;
  drive(ctrl, stats, now, 8 * 256, {1, 1});
  const std::uint64_t updates_at_convergence = ctrl.stats().updates;
  drive(ctrl, stats, now, 8 * 256, {1, 1});
  // Same demand, converged rates: the deadband suppresses every further
  // update while epochs keep counting.
  EXPECT_EQ(ctrl.stats().updates, updates_at_convergence);
  EXPECT_GT(ctrl.stats().epochs, updates_at_convergence);
  EXPECT_LT(ctrl.stats().steady_error, 0.2);
}

TEST(AdaptiveController, RequiresRoomForTheMcrFloor) {
  // scale 4 < 5 masters: no way to give every master a 1-unit floor.
  core::CbaConfig cramped = core::CbaConfig::homogeneous(5, 56);
  cramped.scale = 4;
  core::CreditState credits(cramped);
  bus::BusStatistics stats;
  stats.master.resize(5);
  EXPECT_THROW(
      AdaptiveController(parse_controller("adaptive"), credits, stats),
      std::invalid_argument);
  core::CreditState ok(core::CbaConfig::homogeneous(5, 56));
  EXPECT_NO_THROW(
      AdaptiveController(parse_controller("adaptive"), ok, stats));
}

// --- PhaseShiftedStream ------------------------------------------------------

TEST(PhaseShifted, AlternatesActiveAndQuietEveryPeriod) {
  workloads::PhaseShiftedStream stream(/*period=*/4, /*offset=*/0,
                                       /*quiet_gap=*/50);
  std::vector<std::uint32_t> gaps;
  for (int i = 0; i < 12; ++i) gaps.push_back(stream.next()->compute_before);
  EXPECT_EQ(gaps, (std::vector<std::uint32_t>{0, 0, 0, 0, 50, 50, 50, 50, 0,
                                              0, 0, 0}));
}

TEST(PhaseShifted, OffsetShiftsTheWave) {
  workloads::PhaseShiftedStream stream(/*period=*/4, /*offset=*/2,
                                       /*quiet_gap=*/50);
  std::vector<std::uint32_t> gaps;
  for (int i = 0; i < 6; ++i) gaps.push_back(stream.next()->compute_before);
  EXPECT_EQ(gaps, (std::vector<std::uint32_t>{0, 0, 50, 50, 50, 50}));
}

TEST(PhaseShifted, ResetRewindsDeterministically) {
  workloads::PhaseShiftedStream stream(8, 3, 10);
  std::vector<Addr> first;
  for (int i = 0; i < 20; ++i) first.push_back(stream.next()->addr);
  stream.reset(0xDEAD);  // seed is unused by design
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(stream.next()->addr, first[static_cast<std::size_t>(i)]);
  }
}

TEST(PhaseShifted, ParsesAsAWorkloadSpec) {
  const exp::WorkloadSpec spec = exp::parse_workload("phased:768:256:150");
  EXPECT_EQ(spec.kind, exp::WorkloadSpec::Kind::kPhased);
  EXPECT_EQ(spec.period, 768u);
  EXPECT_EQ(spec.offset, 256u);
  EXPECT_EQ(spec.gap, 150u);

  const exp::WorkloadSpec defaults = exp::parse_workload("phased");
  EXPECT_EQ(defaults.period, 512u);
  EXPECT_EQ(defaults.offset, 0u);
  EXPECT_EQ(defaults.gap, 200u);

  EXPECT_THROW((void)exp::parse_workload("phased:0"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_workload("phased:512:0:1:9"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_workload("phased:abc"),
               std::invalid_argument);
}

// --- platform wiring ---------------------------------------------------------

TEST(PlatformWiring, AdaptiveNeedsCbaAndASingleBus) {
  const auto parse_cfg = [](const std::string& text) {
    std::istringstream in(text);
    return platform::parse_config(in);
  };
  EXPECT_THROW((void)parse_cfg("setup = rp\ncontroller = adaptive\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_cfg("setup = cba\ntopology = segmented:2\n"
                               "controller = adaptive\n"),
               std::invalid_argument);
  const platform::PlatformConfig ok =
      parse_cfg("setup = hcba\ncontroller = adaptive:1024\n");
  EXPECT_TRUE(ok.controller.adaptive());
  EXPECT_EQ(ok.controller.window, 1024u);
  // Unknown values surface the registry through the config-file error.
  try {
    (void)parse_cfg("setup = cba\ncontroller = fuzzy\n");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("static adaptive"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlatformWiring, MachineExposesTheConfiguredController) {
  std::istringstream in("setup = hcba\ncontroller = adaptive:1024\n");
  const platform::PlatformConfig cfg = platform::parse_config(in);
  auto tua = workloads::make_eembc("matrix");
  tua->reset(7);
  platform::Multicore machine(cfg, 7, *tua);
  ASSERT_NE(machine.controller(), nullptr);
  EXPECT_EQ(machine.controller()->kind(), ControllerKind::kAdaptive);
  const auto result = machine.run(200'000);
  // The adaptive machine ran epochs and emitted the ctrl.* record keys.
  EXPECT_GT(machine.controller()->stats().epochs, 0u);
  EXPECT_TRUE(result.record.has("ctrl.epochs"));
  EXPECT_TRUE(result.record.has("ctrl.increment"));

  std::istringstream in2("setup = hcba\n");
  const platform::PlatformConfig plain = platform::parse_config(in2);
  tua->reset(7);
  platform::Multicore static_machine(plain, 7, *tua);
  ASSERT_NE(static_machine.controller(), nullptr);
  EXPECT_EQ(static_machine.controller()->kind(), ControllerKind::kStatic);
  EXPECT_FALSE(static_machine.run(200'000).record.has("ctrl.epochs"));
}

// --- campaign determinism ----------------------------------------------------

[[nodiscard]] exp::ExperimentSpec parse_exp(const std::string& text) {
  std::istringstream in(text);
  return exp::parse_experiment(in);
}

[[nodiscard]] std::string csv_of(const exp::ExperimentSpec& spec,
                                 const exp::ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kCsv)->write(spec, result.jobs, out);
  return out.str();
}

[[nodiscard]] std::string json_of(const exp::ExperimentSpec& spec,
                                  const exp::ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kJson)->write(spec, result.jobs, out);
  return out.str();
}

/// The phased-workload campaign used by the determinism matrix: small,
/// adaptive, with ctrl.* and fair.* columns.
constexpr const char* kAdaptiveExp =
    "name = ctrl-det\n"
    "scenario = corun\n"
    "kernel = canrdr\n"
    "core1 = phased:512:128:150\n"
    "core2 = phased:512:256:150\n"
    "setup = hcba\n"
    "cores = 3\n"
    "controller = adaptive:1024\n"
    "runs = 4\n"
    "max_cycles = 150000\n"
    "summary = off\n"
    "metrics = fair.jain_occupancy,ctrl.increment,ctrl.epochs,"
    "ctrl.convergence_cycles\n";

TEST(ControllerDeterminism, StaticKeyIsByteIdenticalToNoKey) {
  // `controller = static` must not perturb a single byte of output
  // relative to a spec that never mentions the key (the pre-PR
  // baseline): the static controller is never registered to tick.
  const std::string base =
      "scenario = corun\nkernel = canrdr\ncore1 = stream:2\n"
      "setup = hcba\ncores = 3\nruns = 4\nsummary = off\nmetrics = all\n";
  const exp::ExperimentSpec plain = parse_exp(base);
  const exp::ExperimentSpec keyed =
      parse_exp(base + "controller = static\n");
  const auto a = exp::run_experiment(plain, 2);
  const auto b = exp::run_experiment(keyed, 2);
  ASSERT_EQ(a.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(plain, a), csv_of(keyed, b));
  EXPECT_EQ(json_of(plain, a), json_of(keyed, b));
}

TEST(ControllerDeterminism, AdaptiveIsByteIdenticalAcrossBatchAndThreads) {
  const exp::ExperimentSpec serial_spec = parse_exp(kAdaptiveExp);
  const auto serial = exp::run_experiment(serial_spec, 1);
  ASSERT_EQ(serial.failed_jobs(), 0u);
  const std::string expected_csv = csv_of(serial_spec, serial);
  const std::string expected_json = json_of(serial_spec, serial);
  EXPECT_NE(expected_csv.find("ctrl.epochs"), std::string::npos);

  for (const std::uint32_t batch : {8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      exp::ExperimentSpec spec = parse_exp(kAdaptiveExp);
      spec.batch = batch;
      const auto result = exp::run_experiment(spec, threads);
      EXPECT_EQ(csv_of(spec, result), expected_csv)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(json_of(spec, result), expected_json)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

/// A scratch file path with any stale leftover removed.
[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// The streaming (checkpointable) variant of the adaptive campaign.
[[nodiscard]] exp::ExperimentSpec streaming_adaptive_spec() {
  exp::ExperimentSpec spec = parse_exp(kAdaptiveExp);
  spec.retain_raw = false;
  spec.batch = 2;
  return spec;
}

TEST(ControllerDeterminism, CheckpointResumesMidEpochCampaign) {
  // Slices stop machines mid-epoch (150k cycles is no multiple of the
  // 1024-cycle window); resume must still reproduce the uninterrupted
  // bytes because controller state is rebuilt per run, not carried.
  const exp::ExperimentSpec spec = streaming_adaptive_spec();
  exp::RunOptions options;
  options.threads_override = 1;
  options.checkpoint_path = temp_path("ctrl-full.ckpt");
  const auto uninterrupted = exp::run_experiment(spec, options);
  ASSERT_EQ(uninterrupted.failed_jobs(), 0u);
  const std::string expected = json_of(spec, uninterrupted);

  const exp::LoadedCheckpoint full =
      exp::load_checkpoint(options.checkpoint_path);
  ASSERT_GE(full.slices.size(), 2u);
  exp::RunOptions resume;
  resume.threads_override = 2;
  resume.checkpoint_path = temp_path("ctrl-partial.ckpt");
  {
    exp::CheckpointWriter writer = exp::CheckpointWriter::create(
        resume.checkpoint_path, exp::make_meta(spec, 0, 1));
    writer.append(full.slices[0]);
  }
  const auto resumed = exp::run_experiment(spec, resume);
  EXPECT_EQ(json_of(spec, resumed), expected);
}

TEST(ControllerDeterminism, ShardsMergeToSingleProcessBytes) {
  const exp::ExperimentSpec spec = streaming_adaptive_spec();
  exp::RunOptions single;
  single.threads_override = 2;
  const std::string expected =
      json_of(spec, exp::run_experiment(spec, single));

  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    exp::RunOptions options;
    options.threads_override = 2;
    options.shard_index = i;
    options.shard_count = 2;
    options.checkpoint_path =
        temp_path("ctrl-shard-" + std::to_string(i) + ".ckpt");
    paths.push_back(options.checkpoint_path);
    const auto shard = exp::run_experiment(spec, options);
    ASSERT_EQ(shard.failed_jobs(), 0u);
  }
  const auto result = exp::fold_checkpoints_streaming(spec, paths);
  EXPECT_EQ(json_of(spec, result), expected);
}

// --- end-to-end fairness -----------------------------------------------------

TEST(AdaptiveEndToEnd, ImprovesFairnessOverStaticOnPhasedLoad) {
  // The acceptance scenario: H-CBA's biased Table-I increments against
  // four phase-shifted equal loads. The adaptive controller must
  // measurably improve Jain/max-min occupancy fairness over static and
  // converge within the run.
  const std::string text =
      "name = ctrl-e2e\n"
      "scenario = corun\n"
      "kernel = matrix\n"
      "core1 = phased:768:256:150\n"
      "core2 = phased:768:512:150\n"
      "core3 = phased:768:640:150\n"
      "setup = hcba\n"
      "cores = 4\n"
      "sweep controller = static adaptive:1024\n"
      "runs = 3\n"
      "max_cycles = 300000\n"
      "summary = off\n"
      "metrics = fair.jain_occupancy,fair.maxmin_occupancy,ctrl.epochs,"
      "ctrl.convergence_cycles\n";
  const exp::ExperimentSpec spec = parse_exp(text);
  const auto result = exp::run_experiment(spec, 2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  ASSERT_EQ(result.jobs.size(), 2u);

  const auto mean_of = [&](std::size_t job, const std::string& key) {
    return result.jobs[job].campaign.aggregate.element_stats(key).mean();
  };
  const double static_jain = mean_of(0, "fair.jain_occupancy");
  const double adaptive_jain = mean_of(1, "fair.jain_occupancy");
  const double static_maxmin = mean_of(0, "fair.maxmin_occupancy");
  const double adaptive_maxmin = mean_of(1, "fair.maxmin_occupancy");

  EXPECT_GT(adaptive_jain, static_jain + 0.005)
      << "static=" << static_jain << " adaptive=" << adaptive_jain;
  EXPECT_LT(adaptive_maxmin, static_maxmin - 0.05)
      << "static=" << static_maxmin << " adaptive=" << adaptive_maxmin;

  // Convergence is bounded: the loop settled well inside the run.
  const double epochs = mean_of(1, "ctrl.epochs");
  const double convergence = mean_of(1, "ctrl.convergence_cycles");
  EXPECT_GT(epochs, 10.0);
  EXPECT_GT(convergence, 0.0);
  EXPECT_LT(convergence, 300'000.0);
}

}  // namespace
}  // namespace cbus::ctrl
