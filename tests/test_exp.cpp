// Experiment subsystem tests: format parsing (good and bad inputs),
// sweep expansion, thread-count-invariant determinism and golden sink
// output.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "metrics/probes.hpp"
#include "metrics/record.hpp"

namespace cbus::exp {
namespace {

[[nodiscard]] ExperimentSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_experiment(in);
}

/// Expect parse_experiment to throw with both fragments in the message.
void expect_parse_error(const std::string& text, const std::string& frag_a,
                        const std::string& frag_b = "") {
  try {
    (void)parse(text);
    FAIL() << "should have thrown for: " << text;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(frag_a), std::string::npos) << what;
    if (!frag_b.empty()) {
      EXPECT_NE(what.find(frag_b), std::string::npos) << what;
    }
  }
}

// --- format parsing ---------------------------------------------------------

TEST(ExperimentFormat, ParsesFullExample) {
  const ExperimentSpec spec = parse(
      "# a comment\n"
      "name = my-study\n"
      "scenario = corun\n"
      "kernel = tblook\n"
      "core1 = stream\n"
      "core2 = stream:4\n"
      "core3 = matrix\n"
      "sweep arbiter = rr tdma rp\n"
      "sweep cores = 2 4\n"
      "setup = hcba\n"
      "runs = 12\n"
      "seed = 0xBEEF\n"
      "max_cycles = 1000000\n"
      "pwcet = on\n"
      "summary = off\n"
      "threads = 3\n"
      "csv = out.csv\n"
      "json = -\n");
  EXPECT_EQ(spec.name, "my-study");
  EXPECT_EQ(spec.scenario, "corun");
  EXPECT_EQ(spec.kernel, "tblook");
  ASSERT_EQ(spec.corunners.size(), 3u);
  EXPECT_EQ(spec.corunners.at(1).kind, WorkloadSpec::Kind::kStream);
  EXPECT_EQ(spec.corunners.at(1).gap, 0u);
  EXPECT_EQ(spec.corunners.at(2).gap, 4u);
  EXPECT_EQ(spec.corunners.at(3).kind, WorkloadSpec::Kind::kKernel);
  EXPECT_EQ(spec.corunners.at(3).kernel, "matrix");
  ASSERT_EQ(spec.sweeps.size(), 2u);
  EXPECT_EQ(spec.sweeps[0].key, "arbiter");
  EXPECT_EQ(spec.sweeps[0].values,
            (std::vector<std::string>{"rr", "tdma", "rp"}));
  EXPECT_EQ(spec.sweeps[1].key, "cores");
  EXPECT_EQ(spec.runs, 12u);
  EXPECT_EQ(spec.seed, 0xBEEFu);
  EXPECT_EQ(spec.max_cycles, 1'000'000u);
  EXPECT_TRUE(spec.pwcet);
  EXPECT_FALSE(spec.summary);
  EXPECT_EQ(spec.threads, 3u);
  EXPECT_EQ(spec.csv_path, "out.csv");
  EXPECT_EQ(spec.json_path, "-");
  ASSERT_EQ(spec.platform_keys.size(), 1u);
  EXPECT_EQ(spec.platform_keys[0].first, "setup");
  EXPECT_EQ(spec.platform_keys[0].second, "hcba");
}

TEST(ExperimentFormat, Core0IsTheKernelAlias) {
  const ExperimentSpec spec = parse("core0 = cacheb\n");
  EXPECT_EQ(spec.kernel, "cacheb");
  EXPECT_TRUE(spec.corunners.empty());
}

TEST(ExperimentFormat, PlatformKeyLastWriteWins) {
  const ExperimentSpec spec = parse("cores = 2\ncores = 8\n");
  ASSERT_EQ(spec.platform_keys.size(), 1u);
  EXPECT_EQ(spec.platform_keys[0].second, "8");
}

TEST(ExperimentFormat, RejectsUnknownKeyWithLineNumber) {
  expect_parse_error("runs = 3\nbogus = 1\n", "line 2", "bogus");
}

TEST(ExperimentFormat, ParsesBatchKey) {
  EXPECT_EQ(parse("").batch, 1u);  // default: one machine at a time
  EXPECT_EQ(parse("batch = 16\n").batch, 16u);
}

TEST(ExperimentFormat, RejectsBadValues) {
  expect_parse_error("runs = zero\n", "bad number", "runs");
  expect_parse_error("runs = 0\n", "runs must be positive");
  expect_parse_error("batch = 0\n", "batch must be positive");
  expect_parse_error("batch = x\n", "bad number", "batch");
  expect_parse_error("runs = -3\n", "bad number");
  expect_parse_error("runs = 3x\n", "trailing characters");
  expect_parse_error("seed = 99999999999999999999999\n", "out of range");
  // uint32 fields must reject (not truncate) values above 2^32-1:
  // runs = 2^32+1 would otherwise silently become 1.
  expect_parse_error("runs = 4294967297\n", "out of range");
  expect_parse_error("threads = 4294967296\n", "out of range");
  expect_parse_error("core1 = stream:4294967297\n", "bad stream gap",
                     "line 1");
  expect_parse_error("pwcet = maybe\n", "on/off");
  expect_parse_error("kernel = bogus\n", "unknown kernel", "known:");
  expect_parse_error("scenario = chaos\n", "unknown scenario");
  expect_parse_error("core1 = warp\n", "unknown workload");
  expect_parse_error("core0 = stream\n", "must be a kernel");
  expect_parse_error("core99 = stream\n", "core index out of range");
  expect_parse_error("runs 3\n", "expected 'key = value'");
}

TEST(ExperimentFormat, RejectsBadSweeps) {
  expect_parse_error("sweep runs = 1 2\n", "not sweepable");
  expect_parse_error("sweep kernel = matrix\nsweep kernel = tblook\n",
                     "duplicate sweep axis");
  expect_parse_error("sweep kernel = matrix warp\n", "unknown kernel");
  expect_parse_error("sweep scenario = iso chaos\n", "unknown scenario");
}

TEST(ExperimentFormat, ParseWorkloadVariants) {
  EXPECT_EQ(parse_workload("idle").kind, WorkloadSpec::Kind::kIdle);
  EXPECT_EQ(parse_workload("stream").gap, 0u);
  EXPECT_EQ(parse_workload("stream:7").gap, 7u);
  EXPECT_EQ(parse_workload("rspeed").kernel, "rspeed");
  EXPECT_THROW((void)parse_workload("stream:x"), std::invalid_argument);
  EXPECT_THROW((void)parse_workload(""), std::invalid_argument);
}

TEST(ExperimentFormat, MissingFileThrows) {
  EXPECT_THROW((void)load_experiment("/nonexistent/x.exp"),
               std::invalid_argument);
}

// --- metrics directive ------------------------------------------------------

TEST(MetricsDirective, ParsesListAndAll) {
  const ExperimentSpec spec = parse(
      "metrics = fair.jain_occupancy,fair.jain_grants "
      "bus.occupancy_share[2]\n");
  EXPECT_EQ(spec.metrics,
            (std::vector<std::string>{"fair.jain_occupancy",
                                      "fair.jain_grants",
                                      "bus.occupancy_share[2]"}));

  const ExperimentSpec all = parse("metrics = all\n");
  EXPECT_EQ(all.metrics.size(), metrics::metric_catalog().size());
  EXPECT_EQ(all.metrics.front(), "tua.cycles");
}

TEST(MetricsDirective, RejectsBadSelections) {
  expect_parse_error("metrics = fair.bogus\n", "unknown metric",
                     "--list metrics");
  expect_parse_error("metrics = tua.cycles[1]\n", "scalar metric");
  expect_parse_error("metrics = bus.occupancy_share[x]\n",
                     "bad element index");
  expect_parse_error("metrics = bus.occupancy_share[2\n", "malformed");
  // The line number names the offending directive.
  expect_parse_error("runs = 3\nmetrics = nope\n", "line 2");
}

TEST(MetricsDirective, ParseMetricSelectionIsReusable) {
  // The CLI --metrics flag shares this helper.
  EXPECT_EQ(parse_metric_selection("tua.cycles, bus.utilization"),
            (std::vector<std::string>{"tua.cycles", "bus.utilization"}));
  EXPECT_THROW((void)parse_metric_selection(""), std::invalid_argument);
}

// --- sweep expansion --------------------------------------------------------

TEST(SweepExpansion, CartesianProductLastAxisFastest) {
  const ExperimentSpec spec = parse(
      "sweep kernel = matrix tblook\n"
      "sweep setup = rp cba hcba\n"
      "scenario = iso\n");
  const std::vector<Job> jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].kernel, "matrix");
  EXPECT_EQ(jobs[0].axes[1].second, "rp");
  EXPECT_EQ(jobs[1].axes[1].second, "cba");   // setup (last axis) fastest
  EXPECT_EQ(jobs[2].axes[1].second, "hcba");
  EXPECT_EQ(jobs[3].kernel, "tblook");
  EXPECT_EQ(jobs[3].axes[1].second, "rp");
  // Axis overrides reached the platform config.
  EXPECT_FALSE(jobs[0].config.cba.has_value());
  EXPECT_TRUE(jobs[1].config.cba.has_value());
}

TEST(SweepExpansion, NoSweepsMakesOneJob) {
  const ExperimentSpec spec = parse("scenario = iso\n");
  EXPECT_EQ(expand(spec).size(), 1u);
}

TEST(SweepExpansion, PerJobSeedsAreDistinctAndStable) {
  const ExperimentSpec spec = parse("sweep setup = rp cba hcba\n");
  const auto a = expand(spec);
  const auto b = expand(spec);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NE(a[0].seed, a[1].seed);
  EXPECT_NE(a[1].seed, a[2].seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(SweepExpansion, ConScenarioImpliesWcetMode) {
  const ExperimentSpec spec = parse("scenario = con\nsetup = cba\n");
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.mode, PlatformMode::kWcetEstimation);
}

TEST(SweepExpansion, CorunRejectsAssignmentBeyondCoreCount) {
  const ExperimentSpec bad = parse(
      "scenario = corun\ncores = 2\ncore3 = stream\nkernel = canrdr\n");
  try {
    (void)expand(bad);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("core3"), std::string::npos)
        << e.what();
  }
  // Under a cores sweep, the bound is the largest sweep point: core3
  // runs in the cores=4 jobs, so dropping it at cores=2 is by design...
  const ExperimentSpec swept = parse(
      "scenario = corun\nsweep cores = 2 4\ncore3 = stream\n"
      "kernel = canrdr\n");
  EXPECT_EQ(expand(swept).size(), 2u);
  // ... but an assignment above EVERY sweep point would never run.
  const ExperimentSpec never = parse(
      "scenario = corun\nsweep cores = 2 4\ncore7 = stream\n"
      "kernel = canrdr\n");
  EXPECT_THROW((void)expand(never), std::invalid_argument);
}

TEST(SweepExpansion, ConScenarioRejectsDeclaredOperationMode) {
  // The conflict is caught in any layer, including a base config text
  // (the --config file route).
  ExperimentSpec with_text = parse("scenario = con\n");
  with_text.platform_text = "mode = operation\n";
  EXPECT_THROW((void)expand(with_text), std::invalid_argument);
  // `con` implies wcet mode; a declared operation mode is a conflict the
  // user must resolve, not something to silently override.
  const ExperimentSpec plain = parse("scenario = con\nmode = operation\n");
  EXPECT_THROW((void)expand(plain), std::invalid_argument);
  const ExperimentSpec swept =
      parse("scenario = con\nsweep mode = operation wcet\n");
  EXPECT_THROW((void)expand(swept), std::invalid_argument);
  const ExperimentSpec ok = parse("scenario = con\nmode = wcet\n");
  EXPECT_EQ(expand(ok).size(), 1u);
}

TEST(SweepExpansion, InvalidCombinationNamesTheSweepPoint) {
  const ExperimentSpec spec =
      parse("setup = hcba\nsweep cores = 4 1\nscenario = iso\n");
  try {
    (void)expand(spec);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("cores=1"), std::string::npos) << what;
  }
}

// --- execution determinism --------------------------------------------------

[[nodiscard]] std::string csv_of(const ExperimentSpec& spec,
                                 const ExperimentResult& result) {
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, result.jobs, out);
  return out.str();
}

TEST(Runner, SplitBusWcetCampaignBytesArePinned) {
  // Captured from the machine that ticked one component per Table-I
  // contender. The split bus never calls on_latch, so a contender's
  // pending request ends at its grant there; the bytes pin that path
  // under RP (always compete) and CBA/H-CBA (COMP latch).
  const ExperimentSpec spec = parse(
      "name = split-wcet-golden\n"
      "kernel = canrdr\n"
      "scenario = con\n"
      "bus = split\n"
      "sweep setup = rp cba hcba\n"
      "cores = 4\n"
      "runs = 2\n"
      "metrics = tua.cycles,bus.requests,bus.grant_share,bus.max_wait,"
      "credit.budget\n");
  const char* golden_csv =
      "job,kernel,scenario,setup,seed,run,cycles,tua.cycles,"
      "bus.requests[0],bus.requests[1],bus.requests[2],bus.requests[3],"
      "bus.grant_share[0],bus.grant_share[1],bus.grant_share[2],"
      "bus.grant_share[3],bus.max_wait[0],bus.max_wait[1],bus.max_wait[2],"
      "bus.max_wait[3],credit.budget[0],credit.budget[1],credit.budget[2],"
      "credit.budget[3]\n"
      "0,canrdr,con,rp,14592251008053203194,0,415681,415681,1983,27050,"
      "27051,27051,0.023853343437624047,0.3253822188541253,"
      "0.3253822188541253,0.3253822188541253,20,30,30,30,,,,\n"
      "0,canrdr,con,rp,14592251008053203194,1,415796,415796,1862,27099,"
      "27098,27099,0.02239164942998701,0.32586945019000435,"
      "0.32586945019000435,0.32586945019000435,19,30,30,30,,,,\n"
      "1,canrdr,con,cba,17069869281103512697,0,419589,419589,1968,1976,"
      "1976,1976,0.24924012158054712,0.2502532928064843,"
      "0.2502532928064843,0.2502532928064843,224,12,16,16,56,56,56,56\n"
      "1,canrdr,con,cba,17069869281103512697,1,417500,417500,1985,1992,"
      "1992,1992,0.2493405351086547,0.2502198216304484,0.2502198216304484,"
      "0.2502198216304484,207,16,16,14,56,56,56,56\n"
      "2,canrdr,con,hcba,9781417775987323851,0,417575,417575,1953,1817,"
      "1817,1817,0.2637763371150729,0.24540788762830903,"
      "0.24540788762830903,0.24540788762830903,90,22,21,20,56,56,56,56\n"
      "2,canrdr,con,hcba,9781417775987323851,1,418087,418087,1975,1808,"
      "1808,1808,0.26692796323827545,0.2443573455872415,"
      "0.2443573455872415,0.2443573455872415,95,22,21,20,54,54.5,"
      "53.666666666666664,52.833333333333336\n";
  const ExperimentResult result = run_experiment(spec, /*threads=*/2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, result), golden_csv);
}

TEST(Runner, SameCsvAtOneAndFourThreads) {
  const ExperimentSpec spec = parse(
      "scenario = con\n"
      "kernel = canrdr\n"
      "sweep setup = rp cba hcba\n"
      "cores = 2\n"
      "runs = 3\n");
  const auto serial = run_experiment(spec, /*threads=*/1);
  const auto parallel = run_experiment(spec, /*threads=*/4);
  ASSERT_EQ(serial.jobs.size(), 3u);
  EXPECT_EQ(serial.failed_jobs(), 0u);
  const std::string a = csv_of(spec, serial);
  EXPECT_EQ(a, csv_of(spec, parallel));
  EXPECT_NE(a.find("canrdr"), std::string::npos);
}

TEST(Runner, BatchedExecutionIsByteIdenticalToSerial) {
  // The tentpole determinism contract: the same experiment must produce
  // byte-identical CSV and JSON for every (batch, threads) combination,
  // including `metrics = all` (every probe key, per-master vectors and
  // the maxmin infinity contract included).
  const std::string text =
      "scenario = con\n"
      "kernel = canrdr\n"
      "sweep setup = rp cba\n"
      "cores = 2\n"
      "runs = 5\n"
      "metrics = all\n";
  const ExperimentSpec serial_spec = parse(text);
  const auto serial = run_experiment(serial_spec, /*threads=*/1);
  EXPECT_EQ(serial.failed_jobs(), 0u);
  std::ostringstream serial_csv, serial_json;
  make_sink(SinkKind::kCsv)->write(serial_spec, serial.jobs, serial_csv);
  make_sink(SinkKind::kJson)->write(serial_spec, serial.jobs, serial_json);

  for (const std::uint32_t batch : {2u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      ExperimentSpec spec = parse(text);
      spec.batch = batch;
      const auto batched = run_experiment(spec, threads);
      std::ostringstream csv, json;
      make_sink(SinkKind::kCsv)->write(spec, batched.jobs, csv);
      make_sink(SinkKind::kJson)->write(spec, batched.jobs, json);
      EXPECT_EQ(csv.str(), serial_csv.str())
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(json.str(), serial_json.str())
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(Runner, BatchedCorunMatchesSerial) {
  // Co-runner factories (streams and idle fillers) through the batched
  // path: a batch of 4 replicas must reproduce the one-at-a-time CSV.
  const std::string text =
      "scenario = corun\n"
      "kernel = canrdr\n"
      "core1 = stream:2\n"
      "core3 = stream\n"
      "setup = cba\n"
      "runs = 3\n"
      "metrics = bus.occupancy_share,credit.underflows\n";
  const ExperimentSpec spec = parse(text);
  const auto serial = run_experiment(spec, 1);
  ExperimentSpec batched_spec = parse(text);
  batched_spec.batch = 4;
  const auto batched = run_experiment(batched_spec, 2);
  ASSERT_EQ(serial.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, serial), csv_of(batched_spec, batched));
}

TEST(Runner, BatchSlicesShareThePoolAcrossJobs) {
  // One job, many runs: slices of the single job must occupy all
  // workers (the pre-batch runner clamped threads to the job count,
  // which made this spec single-threaded); output stays identical.
  ExperimentSpec spec = parse(
      "scenario = iso\nkernel = canrdr\ncores = 2\nruns = 8\n");
  spec.batch = 2;
  const auto wide = run_experiment(spec, 4);
  const auto narrow = run_experiment(spec, 1);
  ASSERT_EQ(wide.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, wide), csv_of(spec, narrow));
  EXPECT_EQ(wide.jobs[0].campaign.exec_time().count(), 8u);
}

TEST(Runner, FailedJobStaysAJobFailureUnderBatching) {
  // Every slice of job 1 throws: its kernel is swapped, after parsing,
  // for a name make_eembc rejects. run_experiment must still return,
  // report the same error for that job at any batch and thread count,
  // and leave job 0's rows exactly as a clean one-job run writes them.
  const ExperimentSpec clean = parse(
      "scenario = iso\nsweep kernel = canrdr\ncores = 2\nruns = 5\n");
  const std::string clean_csv = csv_of(clean, run_experiment(clean, 1u));

  std::string first_error;
  for (const std::uint32_t batch : {1u, 3u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      ExperimentSpec spec = parse(
          "scenario = iso\nsweep kernel = canrdr tblook\ncores = 2\n"
          "runs = 5\n");
      spec.sweeps[0].values[1] = "no-such-kernel";
      spec.batch = batch;
      const ExperimentResult result = run_experiment(spec, threads);
      ASSERT_EQ(result.jobs.size(), 2u);
      EXPECT_FALSE(result.jobs[0].failed());
      ASSERT_TRUE(result.jobs[1].failed());
      if (first_error.empty()) first_error = result.jobs[1].error;
      EXPECT_EQ(result.jobs[1].error, first_error)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(csv_of(spec, result), clean_csv)
          << "batch=" << batch << " threads=" << threads;
    }
  }
  EXPECT_NE(first_error.find("no-such-kernel"), std::string::npos)
      << first_error;
}

TEST(Runner, CorunAssignsCorunnersAndIdleGaps) {
  // core2 unassigned between core1 and core3: it must idle, not shift
  // core3's workload down a master.
  const ExperimentSpec spec = parse(
      "scenario = corun\n"
      "kernel = canrdr\n"
      "core1 = stream\n"
      "core3 = stream\n"
      "runs = 2\n");
  const auto result = run_experiment(spec, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(result.jobs[0].campaign.exec_time().count(), 2u);
}

TEST(Runner, PwcetProducesCurve) {
  const ExperimentSpec spec = parse(
      "scenario = iso\n"
      "kernel = canrdr\n"
      "cores = 2\n"
      "runs = 30\n"
      "pwcet = on\n");
  const auto result = run_experiment(spec, 2);
  ASSERT_EQ(result.jobs.size(), 1u);
  ASSERT_TRUE(result.jobs[0].mbpta.has_value()) << result.jobs[0].mbpta_error;
  EXPECT_FALSE(result.jobs[0].mbpta->curve.empty());
}

TEST(Runner, TooFewPwcetRunsReportAFixedMessage) {
  // Block size 2 below 60 runs: 3 runs fail the sample count, 6 runs give
  // three block maxima where the diagnostics need four. Both report the
  // same message in the summary and in the JSON, with no file path.
  const std::string expected =
      "pwcet needs at least 8 runs (four block maxima of 2 runs each)";
  for (const int runs : {3, 6}) {
    ExperimentSpec spec = parse(
        "scenario = con\n"
        "kernel = canrdr\n"
        "runs = " + std::to_string(runs) + "\n"
        "pwcet = on\n");
    const auto result = run_experiment(spec, 1);
    ASSERT_EQ(result.jobs.size(), 1u);
    const JobResult& job = result.jobs[0];
    EXPECT_FALSE(job.mbpta.has_value());
    EXPECT_EQ(job.mbpta_error,
              expected + ", got " + std::to_string(runs));
    EXPECT_EQ(job.mbpta_error.find('/'), std::string::npos);
    std::ostringstream summary, json;
    make_sink(SinkKind::kSummary)->write(spec, result.jobs, summary);
    make_sink(SinkKind::kJson)->write(spec, result.jobs, json);
    EXPECT_NE(summary.str().find("pwcet=n/a (" + job.mbpta_error + ")"),
              std::string::npos)
        << summary.str();
    EXPECT_NE(json.str().find("\"pwcet_error\": \"" + job.mbpta_error + "\""),
              std::string::npos)
        << json.str();
  }
}

// --- golden sink output -----------------------------------------------------

/// A hand-built two-job result set with exactly known numbers. Job 0's
/// per-run records carry the TuA time, the bus utilisation and a
/// per-master occupancy vector plus a fairness scalar, exactly as the
/// standard probes would emit them.
[[nodiscard]] std::vector<JobResult> golden_results() {
  std::vector<JobResult> results(2);
  results[0].index = 0;
  results[0].axes = {{"setup", "rp"}};
  results[0].kernel = "matrix";
  results[0].scenario = "con";
  results[0].seed = 42;
  results[0].campaign.aggregate = metrics::Aggregator(
      metrics::Aggregator::Options{.retain_raw = true});
  for (const double x : {100.0, 110.0, 120.0}) {
    metrics::Record record;
    record.set("tua.cycles", x);
    record.set("bus.utilization", 0.5);
    record.set("bus.occupancy_share",
               std::vector<double>{0.25, 0.5, 0.125});
    // 0.25 / 0.5 / 0.75: exact in binary, so the aggregated mean (0.5)
    // and stddev (0.25) are exact too and safe to golden-test.
    record.set("fair.jain_occupancy", (x - 100.0) / 40.0 + 0.25);
    results[0].campaign.aggregate.add(record);
  }
  results[1].index = 1;
  results[1].axes = {{"setup", "cba"}};
  results[1].kernel = "matrix";
  results[1].scenario = "con";
  results[1].seed = 43;
  results[1].error = "boom";
  return results;
}

[[nodiscard]] ExperimentSpec golden_spec() {
  ExperimentSpec spec = parse("name = golden\nsweep setup = rp cba\n");
  spec.runs = 3;
  spec.seed = 7;
  return spec;
}

TEST(Sinks, CsvGolden) {
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(golden_spec(), golden_results(), out);
  EXPECT_EQ(out.str(),
            "job,kernel,scenario,setup,seed,run,cycles\n"
            "0,matrix,con,rp,42,0,100\n"
            "0,matrix,con,rp,42,1,110\n"
            "0,matrix,con,rp,42,2,120\n");  // failed job 1 has no rows
}

TEST(Sinks, JsonGolden) {
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(golden_spec(), golden_results(), out);
  const std::string expected =
      "{\n"
      "  \"experiment\": \"golden\",\n"
      "  \"runs_per_job\": 3,\n"
      "  \"base_seed\": 7,\n"
      "  \"jobs\": [\n"
      "    {\n"
      "      \"job\": 0,\n"
      "      \"kernel\": \"matrix\",\n"
      "      \"scenario\": \"con\",\n"
      "      \"axes\": {\"setup\": \"rp\"},\n"
      "      \"seed\": 42,\n"
      "      \"mean\": 110,\n"
      "      \"min\": 100,\n"
      "      \"max\": 120,\n"
      "      \"ci95\": 11.316065276116667,\n"
      "      \"bus_util\": 0.5,\n"
      "      \"unfinished\": 0,\n"
      "      \"credit_underflows\": 0,\n"
      "      \"samples\": [100, 110, 120]\n"
      "    },\n"
      "    {\n"
      "      \"job\": 1,\n"
      "      \"kernel\": \"matrix\",\n"
      "      \"scenario\": \"con\",\n"
      "      \"axes\": {\"setup\": \"cba\"},\n"
      "      \"seed\": 43,\n"
      "      \"error\": \"boom\"\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Sinks, SummaryReportsFailures) {
  std::ostringstream out;
  make_sink(SinkKind::kSummary)->write(golden_spec(), golden_results(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("1 FAILED"), std::string::npos) << text;
  EXPECT_NE(text.find("ERROR: boom"), std::string::npos) << text;
  EXPECT_NE(text.find("mean=110"), std::string::npos) << text;
}

TEST(Sinks, PwcetColumnsAppearWhenEnabled) {
  ExperimentSpec spec = golden_spec();
  spec.pwcet = true;
  auto results = golden_results();
  results[0].mbpta.emplace();
  results[0].mbpta->fit.location = 118.0;
  results[0].mbpta->fit.scale = 2.0;
  results[0].mbpta->curve = {{1e-9, 159.4}, {1e-12, 173.2}};
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, results, out);
  EXPECT_EQ(out.str(),
            "job,kernel,scenario,setup,seed,run,cycles,"
            "gumbel_location,gumbel_scale,pwcet_1e-9,pwcet_1e-12\n"
            "0,matrix,con,rp,42,0,100,118,2,159.4,173.2\n"
            "0,matrix,con,rp,42,1,110,118,2,159.4,173.2\n"
            "0,matrix,con,rp,42,2,120,118,2,159.4,173.2\n");
}

TEST(Sinks, CsvMetricColumnsGolden) {
  // A bare per-master key expands to one column per element; scalars get
  // one column; per-run values land on the matching rows.
  ExperimentSpec spec = golden_spec();
  spec.metrics = {"fair.jain_occupancy", "bus.occupancy_share"};
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, golden_results(), out);
  EXPECT_EQ(out.str(),
            "job,kernel,scenario,setup,seed,run,cycles,"
            "fair.jain_occupancy,bus.occupancy_share[0],"
            "bus.occupancy_share[1],bus.occupancy_share[2]\n"
            "0,matrix,con,rp,42,0,100,0.25,0.25,0.5,0.125\n"
            "0,matrix,con,rp,42,1,110,0.5,0.25,0.5,0.125\n"
            "0,matrix,con,rp,42,2,120,0.75,0.25,0.5,0.125\n");
}

TEST(Sinks, CsvPadsNarrowJobsWithEmptyCells) {
  // Heterogeneous sweeps (a `cores` axis) give jobs different per-master
  // widths. Bare per-master keys expand to the WIDEST job's width; the
  // narrower job must render explicitly empty cells for the elements it
  // never had -- never stale or garbage values -- and an explicit
  // out-of-range element reference must pad every row of that job.
  ExperimentSpec spec = golden_spec();
  spec.metrics = {"bus.occupancy_share", "bus.occupancy_share[3]"};
  std::vector<JobResult> results(2);
  results[0].index = 0;
  results[0].axes = {{"setup", "rp"}};
  results[0].kernel = "matrix";
  results[0].scenario = "con";
  results[0].seed = 42;
  results[0].campaign.aggregate = metrics::Aggregator(
      metrics::Aggregator::Options{.retain_raw = true});
  for (const double x : {100.0, 110.0}) {
    metrics::Record record;
    record.set("tua.cycles", x);
    record.set("bus.occupancy_share", std::vector<double>{0.5, 0.25});
    results[0].campaign.aggregate.add(record);
  }
  results[1].index = 1;
  results[1].axes = {{"setup", "cba"}};
  results[1].kernel = "matrix";
  results[1].scenario = "con";
  results[1].seed = 43;
  results[1].campaign.aggregate = metrics::Aggregator(
      metrics::Aggregator::Options{.retain_raw = true});
  {
    metrics::Record record;
    record.set("tua.cycles", 200.0);
    record.set("bus.occupancy_share",
               std::vector<double>{0.125, 0.25, 0.0625, 0.5});
    results[1].campaign.aggregate.add(record);
  }
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, results, out);
  EXPECT_EQ(out.str(),
            "job,kernel,scenario,setup,seed,run,cycles,"
            "bus.occupancy_share[0],bus.occupancy_share[1],"
            "bus.occupancy_share[2],bus.occupancy_share[3],"
            "bus.occupancy_share[3]\n"
            "0,matrix,con,rp,42,0,100,0.5,0.25,,,\n"
            "0,matrix,con,rp,42,1,110,0.5,0.25,,,\n"
            "1,matrix,con,cba,43,0,200,0.125,0.25,0.0625,0.5,0.5\n");
}

TEST(Sinks, CsvPadsHeterogeneousCoresSweepEndToEnd) {
  // The same contract through a real `cores` sweep: every row has the
  // header's column count, and the narrow job's high-master cells are
  // empty while the wide job's are not.
  ExperimentSpec spec = parse(
      "scenario = con\n"
      "kernel = canrdr\n"
      "sweep cores = 2 4\n"
      "runs = 2\n"
      "metrics = bus.occupancy_share\n");
  spec.batch = 2;
  const auto result = run_experiment(spec, 1);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const std::string csv = csv_of(spec, result);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  const auto width = commas(line);
  EXPECT_NE(line.find("bus.occupancy_share[3]"), std::string::npos);
  std::size_t narrow_rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(commas(line), width) << line;
    if (line.rfind("0,", 0) == 0) {
      // cores=2 job: elements [2] and [3] never existed -> empty cells.
      EXPECT_EQ(line.substr(line.size() - 2), ",,") << line;
      ++narrow_rows;
    } else {
      EXPECT_NE(line.substr(line.size() - 2), ",,") << line;
    }
  }
  EXPECT_EQ(narrow_rows, 2u);
}

TEST(Sinks, CsvMetricElementSelection) {
  ExperimentSpec spec = golden_spec();
  spec.metrics = {"bus.occupancy_share[1]"};
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, golden_results(), out);
  EXPECT_EQ(out.str(),
            "job,kernel,scenario,setup,seed,run,cycles,"
            "bus.occupancy_share[1]\n"
            "0,matrix,con,rp,42,0,100,0.5\n"
            "0,matrix,con,rp,42,1,110,0.5\n"
            "0,matrix,con,rp,42,2,120,0.5\n");
}

TEST(Sinks, JsonMetricsSection) {
  ExperimentSpec spec = golden_spec();
  spec.metrics = {"fair.jain_occupancy", "bus.occupancy_share[2]"};
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(spec, golden_results(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"fair.jain_occupancy\": {\"mean\": 0.5, "
                      "\"min\": 0.25, \"max\": 0.75, \"stddev\": 0.25}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"bus.occupancy_share[2]\": {\"mean\": 0.125, "
                      "\"min\": 0.125, \"max\": 0.125, \"stddev\": 0}"),
            std::string::npos)
      << text;
  // The failed job carries no metrics object.
  EXPECT_EQ(text.find("\"metrics\""), text.rfind("\"metrics\""));
}

TEST(Sinks, NonFiniteMetricValuesRenderAsJsonNull) {
  // fair.maxmin_* is +infinity by contract when a master is starved
  // (e.g. isolation runs with idle masters); JSON has no inf/nan
  // literals, so those stats must render as null, and the aggregate of
  // an all-inf series (a NaN mean) must too.
  ExperimentSpec spec = golden_spec();
  spec.metrics = {"fair.maxmin_grants"};
  auto results = golden_results();
  results[1].error.clear();
  results[1].campaign.aggregate = metrics::Aggregator(
      metrics::Aggregator::Options{.retain_raw = true});
  for (const double x : {50.0, 60.0}) {
    metrics::Record record;
    record.set("tua.cycles", x);
    record.set("fair.maxmin_grants",
               std::numeric_limits<double>::infinity());
    results[1].campaign.aggregate.add(record);
  }
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(spec, results, out);
  EXPECT_NE(out.str().find("\"fair.maxmin_grants\": {\"mean\": null, "
                           "\"min\": null, \"max\": null, "
                           "\"stddev\": null}"),
            std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("inf"), std::string::npos) << out.str();
}

TEST(Sinks, IsolationWithAllMetricsProducesParseableJson) {
  // End to end: `metrics = all` under isolation hits the maxmin
  // infinity contract on the three idle masters; every JSON number must
  // stay finite or null (no bare inf/nan tokens).
  const ExperimentSpec spec = parse(
      "scenario = iso\nkernel = canrdr\nruns = 2\nmetrics = all\n");
  const auto result = run_experiment(spec, 1);
  ASSERT_EQ(result.failed_jobs(), 0u);
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(spec, result.jobs, out);
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
  EXPECT_NE(out.str().find("\"fair.maxmin_grants\": {\"mean\": null"),
            std::string::npos)
      << out.str();
}

// --- fairness metrics end to end --------------------------------------------

TEST(MetricsPipeline, RrVsCbaOccupancyFairnessGap) {
  // The paper's central claim, reproduced through the whole pipeline:
  // round-robin equalises request counts, so grant fairness is high while
  // occupancy fairness collapses (short TuA requests vs long streaming
  // transfers); CBA equalises occupancy cycles instead.
  const ExperimentSpec spec = parse(
      "name = fairgap\n"
      "scenario = corun\n"
      "kernel = matrix\n"
      "core1 = stream\n"
      "core2 = stream\n"
      "core3 = stream\n"
      "arbiter = rr\n"
      "cores = 4\n"
      "sweep setup = rp cba\n"
      "runs = 4\n"
      "metrics = fair.jain_occupancy,fair.jain_grants,"
      "bus.occupancy_share\n");
  const auto result = run_experiment(spec, 2);
  ASSERT_EQ(result.jobs.size(), 2u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const auto jain = [&](std::size_t job, std::string_view key) {
    return result.jobs[job].campaign.aggregate.element_stats(key).mean();
  };
  const double rr_occ = jain(0, "fair.jain_occupancy");
  const double rr_grants = jain(0, "fair.jain_grants");
  const double cba_occ = jain(1, "fair.jain_occupancy");
  // Plain RR: request-count fairness exceeds occupancy fairness (the
  // short matrix transactions pay in cycles for their equal grants).
  EXPECT_GT(rr_grants, rr_occ + 0.02);
  // CBA closes the occupancy gap RR leaves open (~0.93 -> ~0.975 here).
  EXPECT_GT(cba_occ, rr_occ + 0.03);

  // The selected per-master and fairness keys become CSV columns.
  std::ostringstream out;
  make_sink(SinkKind::kCsv)->write(spec, result.jobs, out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "job,kernel,scenario,setup,seed,run,cycles,"
            "fair.jain_occupancy,fair.jain_grants,bus.occupancy_share[0],"
            "bus.occupancy_share[1],bus.occupancy_share[2],"
            "bus.occupancy_share[3]");
}

TEST(MetricsPipeline, SameOutputsAtOneAndFourThreadsWithMetrics) {
  const ExperimentSpec spec = parse(
      "scenario = con\n"
      "kernel = canrdr\n"
      "sweep setup = rp cba\n"
      "runs = 3\n"
      "metrics = all\n");
  const auto serial = run_experiment(spec, 1);
  const auto parallel = run_experiment(spec, 4);
  EXPECT_EQ(serial.failed_jobs(), 0u);
  std::ostringstream csv_a, csv_b, json_a, json_b;
  make_sink(SinkKind::kCsv)->write(spec, serial.jobs, csv_a);
  make_sink(SinkKind::kCsv)->write(spec, parallel.jobs, csv_b);
  make_sink(SinkKind::kJson)->write(spec, serial.jobs, json_a);
  make_sink(SinkKind::kJson)->write(spec, parallel.jobs, json_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  // `all` covers every catalog key; per-master ones appear indexed.
  EXPECT_NE(csv_a.str().find("bus.grant_share[3]"), std::string::npos);
  EXPECT_NE(csv_a.str().find("fair.maxmin_grants"), std::string::npos);
}

TEST(Sinks, JsonCarriesPwcetError) {
  ExperimentSpec spec = golden_spec();
  spec.pwcet = true;
  auto results = golden_results();
  results[0].mbpta_error = "too few samples";
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(spec, results, out);
  EXPECT_NE(out.str().find("\"pwcet_error\": \"too few samples\""),
            std::string::npos)
      << out.str();
}

TEST(Sinks, EmitOutputsHonoursStdoutDashes) {
  ExperimentSpec spec = golden_spec();
  spec.csv_path = "-";
  spec.summary = false;
  std::ostringstream out;
  emit_outputs(spec, golden_results(), out);
  EXPECT_EQ(out.str().rfind("job,kernel", 0), 0u);
}

}  // namespace
}  // namespace cbus::exp
