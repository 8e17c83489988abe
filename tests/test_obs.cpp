// Observability subsystem tests: the sliding demand window, the
// timeline tracer's JSON export and -- the contract the whole subsystem
// hangs on -- that instrumentation never perturbs simulation results
// (trace on/off => byte-identical sink output).
// Also the streaming-merge memory regression: folding N slices must
// keep O(jobs) live aggregators, not O(N).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/credit_filter.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "metrics/aggregator.hpp"
#include "obs/demand_window.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "sim/component.hpp"
#include "workloads/eembc_like.hpp"

namespace cbus {
namespace {

using exp::ExperimentResult;
using exp::ExperimentSpec;
using exp::RunOptions;

[[nodiscard]] ExperimentSpec parse(const std::string& text) {
  std::istringstream in(text);
  return exp::parse_experiment(in);
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The JSON sink rendering -- the byte-identity yardstick.
[[nodiscard]] std::string json_of(const ExperimentSpec& spec,
                                  const ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kJson)->write(spec, result.jobs, out);
  return out.str();
}

// --- DemandWindow -----------------------------------------------------------

TEST(DemandWindow, CountsRecentEventsOnly) {
  obs::DemandWindow window(2, /*window=*/64, /*buckets=*/16);
  window.record(0, 10);
  window.record(0, 11);
  window.record(1, 12, 5);
  EXPECT_EQ(window.demand(0, 12), 2u);
  EXPECT_EQ(window.demand(1, 12), 5u);
  // Far past the window, everything has expired.
  EXPECT_EQ(window.demand(0, 10'000), 0u);
  EXPECT_EQ(window.demand(1, 10'000), 0u);
}

TEST(DemandWindow, RateIsDemandOverWindow) {
  obs::DemandWindow window(1, /*window=*/64, /*buckets=*/16);
  for (Cycle c = 0; c < 32; ++c) window.record(0, c);
  const double rate = window.rate(0, 31);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

// --- Timeline (through the runner, as --trace uses it) ----------------------

/// A tiny 4-core H-CBA contention campaign, the acceptance scenario.
[[nodiscard]] ExperimentSpec hcba_spec() {
  return parse(
      "name = obs-test\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 3\n"
      "seed = 0x0B5\n"
      "summary = off\n");
}

TEST(Timeline, TraceFileContainsSpansAndCounterTracks) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_trace.json");
  spec.trace_run = 1;
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const std::string trace = file_bytes(spec.trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"bus masters\""), std::string::npos);
  EXPECT_NE(trace.find("\"credit m0\""), std::string::npos);
  EXPECT_NE(trace.find("\"eligible m3\""), std::string::npos);
  EXPECT_NE(trace.find("\"demand m0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);  // counters
  EXPECT_NE(trace.find("\"provenance\""), std::string::npos);
  std::remove(spec.trace_path.c_str());
}

TEST(Timeline, SegmentedTraceHasBridgeQueueTracks) {
  ExperimentSpec spec = hcba_spec();
  spec.set_platform_key("topology", "segmented:2");
  spec.trace_path = temp_path("obs_seg_trace.json");
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const std::string trace = file_bytes(spec.trace_path);
  EXPECT_NE(trace.find("\"bridge s0->s1\""), std::string::npos);
  EXPECT_NE(trace.find("\"bridge s1->s0\""), std::string::npos);
  std::remove(spec.trace_path.c_str());
}

TEST(Timeline, WindowBoundsCaptureVolume) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_window_trace.json");
  spec.trace_window_begin = 100;
  spec.trace_window_end = 200;
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const std::string narrow = file_bytes(spec.trace_path);

  spec.trace_window_begin = 0;
  spec.trace_window_end = std::numeric_limits<Cycle>::max();
  (void)exp::run_experiment(spec, 1u);
  const std::string full = file_bytes(spec.trace_path);

  EXPECT_LT(narrow.size(), full.size());
  std::remove(spec.trace_path.c_str());
}

/// The contract everything else rests on: instrumenting a run must not
/// change a single output byte.
TEST(Timeline, TracingDoesNotPerturbResults) {
  ExperimentSpec bare = hcba_spec();
  const ExperimentResult reference = exp::run_experiment(bare, 1u);

  ExperimentSpec traced = hcba_spec();
  traced.trace_path = temp_path("obs_perturb_trace.json");
  traced.trace_run = 0;
  const ExperimentResult instrumented = exp::run_experiment(traced, 1u);

  // Hash the spec identically (obs keys are excluded from the hash)...
  EXPECT_EQ(exp::spec_hash(bare), exp::spec_hash(traced));
  // ...and produce byte-identical sink output.
  EXPECT_EQ(json_of(bare, reference), json_of(bare, instrumented));
  std::remove(traced.trace_path.c_str());
}

/// Batched campaigns: the instrumented slices must stay byte-identical
/// to the bare ones.
TEST(Timeline, TracingABatchedCampaignDoesNotPerturbResults) {
  ExperimentSpec bare = hcba_spec();
  bare.batch = 4;
  const ExperimentResult reference = exp::run_experiment(bare, 2u);

  ExperimentSpec traced = bare;
  traced.trace_path = temp_path("obs_batched_trace.json");
  traced.trace_run = 2;
  const ExperimentResult instrumented = exp::run_experiment(traced, 2u);

  EXPECT_EQ(json_of(bare, reference), json_of(bare, instrumented));
  EXPECT_FALSE(file_bytes(traced.trace_path).empty());
  std::remove(traced.trace_path.c_str());
}

/// The split protocol has no observer hook points: a traced split-bus
/// machine gets its credit tracks from the one credit-reader loop but no
/// wait/xfer spans, and the run is bit-identical to the bare one.
TEST(Timeline, SplitBusTraceHasCreditTracksAndNoSpans) {
  std::istringstream in("cores = 4\nsetup = cba\nmode = wcet\nbus = split\n");
  const platform::PlatformConfig cfg = platform::parse_config(in);
  const auto run = [&](obs::Timeline* timeline) {
    auto tua = workloads::make_eembc("canrdr");
    tua->reset(7);
    platform::Multicore machine(cfg, 7, *tua);
    if (timeline != nullptr) timeline->attach(machine);
    return machine.run();
  };
  const platform::RunResult bare = run(nullptr);
  obs::Timeline timeline;
  const platform::RunResult traced = run(&timeline);

  std::ostringstream json;
  timeline.write_json(json);
  const std::string trace = json.str();
  for (MasterId m = 0; m < cfg.n_cores; ++m) {
    const std::string track = "\"credit m" + std::to_string(m) + "\"";
    EXPECT_NE(trace.find(track), std::string::npos) << track;
  }
  EXPECT_EQ(trace.find("\"name\": \"wait\""), std::string::npos);
  EXPECT_EQ(trace.find("\"name\": \"xfer\""), std::string::npos);

  EXPECT_TRUE(bare.tua_finished);
  EXPECT_EQ(traced.tua_finished, bare.tua_finished);
  EXPECT_EQ(traced.tua_cycles, bare.tua_cycles);
  EXPECT_EQ(traced.bus_stats, bare.bus_stats);
  EXPECT_EQ(traced.credit_underflows, bare.credit_underflows);
  EXPECT_EQ(traced.core_finish, bare.core_finish);
  EXPECT_EQ(traced.record, bare.record);
}

/// Reads every master's budget the way a credit track must -- from its
/// home segment's filter at its local slot -- every `stride` cycles.
/// Registered after the Timeline, it sees the state the tracer's poll saw.
class HomeBudgetRecorder final : public sim::Component {
 public:
  HomeBudgetRecorder(platform::Multicore& machine, Cycle stride)
      : sim::Component("home-budgets"), machine_(machine), stride_(stride) {}

  void tick(Cycle now) override {
    if (now % stride_ != 0) return;
    const bus::Interconnect& ic = machine_.interconnect();
    std::vector<double>& row = seen[now];
    for (MasterId m = 0; m < machine_.config().n_cores; ++m) {
      const core::CreditFilter* filter =
          machine_.credit_filter(ic.home_segment(m));
      row.push_back(filter->state().budget_cycles(ic.local_slot(m)));
    }
  }

  std::map<Cycle, std::vector<double>> seen;

 private:
  platform::Multicore& machine_;
  Cycle stride_;
};

/// The `value` of the counter event on `line` after `key` ("ts", ...).
[[nodiscard]] double field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\": ");
  EXPECT_NE(at, std::string::npos) << line;
  return std::stod(line.substr(at + key.size() + 4));
}

TEST(Timeline, CreditTracksReadEachMastersHomeSegmentSlot) {
  // A segmented CBA WCET machine: masters off segment 0 keep their
  // budgets in their home segment's filter, at a local slot that is not
  // their master id. Counter tracks are emitted on change, so the track
  // "credit m<m>" holds its last sample's value; at every sampled cycle
  // that value must equal the master's home counter. Two cores put master
  // 1 at slot 0 of segment 1 (slot 1 is the bridge's); four put masters 2
  // and 3 at slots 0 and 1.
  for (const std::uint32_t cores : {2u, 4u}) {
    std::istringstream in("cores = " + std::to_string(cores) +
                          "\nsetup = cba\nmode = wcet\ntopology = chain:2\n");
    const platform::PlatformConfig cfg = platform::parse_config(in);
    auto tua = workloads::make_eembc("canrdr");
    tua->reset(7);
    platform::Multicore machine(cfg, 7, *tua);
    obs::Timeline timeline;
    timeline.attach(machine);
    HomeBudgetRecorder recorder(machine,
                                obs::Timeline::Config{}.counter_stride);
    machine.kernel().add(recorder);
    ASSERT_TRUE(machine.run().tua_finished) << cores;

    std::ostringstream json;
    timeline.write_json(json);
    std::istringstream lines(json.str());
    std::vector<std::map<Cycle, double>> tracks(cores);
    for (std::string line; std::getline(lines, line);) {
      const std::string name = "\"name\": \"credit m";
      const std::size_t at = line.find(name);
      if (line.find("\"ph\": \"C\"") == std::string::npos ||
          at == std::string::npos) {
        continue;
      }
      const auto m =
          static_cast<MasterId>(std::stoul(line.substr(at + name.size())));
      ASSERT_LT(m, cores) << line;
      tracks[m][static_cast<Cycle>(field(line, "ts"))] = field(line, "value");
    }
    for (MasterId m = 0; m < cores; ++m) {
      const std::string who =
          std::to_string(cores) + " cores, master " + std::to_string(m);
      std::size_t changes = 0;
      std::size_t mismatches = 0;
      std::string first_mismatch;
      double value = std::numeric_limits<double>::quiet_NaN();
      for (const auto& [ts, budgets] : recorder.seen) {
        if (const auto it = tracks[m].find(ts); it != tracks[m].end()) {
          value = it->second;
          ++changes;
        }
        if (value != budgets[m] && mismatches++ == 0) {
          first_mismatch = "cycle " + std::to_string(ts) + ": track " +
                           std::to_string(value) + ", counter " +
                           std::to_string(budgets[m]);
        }
      }
      EXPECT_EQ(changes, tracks[m].size()) << who << ": off-stride samples";
      EXPECT_EQ(mismatches, 0u) << who << ", first at " << first_mismatch;
      EXPECT_GT(changes, 1u) << who << ": the budget must move";
    }
  }
}

TEST(Timeline, TraceRunOutOfRangeIsRejected) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_reject_trace.json");
  spec.trace_run = spec.runs;  // one past the end
  EXPECT_THROW((void)exp::validate_spec(spec), std::invalid_argument);
}

// --- Telemetry --------------------------------------------------------------

TEST(Telemetry, RunnerFillsProgressCounters) {
  ExperimentSpec spec = hcba_spec();
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  const obs::Telemetry& t = result.telemetry;
  EXPECT_EQ(t.total_runs, spec.runs);
  EXPECT_EQ(t.runs_done, spec.runs);
  EXPECT_EQ(t.slices_done, t.total_slices);
  EXPECT_GT(t.wall_seconds, 0.0);
  EXPECT_GT(t.runs_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(t.eta_seconds(), 0.0);  // finished
  EXPECT_GT(t.peak_rss_kb, 0);
  ASSERT_EQ(t.thread_busy_seconds.size(), 1u);
  EXPECT_GT(t.thread_busy_seconds[0], 0.0);
  EXPECT_EQ(t.slice_wall_ms.count(), t.slices_done);
}

TEST(Telemetry, IsolationSlicesSkipQuietCycles) {
  // Batch-1 isolation slices execute only the cycles that carry an
  // event; a finished lane simulates its cycles 0..finish, i.e.
  // tua.cycles + 1 of them.
  const ExperimentSpec spec = parse(
      "name = skip\n"
      "scenario = iso\n"
      "kernel = matrix\n"
      "setup = cba\n"
      "cores = 4\n"
      "runs = 3\n"
      "seed = 0x0B5\n"
      "summary = off\n");
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const obs::Telemetry& t = result.telemetry;
  EXPECT_EQ(t.slices_done, 3u);
  const auto& aggregate = result.jobs.front().campaign.aggregate;
  EXPECT_EQ(t.simulated_lane_cycles,
            static_cast<std::uint64_t>(aggregate.element_sum("tua.cycles")) +
                spec.runs);
  EXPECT_GT(t.executed_lane_cycles, 0u);
  EXPECT_LT(t.executed_lane_cycles * 4, t.simulated_lane_cycles);

  // Segmented lanes skip too: on the congested bounded mesh the
  // interconnect's horizon is its earliest segment or bridge event.
  std::string mesh_text =
      "name = skip-mesh\n"
      "scenario = corun\n"
      "kernel = canrdr\n"
      "topology = mesh:3x3\n"
      "bridge_depth = 1\n"
      "setup = hcba\n"
      "cores = 9\n"
      "runs = 1\n"
      "summary = off\n";
  for (int core = 1; core < 9; ++core) {
    mesh_text += "core" + std::to_string(core) + " = stream:2\n";
  }
  const ExperimentResult mesh = exp::run_experiment(parse(mesh_text), 1u);
  ASSERT_EQ(mesh.failed_jobs(), 0u);
  EXPECT_EQ(mesh.telemetry.slices_done, 1u);
  EXPECT_GT(mesh.telemetry.executed_lane_cycles, 0u);
  EXPECT_LT(mesh.telemetry.executed_lane_cycles,
            mesh.telemetry.simulated_lane_cycles);
}

TEST(Telemetry, TracedSlicesTickEveryCycle) {
  // The tracer is a component without an event horizon: its lane ticks
  // every cycle, so executed == simulated.
  ExperimentSpec spec = hcba_spec();
  spec.runs = 1;
  spec.trace_path = temp_path("obs_telemetry_trace.json");
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const obs::Telemetry& t = result.telemetry;
  EXPECT_EQ(t.slices_done, 1u);
  EXPECT_GT(t.simulated_lane_cycles, 0u);
  EXPECT_EQ(t.executed_lane_cycles, t.simulated_lane_cycles);
  std::remove(spec.trace_path.c_str());
}

TEST(Telemetry, BatchedCbaContentionTakesTheSkippingPath) {
  // CBA under Table-I contention at batch 4: every slice runs its runs
  // one at a time on the skipping loop, so it executes fewer cycles than
  // it simulates; 6 runs leave a 2-run tail slice.
  ExperimentSpec spec = parse(
      "name = skip-con\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "setup = cba\n"
      "cores = 4\n"
      "runs = 6\n"
      "batch = 4\n"
      "seed = 0x0B5\n"
      "summary = off\n");
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const obs::Telemetry& t = result.telemetry;
  EXPECT_EQ(t.slices_done, 2u);
  EXPECT_GT(t.executed_lane_cycles, 0u);
  EXPECT_LT(t.executed_lane_cycles, t.simulated_lane_cycles);
}

TEST(Telemetry, JsonDocumentCarriesSchemaAndPhase) {
  obs::Telemetry t;
  t.total_runs = 10;
  t.runs_done = 4;
  t.wall_seconds = 2.0;
  t.thread_busy_seconds = {1.0, 0.5};
  std::ostringstream out;
  obs::write_telemetry_json(out, t, "run");
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"phase\": \"run\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"runs_per_sec\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_busy_fraction\""), std::string::npos);
  EXPECT_NE(doc.find("\"provenance\""), std::string::npos);
  EXPECT_NE(doc.find("\"telemetry_schema\": 4"), std::string::npos);
  EXPECT_EQ(doc.find("\"slice_paths\""), std::string::npos);
  EXPECT_NE(doc.find("\"lane_cycles\": {\"simulated\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"executed_fraction\": 0}"), std::string::npos);
}

TEST(Telemetry, EtaCountsRemainingWork) {
  obs::Telemetry t;
  t.total_runs = 100;
  t.runs_done = 50;
  t.wall_seconds = 10.0;  // 5 runs/s -> 10s to go
  EXPECT_DOUBLE_EQ(t.eta_seconds(), 10.0);
}

TEST(ProgressMeter, FinishAlwaysRendersToTheGivenStream) {
  std::ostringstream err;
  obs::ProgressMeter meter(err, 8);
  meter.update(2, 1);  // may be throttled; finish may not be
  meter.finish(8, 4);
  EXPECT_NE(err.str().find("8/8 runs"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find('\n'), std::string::npos);  // line terminated
}

// --- streaming-merge memory regression (census) -----------------------------

/// Fold a 2-job x 12-slice sharded campaign and require the streaming
/// path to hold O(jobs) aggregators, never O(slices). RecordCensus
/// guards the same property for per-run records.
TEST(StreamingFold, PeakLiveAggregatorsIndependentOfSliceCount) {
  ExperimentSpec spec = parse(
      "name = obs-census\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "sweep setup = rp cba\n"
      "runs = 12\n"
      "batch = 2\n"
      "seed = 0xFACE\n"
      "retain = stream\n"
      "summary = off\n");

  // Shard the campaign into 3 checkpoint files.
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    RunOptions options;
    options.threads_override = 1;
    options.shard_index = i;
    options.shard_count = 3;
    options.checkpoint_path =
        temp_path("obs_census_shard" + std::to_string(i) + ".ckpt");
    (void)exp::run_experiment(spec, options);
    paths.push_back(options.checkpoint_path);
  }

  const std::uint64_t before = metrics::Aggregator::live_count();
  metrics::Aggregator::reset_peak_live_count();
  const ExperimentResult folded = exp::fold_checkpoints_streaming(spec, paths);
  const std::uint64_t peak = metrics::Aggregator::peak_live_count();

  // 2 job results in flight plus one decoded slice and small transients;
  // the 12-slice plan must NOT show up in the peak (materializing the
  // slices would hold all 12 at once).
  EXPECT_LE(peak - before, 6u) << "streaming fold materialized slices";

  // And the folded shards match the unsharded run bit for bit.
  EXPECT_EQ(json_of(spec, exp::run_experiment(spec, 1u)),
            json_of(spec, folded));

  // Fold telemetry covered the whole campaign.
  EXPECT_EQ(folded.telemetry.slices_done, 12u);
  EXPECT_EQ(folded.telemetry.runs_done, 24u);

  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(StreamingFold, RejectsIncompleteCheckpointSet) {
  ExperimentSpec spec = parse(
      "name = obs-census2\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "runs = 4\n"
      "batch = 2\n"
      "seed = 0xD0\n"
      "retain = stream\n"
      "summary = off\n");
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RunOptions options;
    options.threads_override = 1;
    options.shard_index = i;
    options.shard_count = 2;
    options.checkpoint_path =
        temp_path("obs_census2_shard" + std::to_string(i) + ".ckpt");
    (void)exp::run_experiment(spec, options);
    paths.push_back(options.checkpoint_path);
  }
  try {
    (void)exp::fold_checkpoints_streaming(spec, {paths[0]});
    FAIL() << "should have rejected one file of a two-shard set";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint file(s) were given"),
              std::string::npos)
        << e.what();
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace cbus
