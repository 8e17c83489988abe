// Traced replay: the experiment's jobs re-executed single-threaded from
// the layers' public parts -- exp::expand jobs, run_seed-order SplitMix64
// seeds, CreditSoA, BatchCreditEngine, Multicore -- exactly as
// exp::run_experiment / platform::run_campaign_slice assemble them, with
// timing around each public call. Every kernel component is registered
// through a timing shim (classed by dynamic_cast), and the batch credit
// engine runs behind a timing stage. A tick is a few nanoseconds, too
// short to time with two clock reads, so the shims only count calls and
// tag the running layer; a wall-clock sampling profiler splits the
// measured run_until time by those tags. Everything else is timed per
// call.
//
// The replay must reproduce the untraced run's per-run records and sink
// bytes exactly; the mode alternates untraced single-threaded passes with
// traced ones so the tracing overhead is measured on the same host.
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <csignal>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bus/bus.hpp"
#include "bus/segmented.hpp"
#include "bus/split_bus.hpp"
#include "common.hpp"
#include "core/batch_engine.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "cpu/in_order_core.hpp"
#include "exp/checkpoint.hpp"
#include "exp/sinks.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/fixed_stream.hpp"
#include "workloads/phased.hpp"
#include "workloads/streaming.hpp"

namespace perfbench {

namespace {

namespace exp = cbus::exp;
namespace platform = cbus::platform;
using cbus::Cycle;

/// What the replay is executing inside BatchKernel::run_until: the
/// kernel's own loop, or a tick of one component class. kOutside marks
/// everything else (timed per call instead).
enum Layer : int { kLoop, kCpu, kContender, kBus, kOther, kEngine, kOutside,
                   kLayers };

/// Profiler period: about 4000 samples per second of traced loop, for
/// about 1% signal-handling overhead.
constexpr long kSampleIntervalUs = 250;

/// The layer executing right now; written around every shimmed tick and
/// read by the sampling signal handler (on whichever thread the signal
/// lands, hence an atomic).
std::atomic<int> g_layer{kOutside};
std::array<std::atomic<std::uint64_t>, kLayers> g_samples{};
static_assert(std::atomic<int>::is_always_lock_free &&
              std::atomic<std::uint64_t>::is_always_lock_free);

extern "C" void count_layer_sample(int /*signal*/) {
  g_samples[static_cast<std::size_t>(
                g_layer.load(std::memory_order_relaxed))].fetch_add(
      1, std::memory_order_relaxed);
}

/// A wall-clock sampling profiler over g_layer for the lifetime of the
/// object: every `interval_us` a SIGALRM records which layer is running.
/// Shims only store the layer tag, so a tick costs two stores instead of
/// two clock reads; each layer's share of the loop time is its share of
/// the in-loop samples.
class LayerSampler {
 public:
  explicit LayerSampler(long interval_us) {
    for (auto& n : g_samples) n.store(0, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = count_layer_sample;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGALRM, &action, &previous_) != 0) {
      throw std::runtime_error("cannot install the sampling handler");
    }
    itimerval timer{};
    timer.it_interval.tv_usec = interval_us;
    timer.it_value.tv_usec = interval_us;
    if (setitimer(ITIMER_REAL, &timer, nullptr) != 0) {
      sigaction(SIGALRM, &previous_, nullptr);
      throw std::runtime_error("cannot arm the sampling timer");
    }
  }
  ~LayerSampler() {
    const itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &previous_, nullptr);
  }
  LayerSampler(const LayerSampler&) = delete;
  LayerSampler& operator=(const LayerSampler&) = delete;

  /// Samples per layer so far.
  [[nodiscard]] static std::array<std::uint64_t, kLayers> counts() {
    std::array<std::uint64_t, kLayers> out{};
    for (std::size_t l = 0; l < kLayers; ++l) {
      out[l] = g_samples[l].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct sigaction previous_ {};
};

/// Host times and exact counts of one traced pass.
struct Trace {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double workloads_build_s = 0.0;
  double platform_build_s = 0.0;
  double harvest_s = 0.0;
  double loop_s = 0.0;  ///< run_until, component ticks included
  double fold_s = 0.0;
  double checkpoint_s = 0.0;
  double mbpta_s = 0.0;
  double sinks_s = 0.0;
  std::array<std::uint64_t, kLayers> calls{};    ///< shimmed ticks
  std::array<std::uint64_t, kLayers> samples{};  ///< profiler samples
  std::vector<double> slice_ms;

  std::uint64_t lane_cycles = 0;
  std::uint64_t engine_lane_cycles = 0;
  std::uint64_t grants = 0;
  std::uint64_t completions = 0;
  std::uint64_t kernel_bus_grants = 0;  ///< grants on kernel-ticked buses
  std::uint64_t underflows = 0;
  std::uint64_t ops = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t tua_stall_cycles = 0;
  std::uint64_t tua_cycles = 0;
  std::uint64_t l2_transactions = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t bridge_hops = 0;
  std::uint64_t backpressure_stalls = 0;

  /// Sum of every separately timed span; the rest of wall_s is untimed.
  [[nodiscard]] double timed_s() const {
    return setup_s + workloads_build_s + platform_build_s + harvest_s +
           loop_s + fold_s + checkpoint_s + mbpta_s + sinks_s;
  }
};

class TimedComponent final : public cbus::sim::Component {
 public:
  TimedComponent(cbus::sim::Component& inner, Layer layer,
                 std::uint64_t& calls)
      : Component(std::string(inner.name())),
        inner_(inner),
        layer_(layer),
        calls_(calls) {}

  void tick(Cycle now) override {
    ++calls_;
    g_layer.store(layer_, std::memory_order_relaxed);
    inner_.tick(now);
    g_layer.store(kLoop, std::memory_order_relaxed);
  }

 private:
  cbus::sim::Component& inner_;
  Layer layer_;
  std::uint64_t& calls_;
};

/// Wraps the batch credit engine: one call per batch cycle covering the
/// contender bank, the phased bus ticks and the vertical credit update.
class TimedStage final : public cbus::sim::BatchStage {
 public:
  TimedStage(cbus::sim::BatchStage& inner, std::uint64_t& calls,
             std::uint64_t& lane_cycles)
      : inner_(inner), calls_(calls), lane_cycles_(lane_cycles) {}

  void on_cycle(Cycle now, std::span<const std::size_t> live) override {
    ++calls_;
    lane_cycles_ += live.size();
    g_layer.store(kEngine, std::memory_order_relaxed);
    inner_.on_cycle(now, live);
    g_layer.store(kLoop, std::memory_order_relaxed);
  }

 private:
  cbus::sim::BatchStage& inner_;
  std::uint64_t& calls_;
  std::uint64_t& lane_cycles_;
};

Layer classify(cbus::sim::Component& component) {
  if (dynamic_cast<cbus::cpu::InOrderCore*>(&component) != nullptr) {
    return kCpu;
  }
  if (dynamic_cast<cbus::core::VirtualContender*>(&component) != nullptr) {
    return kContender;
  }
  if (dynamic_cast<cbus::bus::NonSplitBus*>(&component) != nullptr ||
      dynamic_cast<cbus::bus::SegmentedInterconnect*>(&component) != nullptr ||
      dynamic_cast<cbus::bus::SplitBus*>(&component) != nullptr) {
    return kBus;
  }
  return kOther;
}

// --- the job's campaign, as exp/runner.cpp builds it ------------------------

std::unique_ptr<cbus::cpu::OpStream> make_stream(
    const exp::WorkloadSpec& spec) {
  using Kind = exp::WorkloadSpec::Kind;
  switch (spec.kind) {
    case Kind::kKernel:
      return cbus::workloads::make_eembc(spec.kernel);
    case Kind::kStream:
      return std::make_unique<cbus::workloads::StreamingStream>(spec.gap);
    case Kind::kPhased:
      return std::make_unique<cbus::workloads::PhaseShiftedStream>(
          spec.period, spec.offset, spec.gap);
    case Kind::kIdle:
      return std::make_unique<cbus::workloads::FixedOpsStream>(
          std::vector<cbus::cpu::MemOp>{});
  }
  throw std::logic_error("unknown workload kind");
}

struct Campaign {
  platform::PlatformConfig config;  ///< protocol-resolved
  std::uint64_t base_seed = 0;
  std::string kernel;
  std::vector<exp::WorkloadSpec> corunners;
};

Campaign make_campaign(const exp::ExperimentSpec& spec, const exp::Job& job) {
  Campaign c;
  c.config = job.config;
  c.base_seed = job.seed;
  c.kernel = job.kernel;
  switch (job.scenario) {
    case exp::Scenario::kIsolation:
      c.config.mode = cbus::PlatformMode::kOperation;
      break;
    case exp::Scenario::kMaxContention:
      break;
    case exp::Scenario::kStream:
      c.corunners.assign(std::min<std::uint32_t>(3, job.config.n_cores - 1),
                         exp::parse_workload("stream"));
      break;
    case exp::Scenario::kCorun: {
      std::uint32_t highest = 0;
      for (const auto& [index, workload] : spec.corunners) {
        if (index < job.config.n_cores) highest = std::max(highest, index);
      }
      for (std::uint32_t core = 1; core <= highest; ++core) {
        const auto it = spec.corunners.find(core);
        c.corunners.push_back(it == spec.corunners.end() ? exp::WorkloadSpec{}
                                                         : it->second);
      }
      break;
    }
  }
  return c;
}

/// One lockstep slice, assembled as platform::run_campaign_slice does.
void run_slice(const Campaign& c, std::uint32_t first_run,
               std::span<platform::RunOutcome> outcomes, Cycle max_cycles,
               Trace& t) {
  const std::size_t lanes = outcomes.size();
  const platform::PlatformConfig& config = c.config;
  cbus::rng::SplitMix64 mix(c.base_seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  auto t0 = Clock::now();
  std::unique_ptr<cbus::core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<cbus::core::CreditSoA>(lanes, *config.cba,
                                                     config.credit_slots());
  }
  std::unique_ptr<cbus::core::BatchCreditEngine> engine;
  if (credit != nullptr && !config.topology.segmented() &&
      config.bus_protocol == platform::BusProtocol::kNonSplit && lanes >= 2 &&
      lanes <= 64 && cbus::vec::engine_enabled()) {
    engine = std::make_unique<cbus::core::BatchCreditEngine>(
        *credit, *config.cba, lanes);
  }
  t.platform_build_s += seconds_since(t0);

  struct Lane {
    std::unique_ptr<cbus::cpu::OpStream> tua;
    std::vector<std::unique_ptr<cbus::cpu::OpStream>> corunners;
    std::unique_ptr<platform::Multicore> machine;
  };
  std::vector<Lane> replicas(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Lane& r = replicas[lane];
    const std::uint64_t seed = mix.next();
    cbus::rng::SplitMix64 stream_seeds(seed);
    t0 = Clock::now();
    r.tua = cbus::workloads::make_eembc(c.kernel);
    r.tua->reset(stream_seeds.next());
    std::vector<cbus::cpu::OpStream*> corunner_ptrs;
    for (const exp::WorkloadSpec& workload : c.corunners) {
      r.corunners.push_back(make_stream(workload));
      r.corunners.back()->reset(stream_seeds.next());
      corunner_ptrs.push_back(r.corunners.back().get());
    }
    const auto t1 = Clock::now();
    t.workloads_build_s += std::chrono::duration<double>(t1 - t0).count();
    r.machine = std::make_unique<platform::Multicore>(
        config, seed, *r.tua, corunner_ptrs,
        credit ? credit->lane(lane) : cbus::core::CreditLaneView{},
        engine.get(), lane);
    t.platform_build_s += seconds_since(t1);
  }

  t0 = Clock::now();
  cbus::sim::BatchKernel batch(lanes, cbus::sim::BatchKernel::kCampaignStripe);
  std::vector<std::unique_ptr<TimedComponent>> shims;
  const auto add = [&](std::size_t lane, cbus::sim::Component& component,
                       bool post) {
    const Layer layer = classify(component);
    shims.push_back(
        std::make_unique<TimedComponent>(component, layer, t.calls[layer]));
    if (post) {
      batch.add_post(lane, *shims.back());
    } else {
      batch.add(lane, *shims.back());
    }
  };
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    platform::Multicore& machine = *replicas[lane].machine;
    for (cbus::sim::Component* component : machine.kernel().components()) {
      add(lane, *component, false);
    }
    if (engine != nullptr && machine.controller() != nullptr &&
        config.controller.adaptive()) {
      add(lane, *machine.controller(), true);
    }
  }
  std::optional<TimedStage> stage;
  if (engine != nullptr) {
    stage.emplace(*engine, t.calls[kEngine], t.engine_lane_cycles);
    batch.set_stage(*stage);
  }
  t.platform_build_s += seconds_since(t0);

  t0 = Clock::now();
  g_layer.store(kLoop, std::memory_order_relaxed);
  const std::vector<bool> fired = batch.run_until(
      [&](std::size_t lane) { return replicas[lane].machine->tua_done(); },
      max_cycles);
  g_layer.store(kOutside, std::memory_order_relaxed);
  t.loop_s += seconds_since(t0);

  t0 = Clock::now();
  std::vector<platform::RunResult> results;
  results.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    results.push_back(replicas[lane].machine->harvest(fired[lane], batch.now()));
  }
  t.harvest_s += seconds_since(t0);

  // Exact counts from the public statistics structs (untimed bookkeeping).
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    platform::RunResult& r = results[lane];
    platform::Multicore& machine = *replicas[lane].machine;
    const cbus::bus::BusStatistics::Totals totals = r.bus_stats.totals();
    t.grants += totals.grants;
    t.completions += totals.completions;
    if (engine == nullptr) t.kernel_bus_grants += totals.grants;
    cbus::bus::SegmentedInterconnect* seg = machine.segmented();
    t.lane_cycles += seg != nullptr ? seg->ticked_cycles()
                                    : r.bus_stats.total_cycles;
    t.underflows += r.credit_underflows;
    t.tua_stall_cycles += r.tua_stats.bus_stall_cycles;
    t.tua_cycles += r.tua_stats.cycles;
    for (std::size_t i = 0; i < machine.real_cores(); ++i) {
      const cbus::cpu::CoreStats& s = machine.core(i).stats();
      t.ops += s.ops;
      t.l1_hits += s.l1_hits;
      t.l1_misses += s.l1_misses;
    }
    for (cbus::MasterId m = 0; m < config.n_cores; ++m) {
      const cbus::mem::L2Stats& l2 = machine.l2().stats(m);
      t.l2_transactions += l2.transactions;
      t.l2_hits += l2.hits;
      t.dram_accesses += l2.memory_accesses;
    }
    if (seg != nullptr) {
      t.bridge_hops += seg->bridge_stats().hops;
      for (std::uint32_t s = 0; s < seg->n_segments(); ++s) {
        t.backpressure_stalls += seg->backpressure_stalls(s);
      }
    }
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
  }
}

/// JobResult identity fields, as exp::run_experiment fills them.
exp::JobResult job_shell(const exp::Job& job) {
  exp::JobResult out;
  out.index = job.index;
  out.axes = job.axes;
  out.kernel = job.kernel;
  out.scenario = std::string(exp::to_string(job.scenario));
  out.seed = job.seed;
  return out;
}

struct TracedResult {
  std::string sink_digest;
  std::string records_digest;
  bool resume_identical = true;
};

/// One traced pass over the whole experiment in `dir`.
TracedResult traced_pass(const Options& opt, const fs::path& dir,
                         Trace& t) {
  make_fresh_dir(dir);
  const auto wall0 = Clock::now();
  const exp::ExperimentSpec spec =
      with_output_dir(exp::load_experiment(opt.spec_path), dir);
  exp::validate_spec(spec);
  const std::vector<exp::Job> jobs = exp::expand(spec);
  t.setup_s += seconds_since(wall0);

  std::vector<Campaign> campaigns;
  for (const exp::Job& job : jobs) campaigns.push_back(make_campaign(spec, job));
  const std::uint32_t batch = std::max(1u, spec.batch);
  const std::uint32_t slices_per_job = (spec.runs + batch - 1) / batch;
  const std::size_t slice_count = jobs.size() * slices_per_job;

  std::vector<std::vector<platform::RunOutcome>> outcomes(jobs.size());
  if (spec.retain_raw) {
    for (auto& o : outcomes) o.resize(spec.runs);
  }
  std::vector<cbus::metrics::Aggregator> folded(jobs.size());
  std::vector<std::uint32_t> unfinished(jobs.size(), 0);
  std::vector<std::string> errors(jobs.size());

  const std::string checkpoint = (dir / "slices.ckpt").string();
  std::optional<exp::CheckpointWriter> writer;
  auto t0 = Clock::now();
  if (opt.checkpoint) {
    writer.emplace(
        exp::CheckpointWriter::create(checkpoint, exp::make_meta(spec, 0, 1)));
  }
  t.checkpoint_s += seconds_since(t0);

  for (std::size_t s = 0; s < slice_count; ++s) {
    const std::size_t job = s / slices_per_job;
    const std::uint32_t first =
        static_cast<std::uint32_t>(s % slices_per_job) * batch;
    const std::uint32_t count = std::min(batch, spec.runs - first);
    const auto slice0 = Clock::now();
    try {
      if (spec.retain_raw) {
        run_slice(campaigns[job], first,
                  std::span<platform::RunOutcome>(outcomes[job])
                      .subspan(first, count),
                  spec.max_cycles, t);
      } else {
        std::vector<platform::RunOutcome> local(count);
        run_slice(campaigns[job], first, local, spec.max_cycles, t);
        t0 = Clock::now();
        exp::SliceState state;
        state.slice = static_cast<std::uint32_t>(s);
        state.job = static_cast<std::uint32_t>(job);
        state.first_run = first;
        state.run_count = count;
        for (const platform::RunOutcome& outcome : local) {
          if (!outcome.finished) {
            ++state.unfinished;
            continue;
          }
          state.aggregate.add(outcome.record);
        }
        auto t1 = Clock::now();
        t.fold_s += std::chrono::duration<double>(t1 - t0).count();
        if (writer.has_value()) writer->append(state);
        t0 = Clock::now();
        t.checkpoint_s += std::chrono::duration<double>(t0 - t1).count();
        folded[job].merge(state.aggregate);
        unfinished[job] += state.unfinished;
        t.fold_s += seconds_since(t0);
      }
    } catch (const std::exception& e) {
      // Slices run in order, so the first error is the lowest slice's.
      if (errors[job].empty()) errors[job] = e.what();
    }
    t.slice_ms.push_back(1e3 * seconds_since(slice0));
  }

  std::vector<exp::JobResult> results;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    exp::JobResult& out = results.emplace_back(job_shell(jobs[j]));
    out.error = errors[j];
    if (out.failed()) continue;
    if (!spec.retain_raw) {
      out.campaign.aggregate = std::move(folded[j]);
      out.campaign.unfinished_runs = unfinished[j];
      continue;
    }
    t0 = Clock::now();
    out.campaign.aggregate = cbus::metrics::Aggregator(
        cbus::metrics::Aggregator::Options{.retain_raw = true});
    for (const platform::RunOutcome& outcome : outcomes[j]) {
      if (!outcome.finished) {
        ++out.campaign.unfinished_runs;
        continue;
      }
      out.campaign.aggregate.add(outcome.record);
    }
    t.fold_s += seconds_since(t0);
    if (spec.pwcet) {
      t0 = Clock::now();
      cbus::mbpta::MbptaConfig mcfg;
      mcfg.block_size = std::max<std::size_t>(2, spec.runs / 30);
      try {
        out.mbpta = cbus::mbpta::analyze(out.campaign.samples(), mcfg);
        out.convergence =
            cbus::mbpta::tail_convergence(out.campaign.samples(), mcfg);
      } catch (const std::exception& e) {
        out.mbpta_error = e.what();
      }
      t.mbpta_s += seconds_since(t0);
    }
  }

  t0 = Clock::now();
  std::ostringstream out;
  exp::emit_outputs(spec, results, out);
  t.sinks_s += seconds_since(t0);

  // The resume half of a checkpointed workload: read the file back and
  // fold its slice digests, as a rerun of run_experiment would.
  std::vector<exp::JobResult> resumed;
  std::ostringstream resumed_out;
  const exp::ExperimentSpec resume_spec = with_output_dir(spec, dir / "resume");
  if (opt.checkpoint) {
    writer.reset();  // flush and close, as the first process would exit
    make_fresh_dir(dir / "resume");
    t0 = Clock::now();
    exp::LoadedCheckpoint loaded = exp::load_checkpoint(checkpoint);
    exp::validate_checkpoint_meta(loaded.meta, exp::make_meta(spec, 0, 1));
    auto t1 = Clock::now();
    t.checkpoint_s += std::chrono::duration<double>(t1 - t0).count();
    for (const exp::Job& job : jobs) resumed.push_back(job_shell(job));
    for (const exp::SliceState& state : loaded.slices) {
      resumed.at(state.job).campaign.aggregate.merge(state.aggregate);
      resumed.at(state.job).campaign.unfinished_runs += state.unfinished;
    }
    t0 = Clock::now();
    t.fold_s += std::chrono::duration<double>(t0 - t1).count();
    exp::emit_outputs(resume_spec, resumed, resumed_out);
    t.sinks_s += seconds_since(t0);
  }
  t.wall_s += seconds_since(wall0);

  TracedResult result;
  const SinkBytes sinks = read_sinks(spec, out.str());
  result.sink_digest = sinks.digest();
  result.records_digest = records_digest(results);
  if (opt.checkpoint) {
    result.resume_identical =
        read_sinks(resume_spec, resumed_out.str()) == sinks &&
        records_digest(resumed) == result.records_digest;
  }
  fs::remove_all(dir);
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

int run_replay(const Options& opt) {
  if (opt.once) {
    Trace t;
    const TracedResult r = traced_pass(opt, opt.workdir / "once", t);
    JsonLine line(std::cout);
    line.str("mode", "replay")
        .str("sink_digest", r.sink_digest)
        .str("records_digest", r.records_digest)
        .boolean("resume_identical", r.resume_identical);
    line.end();
    return 0;
  }

  // Alternate untraced (spec threads overridden to 1) and traced passes;
  // pair 0 warms up and is checked but not timed.
  std::vector<double> untraced_wall, traced_wall;
  Trace total;
  Trace last;
  UntracedPass first;
  bool identical = true;
  std::size_t timed = 0;
  const auto start = Clock::now();
  const std::size_t min_timed = std::max<std::size_t>(1, opt.min_passes);
  for (std::size_t i = 0;
       i < 1 + min_timed || seconds_since(start) < opt.seconds; ++i) {
    const std::string tag = std::to_string(i);
    const UntracedPass base =
        untraced_pass(opt, opt.workdir / ("untraced" + tag), 1);
    Trace t;
    std::optional<TracedResult> r;
    {
      const CpuRotation rotation;
      const LayerSampler sampler(kSampleIntervalUs);
      r = traced_pass(opt, opt.workdir / ("traced" + tag), t);
      t.samples = LayerSampler::counts();
    }
    identical = identical && r->sink_digest == base.sink_digest &&
                r->records_digest == base.records_digest &&
                r->resume_identical && base.resume_identical;
    if (i == 0) {
      first = base;
      continue;
    }
    ++timed;
    untraced_wall.push_back(base.wall_s);
    traced_wall.push_back(t.wall_s);
    total.wall_s += t.wall_s;
    total.setup_s += t.setup_s;
    total.workloads_build_s += t.workloads_build_s;
    total.platform_build_s += t.platform_build_s;
    total.harvest_s += t.harvest_s;
    total.loop_s += t.loop_s;
    total.fold_s += t.fold_s;
    total.checkpoint_s += t.checkpoint_s;
    total.mbpta_s += t.mbpta_s;
    total.sinks_s += t.sinks_s;
    for (std::size_t l = 0; l < kLayers; ++l) total.samples[l] += t.samples[l];
    total.slice_ms.insert(total.slice_ms.end(), t.slice_ms.begin(),
                          t.slice_ms.end());
    last = std::move(t);
  }

  // Host times: mean per traced pass, the loop split by its samples.
  // Counts: exact, from one pass (every pass counts the same).
  const double n = static_cast<double>(timed);
  std::uint64_t loop_samples = 0;
  for (std::size_t l = kLoop; l < kOutside; ++l) {
    loop_samples += total.samples[l];
  }
  const auto layer_s = [&](Layer l) {
    return total.loop_s / n *
           ratio(static_cast<double>(total.samples[l]),
                 static_cast<double>(loop_samples));
  };
  std::uint64_t component_ticks = 0;
  for (std::size_t l = kCpu; l < kEngine; ++l) component_ticks += last.calls[l];
  const double lane_cycles = static_cast<double>(last.lane_cycles);

  JsonLine line(std::cout);
  line.str("mode", "replay")
      .boolean("identical", identical)
      .str("sink_digest", first.sink_digest)
      .num("attempted_runs", first.attempted)
      .num("failed_runs", first.failed)
      .num("exp.setup_s", total.setup_s / n)
      .num("workloads.build_s", total.workloads_build_s / n)
      .num("platform.build_s", total.platform_build_s / n)
      .num("platform.harvest_s", total.harvest_s / n)
      .num("platform.slice_ms_p50", quantile(total.slice_ms, 0.5))
      .num("platform.slice_ms_p90", quantile(total.slice_ms, 0.9))
      .num("sim.loop_s", layer_s(kLoop))
      .num("sim.component_ticks", component_ticks)
      .num("sim.lane_cycles", last.lane_cycles)
      .num("sim.ns_per_lane_cycle", 1e9 * ratio(total.loop_s / n, lane_cycles))
      .num("sim.other_tick_s", layer_s(kOther))
      .num("bus.events_per_kcycle",
           1e3 * ratio(static_cast<double>(last.grants + last.completions),
                       lane_cycles))
      .num("cpu.tick_s", layer_s(kCpu))
      .num("cpu.ops", last.ops)
      .num("cpu.ns_per_op",
           1e9 * ratio(layer_s(kCpu), static_cast<double>(last.ops)))
      .num("cpu.bus_stall_frac",
           ratio(static_cast<double>(last.tua_stall_cycles),
                 static_cast<double>(last.tua_cycles)))
      .num("cache.l1_accesses", last.l1_hits + last.l1_misses)
      .num("cache.l1_hit_ratio",
           ratio(static_cast<double>(last.l1_hits),
                 static_cast<double>(last.l1_hits + last.l1_misses)))
      .num("core.engine_s", layer_s(kEngine))
      .num("core.contender_tick_s", layer_s(kContender))
      .num("core.engine_cycle_frac",
           ratio(static_cast<double>(last.engine_lane_cycles), lane_cycles))
      .num("core.credit_underflows", last.underflows)
      .num("bus.tick_s", layer_s(kBus))
      .num("bus.grants", last.grants)
      .num("bus.ns_per_grant",
           1e9 * ratio(layer_s(kBus),
                       static_cast<double>(last.kernel_bus_grants)))
      .num("mem.l2_transactions", last.l2_transactions)
      .num("mem.l2_hit_ratio",
           ratio(static_cast<double>(last.l2_hits),
                 static_cast<double>(last.l2_transactions)))
      .num("mem.dram_accesses", last.dram_accesses)
      .num("seg.bridge_hops", last.bridge_hops)
      .num("seg.backpressure_stalls", last.backpressure_stalls)
      .num("metrics.fold_s", total.fold_s / n)
      .num("exp.checkpoint_s", total.checkpoint_s / n)
      .num("mbpta.analyze_s", total.mbpta_s / n)
      .num("exp.sinks_s", total.sinks_s / n)
      .num("exp.slices", static_cast<std::uint64_t>(last.slice_ms.size()))
      .num("trace.wall_s", total.wall_s / n)
      .num("trace.untimed_s", (total.wall_s - total.timed_s()) / n)
      .num("trace.untraced_wall_s", median(untraced_wall))
      .num("trace.overhead", ratio(median(traced_wall), median(untraced_wall)))
      .num("trace.loop_samples", loop_samples)
      .num("trace.passes", static_cast<std::uint64_t>(timed));
  write_build_info(line);
  line.end();
  return 0;
}

}  // namespace perfbench
