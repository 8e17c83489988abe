// Campaign runners: the measurement protocols of the paper's evaluation.
//
// "for each benchmark we show average execution time results for 1,000
//  runs of each configuration" (§IV-B) -- a campaign re-runs the same
// workload many times, each run with a fresh seed (new random cache
// placements, new arbitration randomness), and folds every run's metric
// record (metrics/probes.hpp) into one Aggregator.
//
// One entry point covers the paper's three protocols:
//
//   CampaignSpec spec;
//   spec.protocol    = CampaignSpec::Protocol::kMaxContention;
//   spec.config      = PlatformConfig::paper_wcet(BusSetup::kCba);
//   spec.tua_factory = [] { return workloads::make_eembc("matrix"); };
//   CampaignResult r = run_campaign(spec);
//   r.exec_time().mean();                       // TuA timing digest
//   r.aggregate.element_stats("fair.jain_occupancy").mean();
//
// Every campaign -- one through run_campaign, a whole sweep through
// run_campaigns (exp::run_experiment) -- executes on the same slice
// scheduler: contiguous lockstep slices of `batch` runs, spread over a
// worker pool, folded in run order (raw series) or as exactly mergeable
// digests (streaming).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cpu/op_stream.hpp"
#include "metrics/aggregator.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "stats/summary.hpp"

namespace cbus::platform {

/// A fully-described measurement campaign: protocol, platform, workloads
/// and repetition plan.
///
/// Workloads are stream factories: every run builds its own stream
/// instances and resets them with seeds derived from base_seed by run
/// index, so any slice of runs can execute anywhere -- `batch` replicas
/// advance together under one sim::BatchKernel, and slices spread over
/// `threads` workers. OpStream::reset must fully restart a stream; under
/// that contract every (batch, threads) combination produces
/// bit-identical per-run records from the same base_seed.
struct CampaignSpec {
  /// The paper's measurement protocols.
  enum class Protocol : std::uint8_t {
    kIsolation,      ///< TuA alone, operation mode (ISO columns)
    kMaxContention,  ///< Table-I virtual contenders; requires WCET mode
    kCorun,          ///< real co-running workloads on masters 1..k
  };

  /// Builds one fresh workload stream per call.
  using StreamFactory = std::function<std::unique_ptr<cpu::OpStream>()>;

  Protocol protocol = Protocol::kMaxContention;
  PlatformConfig config;

  StreamFactory tua_factory;                      ///< required
  std::vector<StreamFactory> corunner_factories;  ///< kCorun only

  std::uint64_t base_seed = 0xC0FFEE;
  std::uint32_t runs = 100;
  Cycle max_cycles = 50'000'000;

  /// Replicas advanced in lockstep per slice (1 = one machine at a time).
  std::uint32_t batch = 1;
  /// Worker threads across slices (0 = hardware concurrency); never more
  /// than there are slices to run.
  std::uint32_t threads = 1;

  /// Keep every run's raw sample series on the aggregate (O(runs)
  /// memory) -- required by CampaignResult::samples(), per-run CSV rows
  /// and MBPTA fit inputs. The default streams exactly-mergeable digests
  /// at memory independent of the run count.
  bool retain_raw = false;

  /// Observability hook: called once per run with the run's global index
  /// and its fully-built (but not yet started) machine, before the run
  /// executes -- obs::Timeline::attach plugs in here. The hook must not
  /// mutate simulation state (observers only); instrumented runs are
  /// bit-identical to bare ones. Because the hook may register extra
  /// kernel components on some machines, instrumented slices run their
  /// lanes in single-lane batches (lockstep lanes must be exact
  /// replicas) -- same bytes, minus the batching speedup. Null = not
  /// instrumented (the default, and the only mode campaign goldens are
  /// recorded in).
  std::function<void(std::uint32_t run, Multicore& machine)> instrument;
};

/// One run's outcome in slice order; `record` is meaningful only for
/// finished runs (unfinished ones are counted, not folded).
struct RunOutcome {
  bool finished = false;
  metrics::Record record;
};

/// Per-campaign result: every finished run's record folded into one
/// aggregator, with convenience views for the ubiquitous quantities.
struct CampaignResult {
  metrics::Aggregator aggregate;
  std::uint32_t unfinished_runs = 0;

  /// TuA execution-time digest (the `tua.cycles` key; empty stats when no
  /// run finished).
  [[nodiscard]] stats::OnlineStats exec_time() const;

  /// Raw per-run TuA times in run order (the MBPTA input). Empty unless
  /// the campaign ran with CampaignSpec::retain_raw.
  [[nodiscard]] const std::vector<double>& samples() const;

  /// Bus busy-fraction digest (the `bus.utilization` key).
  [[nodiscard]] stats::OnlineStats bus_utilization() const;

  /// Total CBA underflow clamps across finished runs.
  [[nodiscard]] std::uint64_t credit_underflows() const;

  /// Per-key summary statistics (metrics::Aggregator::summarize).
  [[nodiscard]] metrics::Record summary(
      std::span<const double> percentiles = {}) const {
    return aggregate.summarize(percentiles);
  }
};

/// Run the campaign `spec` describes: run_campaigns over this one
/// campaign, rethrowing the lowest failed slice's exception.
/// Preconditions: tua_factory is set, runs >= 1, corunner_factories only
/// with kCorun, WCET mode with kMaxContention (kIsolation forces
/// operation mode itself).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec);

/// Run the contiguous slice of runs [first_run, first_run +
/// outcomes.size()) as ONE lockstep batch, writing each run's outcome in
/// order. This is the scheduler's unit of work; folding outcomes in run
/// order yields the one-run-at-a-time aggregate bit-identically.
void run_campaign_slice(const CampaignSpec& spec, std::uint32_t first_run,
                        std::span<RunOutcome> outcomes);

/// One entry of a SlicePlan: runs [first_run, first_run + run_count) of
/// campaign `campaign`, executed as one lockstep batch.
struct Slice {
  std::size_t campaign = 0;
  std::uint32_t first_run = 0;
  std::uint32_t run_count = 0;
};

/// The job-major slice plan over `campaigns` campaigns of `runs` runs
/// each, cut into `batch`-run slices (the last one per campaign may be
/// shorter). A pure function of the slice index, so no O(#slices) state
/// is ever materialized -- peak memory stays independent of the run
/// count. Checkpoints number their slices by this plan.
struct SlicePlan {
  std::size_t campaigns = 0;
  std::uint32_t runs = 0;
  std::uint32_t batch = 1;

  [[nodiscard]] std::uint32_t per_campaign() const noexcept {
    return (runs + batch - 1) / batch;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return campaigns * per_campaign();
  }
  [[nodiscard]] Slice operator[](std::size_t s) const noexcept;
};

/// A finished (not failed) slice, as reported to SliceHooks::on_slice.
struct SliceReport {
  std::size_t index = 0;     ///< global slice index in the SlicePlan
  Slice slice;
  std::uint32_t worker = 0;  ///< pool worker that ran it, < threads
  double wall_ms = 0.0;      ///< time to run and fold the slice
  /// The slice's own streaming digest and unfinished count, already
  /// merged into its campaign's total, so the hook may move from it;
  /// null for campaigns that retain raw series (those fold in run order
  /// at the end).
  CampaignResult* digest = nullptr;
};

/// What a caller of run_campaigns plugs into the scheduler. Every hook
/// is optional.
struct SliceHooks {
  /// Slices to leave out (already checkpointed, another shard's). Called
  /// concurrently from the workers, so it must only read.
  std::function<bool(std::size_t slice)> skip;
  /// Called once before any slice runs: the pool size and the slices and
  /// runs left after skipping.
  std::function<void(std::uint32_t threads, std::size_t slices,
                     std::uint64_t runs)>
      on_start;
  /// Called once per finished slice, serialized under the fold lock. An
  /// exception thrown here fails the slice.
  std::function<void(const SliceReport&)> on_slice;
};

/// One campaign's outcome under run_campaigns.
struct CampaignRun {
  /// Every executed (non-skipped) run folded. Meaningless when `error`
  /// is set.
  CampaignResult result;
  /// The exception of the campaign's lowest-indexed failed slice --
  /// independent of thread count and completion order. Null on success.
  std::exception_ptr error;
};

/// The one campaign slice scheduler. Runs every slice of the job-major
/// plan over `campaigns` (which must share runs, batch and threads)
/// except those hooks.skip names, on a pool of `threads` workers (0 =
/// hardware) clamped to the pending slices. Streaming campaigns fold
/// each slice into a digest merged as it finishes -- exact mergeability
/// makes the completion order irrelevant; raw campaigns write per-run
/// outcome slots folded in run order after the pool. A failed slice
/// fails only its own campaign (CampaignRun::error); the others
/// complete.
[[nodiscard]] std::vector<CampaignRun> run_campaigns(
    std::span<const CampaignSpec> campaigns, const SliceHooks& hooks = {});

/// Per-run seed derivation (public so tests can reproduce single runs).
[[nodiscard]] std::uint64_t run_seed(std::uint64_t base_seed,
                                     std::uint32_t run_index);

/// Slowdown of `x` relative to a baseline campaign mean.
[[nodiscard]] double slowdown(const CampaignResult& x,
                              const CampaignResult& baseline);

}  // namespace cbus::platform
