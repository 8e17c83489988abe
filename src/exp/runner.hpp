// Experiment execution: sweep expansion into a job list, one campaign
// per job, all run on platform::run_campaigns -- the one slice scheduler,
// whose job-major plan of slices (`batch` runs each) spans every sweep
// job, so threads stay busy even for a single huge job. This layer
// adds only what experiments need on top: checkpoint resume and append,
// shard ownership, telemetry and progress, the timeline tracer and MBPTA.
//
// Determinism contract: expansion happens single-threaded and derives one
// seed per job from the experiment master seed through an rng::RandBank;
// every slice derives its runs' seeds from its job seed by run index.
// Raw-series jobs fold their runs in run order; streaming jobs merge
// exactly mergeable slice digests. So the result vector is bit-identical
// no matter how many worker threads run the slices, in which order they
// finish, what `batch` is, or how the work was sharded and resumed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/pwcet.hpp"
#include "obs/telemetry.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"

namespace cbus::exp {

/// One point of the sweep grid: a fully-resolved campaign to run.
struct Job {
  std::size_t index = 0;
  /// Axis assignments in sweep-declaration order (empty when no sweeps).
  std::vector<std::pair<std::string, std::string>> axes;
  std::string kernel;
  Scenario scenario = Scenario::kMaxContention;
  platform::PlatformConfig config;
  std::uint64_t seed = 0;  ///< campaign base seed, derived per job
};

/// What one finished (or failed) job reports to the sinks.
struct JobResult {
  std::size_t index = 0;
  std::vector<std::pair<std::string, std::string>> axes;
  std::string kernel;
  std::string scenario;
  std::uint64_t seed = 0;
  platform::CampaignResult campaign;
  std::optional<mbpta::MbptaResult> mbpta;
  /// Tail-stability diagnostics on the pWCET estimate (with `pwcet`).
  std::optional<mbpta::ConvergenceReport> convergence;
  std::string mbpta_error;  ///< analysis declined (e.g. too few samples)
  std::string error;        ///< nonempty when the job itself failed

  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

struct ExperimentResult {
  std::vector<JobResult> jobs;
  /// What the runner measured about its own execution (progress,
  /// throughput, thread utilisation, peak RSS). Always filled; the
  /// caller decides whether to render it (`telemetry = PATH`,
  /// `--telemetry`).
  obs::Telemetry telemetry;
  [[nodiscard]] std::size_t failed_jobs() const noexcept;
};

/// Expand the sweep axes into the cartesian-product job list (declaration
/// order, last axis fastest) and resolve each point's PlatformConfig.
/// Throws std::invalid_argument naming the offending sweep point when a
/// combination is invalid (e.g. `setup = hcba` with `cores = 1`).
[[nodiscard]] std::vector<Job> expand(const ExperimentSpec& spec);

/// Execution knobs run_experiment takes beyond the spec: worker threads,
/// shard ownership and the slice checkpoint. Shard i of N owns exactly
/// the global slices s with s % N == i; each shard writes its own
/// checkpoint file, and cbus_merge folds the set back together.
struct RunOptions {
  std::uint32_t threads_override = 0;  ///< nonzero beats spec.threads
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Overrides spec.checkpoint_path when nonempty. Sharded runs
  /// (shard_count > 1) must checkpoint -- the file IS the shard's
  /// output. Checkpointing requires retain = stream.
  std::string checkpoint_path;
  /// Render the throttled stderr progress line (also enabled by
  /// `progress = on` in the spec). stderr only: stdout and every output
  /// file stay byte-identical with or without it.
  bool progress = false;
};

/// Run every job this process owns. With a checkpoint: slices already in
/// the file are skipped (after validating its header against the spec)
/// and newly finished ones are appended, so a killed campaign resumes
/// where it stopped and produces byte-identical output.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const RunOptions& options);

/// Run every job. `threads_override` (when nonzero) beats spec.threads;
/// 0/0 falls back to the hardware concurrency, clamped to the pending
/// slices.
[[nodiscard]] ExperimentResult run_experiment(
    const ExperimentSpec& spec, std::uint32_t threads_override = 0);

/// Fold a shard checkpoint set (one file per shard of `spec`) into
/// per-job results, exactly as a single-process streaming run would
/// have: reads each file in one pass and folds every slice digest into
/// its job's aggregate as it is decoded, so peak live slice states stay
/// O(1) and peak live aggregators O(jobs) -- independent of the slice
/// count. Validates every header against the spec and requires exactly
/// one file per shard, every slice exactly once in its owning shard's
/// file, and full coverage of the slice plan; exact mergeability makes
/// the result bit-identical to the single-process run. `progress`
/// renders the fold's stderr progress line; result.telemetry reports the
/// fold itself.
[[nodiscard]] ExperimentResult fold_checkpoints_streaming(
    const ExperimentSpec& spec, const std::vector<std::string>& paths,
    bool progress = false);

}  // namespace cbus::exp
