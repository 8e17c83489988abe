// Declarative experiment files: whole measurement campaigns -- which
// workloads on which cores, which bus setups, what to sweep, how many
// runs, where the results go -- as plain text instead of C++.
//
// The format is the platform config-file dialect (`key = value`, `#`
// comments) extended with experiment-level keys, per-core workload
// assignments and sweep axes:
//
//   # Figure-1-style contention study, all kernels x all setups
//   name     = paper-con
//   scenario = con                  # iso | con | stream | corun
//   sweep kernel = cacheb canrdr matrix tblook
//   sweep setup  = rp cba hcba
//   cores    = 4                    # any platform config key works here
//   runs     = 50                   # campaign size per sweep point
//   batch    = 8                    # runs per work slice
//   seed     = 0xC0FFEE             # experiment master seed
//   csv      = results.csv          # per-run rows ("-" = stdout)
//   json     = results.json         # structured summary ("-" = stdout)
//   pwcet    = on                   # per-job MBPTA columns
//   metrics  = fair.jain_occupancy,bus.occupancy_share   # or `all`
//
// Per-core workload assignments drive the `corun` scenario (core 0 is
// always the task under analysis):
//
//   scenario = corun
//   kernel   = matrix               # the TuA (alias: core0 = matrix)
//   core1    = stream               # saturating streaming reader
//   core2    = stream:4             # streaming with a 4-cycle gap
//   core3    = tblook               # a real co-running kernel
//
// Every platform key (`cores`, `arbiter`, `setup`, `mode`, `bus`, `dram`,
// `l1_bytes`, `l2_bytes`, `store_buffer`, `maxl`, `tdma_slot`) is
// forwarded to platform::parse_config, so the experiment layer never
// duplicates platform semantics. `sweep <key> = v1 v2 ...` turns any
// platform key -- plus `kernel` and `scenario` -- into an axis; the job
// list is the cartesian product of all axes (declaration order, last
// axis fastest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cbus::exp {

/// One sweep axis: a sweepable key and its values in declaration order.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A per-core workload assignment, parsed from e.g. "stream:4".
struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kKernel,  ///< EEMBC-like kernel by name
    kStream,  ///< StreamingStream with a configurable gap
    kIdle,    ///< core stays idle
    kPhased,  ///< PhaseShiftedStream square-wave load (ctrl stressor)
  };
  Kind kind = Kind::kIdle;
  std::string kernel;      ///< kKernel only
  std::uint32_t gap = 0;   ///< kStream: inter-op gap; kPhased: quiet gap
  // kPhased only (see workloads::PhaseShiftedStream):
  std::uint64_t period = 512;  ///< ops per active/quiet half-wave
  std::uint64_t offset = 0;    ///< wave shift in ops (per-core stagger)

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Parse "matrix" / "stream" / "stream:4" / "idle" /
/// "phased[:period[:offset[:gap]]]"; throws on junk.
[[nodiscard]] WorkloadSpec parse_workload(const std::string& text);

/// Parse a `metrics` selection: `all` (the whole probe catalog, in
/// catalog order) or a comma- and/or whitespace-separated list of
/// catalog keys, each optionally addressing one vector element
/// (`bus.occupancy_share[2]`). Throws std::invalid_argument on unknown
/// keys, malformed references, or an element index on a scalar key.
[[nodiscard]] std::vector<std::string> parse_metric_selection(
    const std::string& value);

/// Space-joined names of every known kernel, for error messages.
[[nodiscard]] std::string known_kernel_list();

/// The measurement protocols an experiment can request per job.
enum class Scenario : std::uint8_t {
  kIsolation,      ///< TuA alone (ISO columns)
  kMaxContention,  ///< WCET-estimation protocol (CON columns)
  kStream,         ///< legacy: 3 saturating streaming co-runners
  kCorun,          ///< per-core workload assignments from the file
};

[[nodiscard]] std::string_view to_string(Scenario scenario) noexcept;

/// Parse "iso" / "con" / "stream" / "corun"; throws on junk.
[[nodiscard]] Scenario parse_scenario(const std::string& text);

/// Every scenario, in declaration order -- the single source for CLI
/// listings (`cbus_sim --list scenarios`).
[[nodiscard]] std::span<const Scenario> all_scenarios() noexcept;

/// Everything a parsed experiment file declares.
struct ExperimentSpec {
  std::string name = "experiment";

  /// Raw platform-config text layered UNDER `platform_keys` (e.g. an
  /// external `--config` file); may be empty.
  std::string platform_text;
  /// Platform keys from the experiment file, in order, last write wins.
  std::vector<std::pair<std::string, std::string>> platform_keys;

  std::string kernel = "matrix";    ///< the task under analysis
  std::string scenario = "con";     ///< kept as text so it can be swept
  /// Co-runner assignments for `corun`: core index (>= 1) -> workload.
  /// Unassigned cores below the highest index idle.
  std::map<std::uint32_t, WorkloadSpec> corunners;

  std::vector<SweepAxis> sweeps;

  std::uint32_t runs = 20;          ///< campaign size per job
  std::uint64_t seed = 0xC0FFEE;    ///< master seed (per-job seeds derive)
  Cycle max_cycles = 50'000'000;    ///< per-run cycle budget
  bool pwcet = false;               ///< per-job MBPTA analysis
  /// Runs per work slice (`batch = <n>`): the checkpoint and shard unit.
  /// Output is byte-identical for every value; a slice runs one machine
  /// at a time, and slices of one big job run on worker threads in
  /// parallel (slices from all sweep jobs share one pool).
  std::uint32_t batch = 1;

  /// `retain = raw` (the default) keeps every job's per-run sample
  /// series: required by per-run CSV rows and the `pwcet` analysis.
  /// `retain = stream` folds exactly-mergeable digests instead, at
  /// memory independent of `runs` -- the mode for million-run campaigns
  /// -- and is required for checkpointing and sharding.
  bool retain_raw = true;

  /// Slice-granularity checkpoint file (`checkpoint = PATH`): finished
  /// slices are appended as they complete, and a rerun of the same spec
  /// skips them (see docs/CAMPAIGNS.md). Requires `retain = stream`.
  std::string checkpoint_path;

  /// Metric selections from the `metrics` directive, in declaration
  /// order: catalog keys (`fair.jain_occupancy`), optionally one vector
  /// element (`bus.occupancy_share[2]`). Empty = no metric columns.
  std::vector<std::string> metrics;

  std::string csv_path;             ///< per-run CSV; "-" = stdout
  std::string json_path;            ///< JSON document; "-" = stdout
  bool summary = true;              ///< human-readable summary on stdout
  std::uint32_t threads = 0;        ///< worker threads; 0 = hardware

  // --- observability (docs/OBSERVABILITY.md) ----------------------------
  // None of these keys enters the spec hash or perturbs simulation: with
  // all of them off/empty, outputs are byte-identical to a spec that
  // never mentions them.
  std::string trace_path;           ///< Chrome trace JSON (`trace = PATH`)
  /// Which run of job 0 the trace captures (`trace_run = <k>`).
  std::uint32_t trace_run = 0;
  /// Cycle window the trace captures (`trace_window = a:b`).
  Cycle trace_window_begin = 0;
  Cycle trace_window_end = std::numeric_limits<Cycle>::max();
  std::string telemetry_path;       ///< telemetry JSON (`telemetry = PATH`)
  bool progress = false;            ///< throttled stderr progress line

  /// Set or replace a platform key (keeps declaration order stable).
  void set_platform_key(const std::string& key, const std::string& value);
};

/// Cross-key validation: `retain = stream` forbids per-run CSV rows and
/// `pwcet` (both need the raw series), and `checkpoint` requires
/// `retain = stream`. Runs at parse time and again after CLI overrides
/// layer on top. Throws std::invalid_argument.
void validate_spec(const ExperimentSpec& spec);

/// Parse an experiment stream. Throws std::invalid_argument with the
/// offending line number on malformed input or unknown keys.
[[nodiscard]] ExperimentSpec parse_experiment(std::istream& in);

/// Parse an experiment file by path.
[[nodiscard]] ExperimentSpec load_experiment(const std::string& path);

}  // namespace cbus::exp
