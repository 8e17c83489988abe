// Shared plumbing of the bench binary: command-line options, output
// capture and digests, and the one-line JSON each mode prints.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/runner.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string mode;          ///< measure | replay | build-info
  std::string spec_path;     ///< the generated experiment file
  fs::path workdir;          ///< work space for outputs and checkpoints
  double seconds = 1.0;      ///< measurement window
  bool checkpoint = false;   ///< write a slice checkpoint, then resume it
  bool once = false;         ///< replay: one traced pass, no timing loop
  std::size_t min_passes = 3;  ///< timed passes, however long they take
};

[[nodiscard]] double seconds_since(Clock::time_point start);

/// CPU seconds (user + system, all threads) this process has used.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set of this process in KiB.
[[nodiscard]] long peak_rss_kb();

/// FNV-1a, 64 bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void text(std::string_view s);
  void u64(std::uint64_t v);
  void f64(double v);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Everything emit_outputs produced: the stdout text and the CSV and JSON
/// files the spec names.
struct SinkBytes {
  std::string out;
  std::string csv;
  std::string json;

  [[nodiscard]] std::string digest() const;
  friend bool operator==(const SinkBytes&, const SinkBytes&) = default;
};

/// The spec with its CSV/JSON outputs redirected into `dir` (names kept),
/// so repeats never share or reuse an output file.
[[nodiscard]] cbus::exp::ExperimentSpec with_output_dir(
    cbus::exp::ExperimentSpec spec, const fs::path& dir);

/// Read back the files emit_outputs wrote for `spec`, next to `out`.
[[nodiscard]] SinkBytes read_sinks(const cbus::exp::ExperimentSpec& spec,
                                   std::string out);

/// Per-run records of every job, as the aggregate holds them: the raw
/// per-run series in run order (retain = raw) or the serialized digest
/// state (retain = stream), plus each job's failure and unfinished count.
[[nodiscard]] std::string records_digest(
    const std::vector<cbus::exp::JobResult>& jobs);

/// Simulated lane-cycles of the finished runs (sum of `tua.cycles`).
[[nodiscard]] double lane_cycles(const std::vector<cbus::exp::JobResult>& jobs);

/// Runs that failed: every run of a failed job plus unfinished runs.
[[nodiscard]] std::uint64_t failed_runs(
    const std::vector<cbus::exp::JobResult>& jobs, std::uint32_t runs);

/// A fresh, empty directory; throws if it already holds anything.
void make_fresh_dir(const fs::path& dir);

/// Minimal writer for the single JSON object each mode prints.
class JsonLine {
 public:
  explicit JsonLine(std::ostream& out);
  JsonLine& num(std::string_view key, double value);
  JsonLine& num(std::string_view key, std::uint64_t value);
  JsonLine& str(std::string_view key, std::string_view value);
  JsonLine& boolean(std::string_view key, bool value);
  JsonLine& list(std::string_view key, const std::vector<double>& values);
  void end();

 private:
  void key(std::string_view key);
  std::ostream& out_;
  bool first_ = true;
};

/// Build provenance fields (git hash, build type, SIMD dispatch, nproc).
void write_build_info(JsonLine& line);

/// The CPUs set in `mask`, ascending.
[[nodiscard]] std::vector<int> cpus_in(const cpu_set_t& mask);

/// Restrict `thread` to the single CPU `cpu`.
void pin_thread(pthread_t thread, int cpu);

/// Moves the calling thread round-robin over every CPU it may run on,
/// one step every 50 ms, for the object's lifetime. On a shared host
/// each vCPU's speed drifts on its own (other tenants on the physical
/// core); a single-threaded measurement left on one vCPU inherits that
/// vCPU's drift, while one that visits all of them sees their average,
/// as a multi-threaded run does. Only for single-threaded work: threads
/// spawned meanwhile would inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  pthread_t target_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread mover_;  // last: started after everything it reads
};

/// One untraced invocation: load -> validate -> run_experiment ->
/// emit_outputs (plus the resume pass for checkpointed workloads), in a
/// fresh directory that is removed afterwards.
struct UntracedPass {
  double wall_s = 0.0;       ///< the whole invocation, sinks included
  double run_s = 0.0;        ///< run_experiment of the first pass
  double cpu_s = 0.0;        ///< user + system CPU over wall_s
  double lane_cycles = 0.0;  ///< simulated cycles of the finished runs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t slices = 0;
  std::string sink_digest;
  std::string records_digest;
  bool resume_identical = true;
};

/// `threads_override` 0 keeps the spec's thread count.
[[nodiscard]] UntracedPass untraced_pass(const Options& options,
                                         const fs::path& dir,
                                         std::uint32_t threads_override);

[[nodiscard]] double median(std::vector<double> values);

int run_measure(const Options& options);
int run_replay(const Options& options);

}  // namespace perfbench
