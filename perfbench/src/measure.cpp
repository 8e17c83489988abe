// Untraced end-to-end measurement: the experiment as cbus_sim runs it,
// repeated until the window closes. Every repeat gets a fresh output
// directory (and checkpoint file), so no repeat can resume or overwrite
// another's work.
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "exp/sinks.hpp"

namespace perfbench {

namespace exp = cbus::exp;

namespace {

/// One `load_experiment -> validate_spec -> expand`.
void set_up(const std::string& path) {
  const exp::ExperimentSpec spec = exp::load_experiment(path);
  exp::validate_spec(spec);
  if (exp::expand(spec).empty()) {
    throw std::runtime_error("spec expands to no jobs");
  }
}

/// Appends `rounds` set-up times, sampled before every pass so the median
/// sees the same host conditions as the passes around it. A sample is
/// the mean over every allowed CPU of one set-up timed on that CPU (after
/// an untimed one that warms its caches): each vCPU drifts on its own, so
/// a sample taken on whichever vCPU the thread sits on swings with it.
void time_setup(const std::string& path, int rounds, std::vector<double>& out) {
  const pthread_t self = pthread_self();
  cpu_set_t original;
  std::vector<int> cpus;
  if (pthread_getaffinity_np(self, sizeof original, &original) == 0) {
    cpus = cpus_in(original);
  }
  for (int r = 0; r < rounds; ++r) {
    double sum = 0.0;
    for (const int cpu : cpus) {
      pin_thread(self, cpu);
      set_up(path);
      const auto t0 = Clock::now();
      set_up(path);
      sum += seconds_since(t0);
    }
    if (cpus.empty()) {
      const auto t0 = Clock::now();
      set_up(path);
      sum = seconds_since(t0);
    }
    out.push_back(cpus.empty() ? sum : sum / static_cast<double>(cpus.size()));
  }
  if (!cpus.empty()) pthread_setaffinity_np(self, sizeof original, &original);
}

/// The host-speed probe's fixed work, which no simulator change touches:
/// random read-modify-writes over a 16 MiB table (L2 misses, L3 hits),
/// then an opcode-dispatch loop (unpredictable branches).
std::uint64_t probe_load() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::size_t kWords = std::size_t{1} << 22;
  std::vector<std::uint32_t> table(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  std::uint32_t prev = 0;
  for (int i = 0; i < 600000; ++i) {
    std::uint32_t& word = table[(next() ^ prev) & (kWords - 1)];
    prev = word;
    word += static_cast<std::uint32_t>(x);
  }

  std::vector<std::uint8_t> ops(std::size_t{1} << 16);
  for (std::uint8_t& op : ops) op = static_cast<std::uint8_t>(next() % 8);
  std::uint64_t r[4] = {prev, 2, 3, 4};
  for (std::uint64_t rep = 0; rep < 100; ++rep) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      switch (ops[i]) {
        case 0: r[0] += r[1]; break;
        case 1: r[1] ^= r[2] + i; break;
        case 2: r[2] = r[2] * 3 + rep; break;
        case 3: r[3] -= r[0]; break;
        case 4: if (r[0] & 1) ++r[1]; break;
        case 5: r[2] >>= 1; break;
        case 6: if (r[2] > r[3]) --r[0]; break;
        default: r[3] ^= r[3] << 3; break;
      }
    }
  }
  return r[0] + r[1] + r[2] + r[3];
}

std::atomic<std::uint64_t> probe_sink{0};  // keeps the probe's work live

/// Wall seconds of one probe_load on a thread that rotates over all CPUs,
/// as single-threaded passes do: the speed of the average vCPU, which is
/// also what a pass spread over every vCPU sees. The probe runs in a child
/// process, so its table stays out of this process's peak RSS; call it
/// only while this process runs no other thread.
double probe_host() {
  const auto t0 = Clock::now();
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("host probe: fork failed");
  if (child == 0) {
    try {
      const CpuRotation rotation;
      probe_sink += probe_load();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("host probe failed");
  }
  return seconds_since(t0);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

UntracedPass untraced_pass(const Options& opt, const fs::path& dir,
                           std::uint32_t threads_override) {
  make_fresh_dir(dir);
  exp::RunOptions run_options;
  run_options.threads_override = threads_override;
  if (opt.checkpoint) {
    run_options.checkpoint_path = (dir / "slices.ckpt").string();
  }

  UntracedPass pass;
  std::optional<CpuRotation> rotation;
  if (threads_override == 1 ||
      exp::load_experiment(opt.spec_path).threads == 1) {
    rotation.emplace();
  }
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const exp::ExperimentSpec spec =
      with_output_dir(exp::load_experiment(opt.spec_path), dir);
  exp::validate_spec(spec);
  const auto run0 = Clock::now();
  const exp::ExperimentResult result = exp::run_experiment(spec, run_options);
  pass.run_s = seconds_since(run0);
  std::ostringstream out;
  exp::emit_outputs(spec, result.jobs, out);

  // The checkpointed workload's second half: a resume pass over the file
  // the first pass wrote, which must skip every slice and emit the same
  // bytes.
  std::optional<exp::ExperimentResult> resumed;
  std::ostringstream resumed_out;
  const exp::ExperimentSpec resume_spec = with_output_dir(spec, dir / "resume");
  if (opt.checkpoint) {
    make_fresh_dir(dir / "resume");
    resumed = exp::run_experiment(resume_spec, run_options);
    exp::emit_outputs(resume_spec, resumed->jobs, resumed_out);
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = process_cpu_seconds() - cpu0;
  rotation.reset();

  const SinkBytes sinks = read_sinks(spec, out.str());
  pass.sink_digest = sinks.digest();
  pass.records_digest = records_digest(result.jobs);
  pass.lane_cycles = lane_cycles(result.jobs);
  pass.attempted = static_cast<std::uint64_t>(spec.runs) * result.jobs.size();
  pass.failed = failed_runs(result.jobs, spec.runs);
  pass.slices = result.telemetry.slices_done;
  const std::uint32_t batch = std::max(1u, spec.batch);
  const std::uint64_t planned =
      result.jobs.size() * ((spec.runs + batch - 1) / batch);
  if (pass.slices != planned) {
    // A first pass that skipped slices read a leftover checkpoint: its
    // timing would be a fake speed-up, so fail the run instead.
    throw std::runtime_error("first pass ran " + std::to_string(pass.slices) +
                             " of " + std::to_string(planned) + " slices");
  }
  if (resumed.has_value()) {
    pass.resume_identical =
        resumed->telemetry.slices_done == 0 &&
        read_sinks(resume_spec, resumed_out.str()) == sinks &&
        records_digest(resumed->jobs) == pass.records_digest;
  }
  fs::remove_all(dir);
  return pass;
}

int run_measure(const Options& opt) {
  // Pass 0 warms caches and the allocator; it is checked but not timed.
  // Every timed pass is preceded by set-up samples and one host probe.
  std::vector<double> setup;
  std::vector<double> probe;
  std::vector<UntracedPass> passes;
  const auto start = Clock::now();
  while (passes.size() < 1 + opt.min_passes ||
         seconds_since(start) < opt.seconds) {
    if (!passes.empty()) {
      time_setup(opt.spec_path, 6, setup);
      probe.push_back(probe_host());
    }
    const fs::path dir = opt.workdir / ("pass" + std::to_string(passes.size()));
    passes.push_back(untraced_pass(opt, dir, 0));
  }
  const long rss_kb = peak_rss_kb();

  std::vector<double> wall, run, cpu;
  bool identical = true;
  bool resume_identical = true;
  std::uint64_t failed = 0;
  const UntracedPass& first = passes.front();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const UntracedPass& p = passes[i];
    identical = identical && p.sink_digest == first.sink_digest &&
                p.records_digest == first.records_digest &&
                p.lane_cycles == first.lane_cycles;
    resume_identical = resume_identical && p.resume_identical;
    failed = std::max(failed, p.failed);
    if (i == 0) continue;
    wall.push_back(p.wall_s);
    run.push_back(p.run_s);
    cpu.push_back(p.cpu_s);
  }

  JsonLine line(std::cout);
  line.str("mode", "measure")
      .list("setup_s", setup)
      .list("wall_s", wall)
      .list("run_s", run)
      .list("cpu_s", cpu)
      .list("probe_s", probe)
      .num("lane_cycles", first.lane_cycles)
      .num("attempted_runs", first.attempted)
      .num("failed_runs", failed)
      .num("slices", first.slices)
      .num("peak_rss_kb", static_cast<std::uint64_t>(rss_kb))
      .str("sink_digest", first.sink_digest)
      .str("records_digest", first.records_digest)
      .boolean("repeats_identical", identical)
      .boolean("resume_identical", resume_identical);
  write_build_info(line);
  line.end();
  return 0;
}

}  // namespace perfbench
