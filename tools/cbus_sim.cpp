// cbus_sim: command-line driver for the platform simulator.
//
// Two ways in, one engine: `--experiment FILE` runs a declarative
// experiment file (sweeps, per-core workloads, CSV/JSON sinks -- see
// docs/EXPERIMENTS.md), while the classic flags describe a single
// campaign. Both paths route through the src/exp/ subsystem, so a flag
// invocation is exactly a one-job experiment.
//
// Usage:
//   cbus_sim --experiment FILE [--threads N] [--batch N] [--seed S]
//            [--pwcet] [--csv] [--metrics LIST]
//   cbus_sim [--kernel NAME] [--setup rp|cba|hcba]
//            [--scenario iso|con|stream] [--arbiter KIND]
//            [--controller static|adaptive:<w>] [--runs N] [--seed S]
//            [--cores N] [--pwcet] [--csv] [--metrics LIST]
//   cbus_sim --list kernels|setups|arbiters|controllers|scenarios|
//            topologies|metrics
//
// Examples:
//   cbus_sim --experiment examples/experiments/paper_con.exp --threads 4
//   cbus_sim --kernel matrix --setup cba --scenario con --runs 100 --pwcet
//   cbus_sim --kernel tblook --setup rp --scenario iso --csv
//   cbus_sim --list metrics
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bus/arbiter_factory.hpp"
#include "bus/topology.hpp"
#include "common/build_info.hpp"
#include "ctrl/controller.hpp"
#include "exp/experiment.hpp"
#include "metrics/probes.hpp"
#include "obs/telemetry.hpp"
#include "platform/config_file.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "workloads/eembc_like.hpp"

namespace {

using namespace cbus;

struct Options {
  std::string experiment_path;  // declarative experiment file
  std::string config_path;      // platform config file (base layer)
  std::optional<std::string> kernel;
  std::optional<std::string> setup;
  std::optional<std::string> scenario;
  std::optional<std::string> arbiter;
  std::optional<std::string> controller;
  std::optional<std::uint32_t> runs;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint32_t> cores;
  std::optional<std::uint32_t> threads;
  std::optional<std::uint32_t> batch;
  std::optional<std::string> metrics;
  std::optional<bool> retain_raw;       // --retain raw|stream
  std::string checkpoint_path;          // --checkpoint PATH
  std::uint32_t shard_index = 0;        // --shard i/N
  std::uint32_t shard_count = 1;
  std::string trace_path;               // --trace PATH
  std::optional<std::uint32_t> trace_run;
  std::string trace_window;             // --trace-window A:B
  std::string telemetry_path;           // --telemetry PATH
  bool progress = false;
  bool pwcet = false;
  bool csv = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "cbus_sim -- CBA bus platform simulator\n"
      "  --experiment FILE experiment file: sweeps, per-core workloads,\n"
      "                    CSV/JSON outputs (see docs/EXPERIMENTS.md);\n"
      "                    other flags act as overrides\n"
      "  --threads N       worker threads for experiment work slices [hardware]\n"
      "  --batch N         runs per work slice (the checkpoint and shard\n"
      "                    unit); output is byte-identical for any value [1]\n"
      "  --config FILE     platform config file layered under the other\n"
      "                    flags (see src/platform/config_file.hpp)\n"
      "  --kernel NAME     EEMBC-like kernel (cacheb canrdr matrix tblook\n"
      "                    a2time rspeed puwmod ttsprk)     [matrix]\n"
      "  --setup S         rp | cba | hcba                  [cba]\n"
      "  --scenario S      iso (isolation) | con (max contention, WCET\n"
      "                    protocol) | stream (3 streaming co-runners)\n"
      "                                                     [con]\n"
      "  --arbiter A       rr|fifo|priority|lottery|rp|tdma|drr|da [rp]\n"
      "  --controller C    static | adaptive:<window>[:<gain>] -- credit\n"
      "                    controller over the CBA Table-I increments\n"
      "                    (see docs/CONTROLLERS.md)          [static]\n"
      "  --runs N          randomized runs per job          [20]\n"
      "  --seed S          campaign seed                    [0xC0FFEE]\n"
      "  --cores N         core count (CBA rescaled)        [4]\n"
      "  --pwcet           run the MBPTA analysis on the samples\n"
      "  --csv             per-run CSV on stdout\n"
      "  --retain MODE     raw (keep per-run series; default) | stream\n"
      "                    (constant-memory exact digests; required for\n"
      "                    --checkpoint/--shard; forbids --csv/--pwcet)\n"
      "  --checkpoint FILE slice checkpoint: finished slices are appended\n"
      "                    and a rerun of the same spec+seed skips them\n"
      "                    (see docs/CAMPAIGNS.md)\n"
      "  --shard I/N       run only this process's share of the work\n"
      "                    slices (s mod N == I) into its --checkpoint\n"
      "                    file; fold the N files with cbus_merge\n"
      "  --metrics LIST    metric keys for the CSV/JSON outputs\n"
      "                    (comma-separated, or `all`); the experiment\n"
      "                    `metrics` directive spelled as a flag\n"
      "  --trace FILE      cycle-accurate Chrome/Perfetto trace of one run\n"
      "                    (request->grant->transfer spans, credit and\n"
      "                    bridge-queue counters; see docs/OBSERVABILITY.md)\n"
      "  --trace-run K     which run the trace captures            [0]\n"
      "  --trace-window A:B  only record bus cycles in [A, B)\n"
      "  --progress        throttled progress line on stderr (stdout and\n"
      "                    all output files stay byte-identical)\n"
      "  --telemetry FILE  machine-readable run telemetry (runs/sec, ETA,\n"
      "                    per-thread busy fraction, slice times, peak RSS)\n"
      "  --version         print build provenance and exit\n"
      "  --list WHAT       print known values and exit:\n"
      "                    kernels | setups | arbiters | controllers |\n"
      "                    scenarios | topologies | metrics\n";
  std::exit(code);
}

/// `--list WHAT`: the discoverable companion to every exit-2 "unknown
/// value" error. One value per line so shell loops can consume it.
[[noreturn]] void list_values(const std::string& what) {
  if (what == "kernels") {
    for (const auto kernel : cbus::workloads::all_kernels()) {
      std::cout << kernel << "\n";
    }
  } else if (what == "setups") {
    for (const auto name : cbus::platform::setup_names()) {
      std::cout << name << "\n";
    }
  } else if (what == "arbiters") {
    for (const auto kind : cbus::bus::all_arbiter_kinds()) {
      std::cout << cbus::bus::short_name(kind) << "\n";
    }
  } else if (what == "controllers") {
    for (const auto kind : cbus::ctrl::all_controller_kinds()) {
      std::cout << cbus::ctrl::short_name(kind) << "\n";
    }
  } else if (what == "scenarios") {
    for (const auto scenario : cbus::exp::all_scenarios()) {
      std::cout << cbus::exp::to_string(scenario) << "\n";
    }
  } else if (what == "topologies") {
    for (const auto& form : cbus::bus::topology_forms()) {
      std::cout << std::left << std::setw(26) << form.name << ' '
                << form.description << "\n";
    }
  } else if (what == "metrics") {
    for (const auto& info : cbus::metrics::metric_catalog()) {
      std::ostringstream key;
      key << info.key;
      if (info.per_master) key << "[i]";
      std::cout << std::left << std::setw(26) << key.str() << ' '
                << info.description << "\n";
    }
  } else {
    std::cerr << "cbus_sim: unknown --list topic '" << what
              << "' (kernels|setups|arbiters|controllers|scenarios|"
                 "topologies|metrics)\n";
    std::exit(2);
  }
  std::exit(0);
}

/// One-line fatal error on stderr; scripted sweeps fail loudly instead of
/// scrolling a usage dump.
[[noreturn]] void die(const std::string& message) {
  std::cerr << "cbus_sim: " << message << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--experiment") {
        opt.experiment_path = value();
      } else if (arg == "--config") {
        opt.config_path = value();
      } else if (arg == "--kernel") {
        opt.kernel = value();
      } else if (arg == "--setup") {
        opt.setup = value();
      } else if (arg == "--scenario") {
        opt.scenario = value();
      } else if (arg == "--arbiter") {
        opt.arbiter = value();
      } else if (arg == "--controller") {
        opt.controller = value();
      } else if (arg == "--runs") {
        opt.runs = platform::parse_config_u32(value(), arg, 0);
      } else if (arg == "--seed") {
        opt.seed = platform::parse_config_uint(value(), arg, 0);
      } else if (arg == "--cores") {
        opt.cores = platform::parse_config_u32(value(), arg, 0);
      } else if (arg == "--threads") {
        opt.threads = platform::parse_config_u32(value(), arg, 0);
      } else if (arg == "--batch") {
        opt.batch = platform::parse_config_u32(value(), arg, 0);
        if (*opt.batch == 0) die("--batch must be positive");
      } else if (arg == "--metrics") {
        opt.metrics = value();
      } else if (arg == "--retain") {
        const std::string mode = value();
        if (mode == "raw") {
          opt.retain_raw = true;
        } else if (mode == "stream") {
          opt.retain_raw = false;
        } else {
          die("--retain wants raw or stream, got '" + mode + "'");
        }
      } else if (arg == "--checkpoint") {
        opt.checkpoint_path = value();
      } else if (arg == "--shard") {
        const std::string split = value();
        const auto slash = split.find('/');
        if (slash == std::string::npos) {
          die("--shard wants I/N (e.g. 0/3), got '" + split + "'");
        }
        opt.shard_index =
            platform::parse_config_u32(split.substr(0, slash), arg, 0);
        opt.shard_count =
            platform::parse_config_u32(split.substr(slash + 1), arg, 0);
        if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count) {
          die("--shard index must be in [0, N): got '" + split + "'");
        }
      } else if (arg == "--trace") {
        opt.trace_path = value();
      } else if (arg == "--trace-run") {
        opt.trace_run = platform::parse_config_u32(value(), arg, 0);
      } else if (arg == "--trace-window") {
        opt.trace_window = value();
      } else if (arg == "--telemetry") {
        opt.telemetry_path = value();
      } else if (arg == "--progress") {
        opt.progress = true;
      } else if (arg == "--version") {
        std::cout << common::build_info_line() << "\n";
        std::exit(0);
      } else if (arg == "--list") {
        list_values(value());
      } else if (arg == "--pwcet") {
        opt.pwcet = true;
      } else if (arg == "--csv") {
        opt.csv = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(0);
      } else {
        die("unknown option: " + arg);
      }
    } catch (const std::exception&) {
      die("bad value for " + arg);
    }
  }

  // Validate enum-like flags up front with one-line errors.
  if (opt.kernel.has_value()) {
    const auto known = workloads::all_kernels();
    if (std::find(known.begin(), known.end(), *opt.kernel) == known.end()) {
      die("unknown kernel '" + *opt.kernel +
          "' (see: cbus_sim --list kernels)");
    }
  }
  if (opt.setup.has_value() && *opt.setup != "rp" && *opt.setup != "cba" &&
      *opt.setup != "hcba") {
    die("unknown setup '" + *opt.setup + "' (see: cbus_sim --list setups)");
  }
  if (opt.arbiter.has_value()) {
    try {
      (void)bus::parse_arbiter_kind(*opt.arbiter);
    } catch (const std::exception&) {
      die("unknown arbiter '" + *opt.arbiter +
          "' (see: cbus_sim --list arbiters)");
    }
  }
  if (opt.controller.has_value()) {
    try {
      (void)ctrl::parse_controller(*opt.controller);
    } catch (const std::exception& e) {
      die("bad --controller value: " + std::string(e.what()) +
          " (see: cbus_sim --list controllers)");
    }
  }
  if (opt.scenario.has_value()) {
    try {
      (void)exp::parse_scenario(*opt.scenario);
    } catch (const std::exception&) {
      die("unknown scenario '" + *opt.scenario +
          "' (see: cbus_sim --list scenarios)");
    }
  }
  if (opt.metrics.has_value()) {
    try {
      (void)exp::parse_metric_selection(*opt.metrics);
    } catch (const std::exception&) {
      die("bad --metrics selection '" + *opt.metrics +
          "' (see: cbus_sim --list metrics)");
    }
  }
  if (opt.runs.has_value() && *opt.runs == 0) die("--runs must be positive");
  if (opt.shard_count > 1 && opt.checkpoint_path.empty()) {
    die("--shard needs --checkpoint (the shard's results live there)");
  }
  if ((opt.trace_run.has_value() || !opt.trace_window.empty()) &&
      opt.trace_path.empty()) {
    die("--trace-run/--trace-window need --trace");
  }
  return opt;
}

/// Assemble the ExperimentSpec: the experiment file (or built-in defaults)
/// with explicitly-passed flags layered on top.
exp::ExperimentSpec build_spec(const Options& opt) {
  exp::ExperimentSpec spec;
  if (!opt.experiment_path.empty()) {
    spec = exp::load_experiment(opt.experiment_path);
  } else {
    // The classic flag interface is a one-job experiment over the paper
    // platform; `--setup cba` was its historical default. The default
    // must not be injected over a --config file, whose own setup line
    // has to win unless --setup is passed explicitly (handled below).
    spec.name = "cli";
    if (opt.config_path.empty()) {
      spec.set_platform_key("setup", opt.setup.value_or("cba"));
    }
  }
  if (!opt.config_path.empty()) {
    std::ifstream in(opt.config_path);
    if (!in.good()) die("cannot open config file: " + opt.config_path);
    std::ostringstream text;
    text << in.rdbuf();
    spec.platform_text = text.str();
  }
  if (opt.kernel.has_value()) spec.kernel = *opt.kernel;
  if (opt.scenario.has_value()) spec.scenario = *opt.scenario;
  if (opt.setup.has_value()) spec.set_platform_key("setup", *opt.setup);
  if (opt.arbiter.has_value()) {
    spec.set_platform_key("arbiter", *opt.arbiter);
  }
  if (opt.controller.has_value()) {
    spec.set_platform_key("controller", *opt.controller);
  }
  if (opt.cores.has_value()) {
    spec.set_platform_key("cores", std::to_string(*opt.cores));
  }
  if (opt.runs.has_value()) spec.runs = *opt.runs;
  if (opt.seed.has_value()) spec.seed = *opt.seed;
  if (opt.threads.has_value()) spec.threads = *opt.threads;
  if (opt.batch.has_value()) spec.batch = *opt.batch;
  if (opt.metrics.has_value()) {
    spec.metrics = exp::parse_metric_selection(*opt.metrics);
  }
  if (opt.pwcet) spec.pwcet = true;
  if (opt.csv) spec.csv_path = "-";
  if (opt.retain_raw.has_value()) spec.retain_raw = *opt.retain_raw;
  if (!opt.checkpoint_path.empty()) {
    spec.checkpoint_path = opt.checkpoint_path;
  }
  if (!opt.trace_path.empty()) spec.trace_path = opt.trace_path;
  if (opt.trace_run.has_value()) spec.trace_run = *opt.trace_run;
  if (!opt.trace_window.empty()) {
    const auto colon = opt.trace_window.find(':');
    if (colon == std::string::npos) {
      die("--trace-window wants A:B (bus cycles), got '" + opt.trace_window +
          "'");
    }
    try {
      spec.trace_window_begin = platform::parse_config_uint(
          opt.trace_window.substr(0, colon), "--trace-window", 0);
      spec.trace_window_end = platform::parse_config_uint(
          opt.trace_window.substr(colon + 1), "--trace-window", 0);
    } catch (const std::exception&) {
      die("bad value for --trace-window: '" + opt.trace_window + "'");
    }
  }
  if (!opt.telemetry_path.empty()) spec.telemetry_path = opt.telemetry_path;
  if (opt.progress) spec.progress = true;
  try {
    exp::validate_spec(spec);
  } catch (const std::exception& e) {
    die(e.what());
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    const exp::ExperimentSpec spec = build_spec(opt);
    exp::RunOptions run_options;
    if (opt.threads.has_value()) {
      run_options.threads_override = *opt.threads;
    }
    run_options.shard_index = opt.shard_index;
    run_options.shard_count = opt.shard_count;
    run_options.progress = opt.progress;
    const exp::ExperimentResult result = exp::run_experiment(spec, run_options);
    if (!spec.telemetry_path.empty()) {
      std::ofstream out(spec.telemetry_path, std::ios::trunc);
      if (!out.good()) {
        die("cannot write telemetry file: " + spec.telemetry_path);
      }
      obs::write_telemetry_json(out, result.telemetry, "run");
    }
    if (opt.shard_count > 1) {
      // A shard holds only its own slices: sinks would render partial
      // campaigns. Its output is the checkpoint; cbus_merge emits.
      std::cout << "cbus_sim: shard " << opt.shard_index << "/"
                << opt.shard_count << " complete: " << spec.checkpoint_path
                << "\n";
    } else {
      exp::emit_outputs(spec, result.jobs, std::cout);
    }
    if (const std::size_t failed = result.failed_jobs(); failed != 0) {
      std::cerr << "cbus_sim: " << failed << " of " << result.jobs.size()
                << " job(s) failed\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cbus_sim: error: " << e.what() << "\n";
    return 1;
  }
}
