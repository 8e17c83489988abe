// cbus_merge: fold sharded campaign checkpoints into one experiment
// result.
//
// A sharded campaign (`cbus_sim --shard i/N --checkpoint shard_i.ckpt`)
// leaves one checkpoint file per shard, each holding that shard's share
// of the work slices as exactly-mergeable aggregator digests. This tool
// validates the set -- every header must describe the same experiment,
// shard indices must be distinct and the slice plan fully covered --
// folds the slices back into per-job results, and writes the
// experiment's configured outputs (JSON/summary), byte-identical to a
// single-process run of the same spec.
//
// The fold streams: each checkpoint is read in one pass and every slice
// digest is folded into its job's aggregate as it is decoded, so peak
// memory is O(jobs), independent of the slice count (exp::
// fold_checkpoints_streaming). Million-slice campaigns merge in constant
// space.
//
// Usage:
//   cbus_merge --experiment FILE [--config FILE] [--progress]
//              [--telemetry FILE] CKPT0 CKPT1 ... CKPTn-1
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace cbus;

[[noreturn]] void usage(int code) {
  std::cout <<
      "cbus_merge -- fold sharded campaign checkpoints into one result\n"
      "  --experiment FILE the experiment file the shards ran (must match\n"
      "                    the checkpoints' recorded spec exactly)\n"
      "  --config FILE     platform config file, as passed to cbus_sim\n"
      "  --progress        throttled fold progress line on stderr (stdout\n"
      "                    and all output files stay byte-identical)\n"
      "  --telemetry FILE  machine-readable fold telemetry (slices/sec,\n"
      "                    wall time, peak RSS)\n"
      "  CKPT...           one checkpoint file per shard, any order\n"
      "Outputs go where the experiment file says (json/summary); per-run\n"
      "csv is unavailable (shards stream digests, not raw series).\n";
  std::exit(code);
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "cbus_merge: " << message << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string experiment_path;
  std::string config_path;
  std::string telemetry_path;
  bool progress = false;
  std::vector<std::string> checkpoint_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--experiment") {
      experiment_path = value();
    } else if (arg == "--config") {
      config_path = value();
    } else if (arg == "--telemetry") {
      telemetry_path = value();
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      die("unknown option: " + arg);
    } else {
      checkpoint_paths.push_back(arg);
    }
  }
  if (experiment_path.empty()) die("--experiment is required");
  if (checkpoint_paths.empty()) {
    die("no checkpoint files given (one per shard)");
  }

  try {
    exp::ExperimentSpec spec = exp::load_experiment(experiment_path);
    if (!config_path.empty()) {
      std::ifstream in(config_path);
      if (!in.good()) die("cannot open config file: " + config_path);
      std::ostringstream text;
      text << in.rdbuf();
      spec.platform_text = text.str();
    }
    const exp::ExperimentResult result =
        exp::fold_checkpoints_streaming(spec, checkpoint_paths, progress);
    if (!telemetry_path.empty()) {
      std::ofstream out(telemetry_path, std::ios::trunc);
      if (!out.good()) die("cannot write telemetry file: " + telemetry_path);
      obs::write_telemetry_json(out, result.telemetry, "merge");
    }
    exp::emit_outputs(spec, result.jobs, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cbus_merge: error: " << e.what() << "\n";
    return 1;
  }
}
