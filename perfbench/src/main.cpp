// cbus_perfbench: the in-process half of the repository benchmark.
//
//   cbus_perfbench measure --spec FILE --workdir DIR --seconds S [--checkpoint]
//                          [--min-passes N]
//   cbus_perfbench replay  --spec FILE --workdir DIR --seconds S [--checkpoint]
//                          [--min-passes N] [--once]
//   cbus_perfbench build-info
//
// `measure` drives the experiment through the calls cbus_sim makes
// (load_experiment -> validate_spec -> run_experiment -> emit_outputs),
// untraced, repeating it for S seconds. `replay` re-executes the same
// jobs single-threaded from the layers' public parts with timing shims
// around every kernel component, alternating with an untraced
// single-threaded run for the overhead ratio. Each mode prints one JSON
// line; perfbench/run.py turns those into the benchmark's metrics.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: cbus_perfbench measure|replay --spec FILE --workdir "
               "DIR --seconds S [--checkpoint] [--min-passes N] [--once]\n"
               "       cbus_perfbench build-info\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  if (argc < 2) usage();
  perfbench::Options opt;
  opt.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--spec") {
      opt.spec_path = value();
    } else if (arg == "--workdir") {
      opt.workdir = value();
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--min-passes") {
      opt.min_passes = std::stoul(value());
    } else if (arg == "--checkpoint") {
      opt.checkpoint = true;
    } else if (arg == "--once") {
      opt.once = true;
    } else {
      usage();
    }
  }
  if (opt.mode != "build-info" &&
      (opt.spec_path.empty() || opt.workdir.empty())) {
    usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  try {
    if (opt.mode == "measure") return perfbench::run_measure(opt);
    if (opt.mode == "replay") return perfbench::run_replay(opt);
    if (opt.mode == "build-info") {
      perfbench::JsonLine line(std::cout);
      perfbench::write_build_info(line);
      line.end();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "cbus_perfbench: " << e.what() << "\n";
    return 1;
  }
  usage();
}
