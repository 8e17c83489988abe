// Trace capture & replay: substitute recorded memory-operation traces for
// the synthetic generators -- the integration path for real target traces.
//
// 1. Capture an op trace from a workload generator (stand-in for a trace
//    collected on real hardware) and save it as CSV.
// 2. Reload it and replay it through the platform: identical op streams
//    produce identical execution times under the same seed.
// 3. Replay it once more under the timeline tracer and dump what actually
//    happened on the bus, transaction by transaction, as a Chrome
//    trace-event JSON (open it in Perfetto or chrome://tracing).
//
// Exits non-zero if a replay does not reproduce the first one.
//
//   ./trace_replay [kernel] [ops]
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/timeline.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "trace/op_trace.hpp"
#include "workloads/eembc_like.hpp"

int main(int argc, char** argv) {
  using namespace cbus;

  const std::string kernel = argc > 1 ? argv[1] : "canrdr";
  const auto ops_to_capture =
      static_cast<std::size_t>(argc > 2 ? std::atoi(argv[2]) : 2000);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string op_path = (dir / "cbus_ops.csv").string();
  const std::string timeline_path = (dir / "cbus_timeline.json").string();

  // 1. Capture.
  auto generator = workloads::make_eembc(kernel);
  generator->reset(42);
  const auto ops = trace::capture(*generator, ops_to_capture);
  trace::save_ops(op_path, ops);
  std::cout << "captured " << ops.size() << " ops from '" << kernel
            << "' -> " << op_path << "\n";

  // 2. Reload & replay twice: determinism check.
  const auto loaded = trace::load_ops(op_path);
  const auto cfg = platform::PlatformConfig::paper(platform::BusSetup::kCba);

  auto replay_once = [&](obs::Timeline* timeline) {
    auto stream = trace::replay(loaded);
    platform::Multicore machine(cfg, 7, *stream);
    if (timeline != nullptr) timeline->attach(machine);
    return machine.run();
  };

  const Cycle t1 = replay_once(nullptr).tua_cycles;
  const Cycle t2 = replay_once(nullptr).tua_cycles;
  std::cout << "replay #1: " << t1 << " cycles, replay #2: " << t2
            << " cycles -> " << (t1 == t2 ? "deterministic" : "MISMATCH!")
            << "\n";
  if (t1 != t2) return EXIT_FAILURE;

  // 3. Replay under the timeline tracer.
  obs::Timeline timeline;
  const platform::RunResult traced = replay_once(&timeline);
  std::ofstream out(timeline_path);
  timeline.write_json(out);
  std::cout << "timeline: " << timeline.event_count() << " events -> "
            << timeline_path << "\n";
  const bus::BusStatistics::PerMaster& tua = traced.bus_stats.master[0];
  double mean_wait = 0.0;
  if (tua.grants > 0) {
    mean_wait = static_cast<double>(tua.wait_cycles) /
                static_cast<double>(tua.grants);
  }
  std::cout << "master 0 wait cycles: mean=" << mean_wait
            << " max=" << tua.max_wait << " over " << tua.grants
            << " transactions\n";

  std::cout << "\nAny trace in the same CSV format (kind,addr_hex,gap) can "
               "be dropped in place\nof the synthetic kernels -- including "
               "traces collected on real LEON3 hardware.\n";
  return 0;
}
