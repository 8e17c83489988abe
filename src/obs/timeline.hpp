// obs::Timeline -- cycle-accurate event capture for ONE simulated run,
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// The tracer plugs into hooks that already exist and stay zero-cost when
// unused:
//  * it is the bus::BusObserver of the run's bus::Interconnect
//    (Interconnect::set_observer; the segmented interconnect reports
//    global-level events), giving per-master request -> grant ->
//    transfer spans -- the only bus recorder;
//  * it is a sim::Component registered LAST in the machine's kernel, so
//    once per cycle -- after every other component has ticked -- it
//    passively polls Table-I credit budgets (core::CreditState),
//    per-master eligibility, per-master underflow clamps and per-bridge
//    queue depths. Polling reads public state and mutates nothing, so an
//    instrumented run's simulation is bit-identical to a bare one.
//
// Rendered track layout (docs/OBSERVABILITY.md pins the schema):
//   pid 0  "bus masters"        one thread per master: "wait"/"xfer"
//                               spans, "credit.underflow" instants
//   pid 1  "credit (cycles)"    counters "credit m<i>", "eligible m<i>"
//   pid 2  "bridge queues"      counters "bridge s<a>->s<b>" (segmented)
//   pid 3  "demand"             counters "demand m<i>" (DemandWindow)
// One trace ts unit = one bus cycle (the JSON renders cycles in the
// microsecond field; read "us" as "cycles").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bus/interfaces.hpp"
#include "common/types.hpp"
#include "obs/demand_window.hpp"
#include "sim/component.hpp"

namespace cbus::core {
class CreditState;
}
namespace cbus::bus {
class SegmentedInterconnect;
}
namespace cbus::platform {
class Multicore;
}

namespace cbus::obs {

class Timeline final : public bus::BusObserver, public sim::Component {
 public:
  struct Config {
    /// Only events starting in [window_begin, window_end) are captured
    /// (`--trace-window a:b`); counters are sampled inside it only.
    Cycle window_begin = 0;
    Cycle window_end = std::numeric_limits<Cycle>::max();
    /// Counter tracks are sampled every `counter_stride` cycles (and
    /// emitted only on change), bounding trace volume for long runs.
    Cycle counter_stride = 64;
    /// Sliding window of the per-master demand probe, in cycles.
    Cycle demand_window = 4096;
  };

  Timeline();  ///< default Config
  explicit Timeline(const Config& config);

  /// Install this tracer on a fully-built machine: becomes the bus/
  /// interconnect observer and registers itself as the LAST kernel
  /// component (so a poll sees the cycle's final state). Must run before
  /// the machine executes its first cycle and at most once per Timeline.
  /// The split-transaction bus has no observer hook points; attaching to
  /// a split-protocol machine captures counter tracks only.
  void attach(platform::Multicore& machine);

  // --- bus::BusObserver ---------------------------------------------------
  void on_request(const bus::BusRequest& request, Cycle now) override;
  void on_transfer_start(const bus::BusRequest& request, Cycle start,
                         Cycle hold) override;
  void on_transfer_complete(const bus::BusRequest& request,
                            Cycle end) override;

  // --- sim::Component (the per-cycle poll) --------------------------------
  void tick(Cycle now) override;

  [[nodiscard]] bool attached() const noexcept { return attached_; }
  /// Total captured events (spans + counter samples + instants).
  [[nodiscard]] std::size_t event_count() const noexcept;
  /// The windowed per-master demand probe (the adaptive-controller
  /// substrate); empty before attach().
  [[nodiscard]] const std::optional<DemandWindow>& demand() const noexcept {
    return demand_;
  }

  /// Emit the whole capture as one Chrome trace-event JSON document
  /// (object form: {"traceEvents": [...], "metadata": {...}}), with
  /// build provenance in the metadata block.
  void write_json(std::ostream& out) const;

 private:
  struct Span {
    Cycle ts = 0;
    Cycle dur = 0;
    MasterId master = 0;
    bool transfer = false;  ///< false: arbitration wait
    Addr addr = 0;
    MemOpKind op = MemOpKind::kLoad;
  };
  struct Sample {
    Cycle ts = 0;
    std::uint32_t track = 0;
    double value = 0.0;
  };
  struct Instant {
    Cycle ts = 0;
    MasterId master = 0;
  };
  struct Track {
    std::uint32_t pid = 0;
    std::string name;
    double last = std::numeric_limits<double>::quiet_NaN();
  };
  /// Live capture state per master.
  struct MasterState {
    bool waiting = false;
    Cycle issued = 0;
    bool transferring = false;
    Cycle started = 0;
    Addr addr = 0;
    MemOpKind op = MemOpKind::kLoad;
    std::uint64_t last_underflows = 0;
  };
  /// A credit-counter read target: `state` plus the master's local slot
  /// in it (identity for the single bus; home-segment slot when
  /// segmented).
  struct CreditSource {
    const core::CreditState* state = nullptr;
    MasterId slot = 0;
  };

  [[nodiscard]] bool in_window(Cycle now) const noexcept {
    return now >= config_.window_begin && now < config_.window_end;
  }
  [[nodiscard]] std::uint32_t make_track(std::uint32_t pid,
                                         std::string name);
  void sample(std::uint32_t track, Cycle now, double value);
  void poll_counters(Cycle now);

  Config config_;
  bool attached_ = false;
  std::uint32_t n_masters_ = 0;

  std::vector<MasterState> masters_;
  std::vector<CreditSource> credit_;
  const bus::SegmentedInterconnect* seg_ = nullptr;

  std::vector<Track> tracks_;
  std::vector<std::uint32_t> credit_track_;    ///< per master
  std::vector<std::uint32_t> eligible_track_;  ///< per master
  std::vector<std::uint32_t> bridge_track_;    ///< per bridge
  std::vector<std::uint32_t> demand_track_;    ///< per master

  std::vector<Span> spans_;
  std::vector<Sample> samples_;
  std::vector<Instant> instants_;

  std::optional<DemandWindow> demand_;
};

}  // namespace cbus::obs
