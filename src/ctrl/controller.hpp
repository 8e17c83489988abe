// ctrl: closed-loop retuning of the CBA Table-I credit parameters.
//
// H-CBA's increments are chosen offline for one expected load; the moment
// offered load shifts away from that configuration point, budget either
// idles (a biased master that stops demanding keeps its reserved share)
// or starves (a bursty master is pinned to a share sized for its quiet
// phase). The ABR explicit-rate literature solved the same problem on ATM
// switches: measure per-source demand over a moving window, compute a
// max-min fair share with the iterative fair-share calculation (Fahmy &
// Jain), and feed the result back as a rate. This subsystem brings that
// switch-side loop onto the bus arbiter:
//
//   demand  -- an obs::DemandWindow fed from bus statistics deltas (a
//              first-class sim input: independent of BusObserver
//              availability, so the controller can never silently read
//              zeros);
//   target  -- weighted max-min water-filling over the windowed demand
//              rates, with a 1-unit MCR floor per master so an idle
//              master can always ramp back up;
//   actuate -- per-epoch first-order mixing toward the target (`gain`),
//              a deadband so measurement ripple does not wiggle the
//              rates near saturation, and deterministic epoch-rotating
//              largest-remainder integerization so fractional fair
//              shares time-average out instead of parking on one master.
//
// Determinism contract: a controller is a plain sim::Component owned by
// its machine -- every batched lane constructs an identical replica, all
// state is per-instance, and no wall-clock or global state is read, so
// lockstep campaigns stay bit-identical to serial at any batch/thread
// count. The static controller is today's behavior behind the same
// interface: it never touches the credit state and is never ticked.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bus.hpp"
#include "common/types.hpp"
#include "core/credit_state.hpp"
#include "obs/demand_window.hpp"
#include "sim/component.hpp"

namespace cbus::ctrl {

/// The registered controller policies (`controller = ...` platform key).
enum class ControllerKind : std::uint8_t {
  kStatic,    ///< Table-I parameters fixed at configuration time
  kAdaptive,  ///< explicit-rate feedback retunes increments per epoch
};

[[nodiscard]] std::string_view to_string(ControllerKind kind) noexcept;

/// The short name parse_controller accepts for each kind ("static",
/// "adaptive") -- the single source for CLI listings and usage text.
[[nodiscard]] std::string_view short_name(ControllerKind kind) noexcept;

/// Every controller kind, in declaration order (`--list controllers`).
[[nodiscard]] std::span<const ControllerKind> all_controller_kinds() noexcept;

/// Space-joined short names of every registered controller, for error
/// messages and usage text (the `--list controllers` set on one line).
[[nodiscard]] std::string known_controller_list();

/// One parsed `controller =` value.
struct ControllerConfig {
  ControllerKind kind = ControllerKind::kStatic;

  /// Epoch length and demand-window span, in cycles (adaptive only).
  Cycle window = 2048;

  /// Fraction of the rate-to-target gap closed per epoch, in (0, 1].
  double gain = 0.5;

  /// Relative hysteresis: a new target moves the rates only when some
  /// master's gap exceeds deadband * scale units (stability knob; fixed
  /// rather than parsed -- see docs/CONTROLLERS.md).
  double deadband = 0.05;

  [[nodiscard]] bool adaptive() const noexcept {
    return kind == ControllerKind::kAdaptive;
  }

  /// Throws std::invalid_argument on out-of-range window/gain/deadband.
  void validate() const;

  friend bool operator==(const ControllerConfig&,
                         const ControllerConfig&) = default;
};

/// Parse a `controller =` value: "static" or
/// "adaptive[:<window>[:<gain>]]" (window in cycles >= 16, gain in
/// (0, 1]). Throws std::invalid_argument on junk; the message lists
/// every registered name, matching `cbus_sim --list controllers`.
[[nodiscard]] ControllerConfig parse_controller(std::string_view text);

/// Render a config back to the exact `controller =` value syntax
/// parse_controller accepts (config-file round-tripping).
[[nodiscard]] std::string to_config_string(const ControllerConfig& config);

/// Counters every controller exposes to the ctrl.* metric probes.
struct ControllerStats {
  std::uint64_t epochs = 0;   ///< epoch boundaries processed
  std::uint64_t updates = 0;  ///< epochs whose rate vector changed
  /// End cycle of the epoch in which the rates last moved (0 = they
  /// never did): the measured convergence time of the feedback loop.
  Cycle convergence_cycles = 0;
  /// Final distance between the mixed rates and the latest computed
  /// target, summed over masters, as a fraction of the scale (0 at a
  /// fully converged fixed point, bounded by the deadband).
  double steady_error = 0.0;
};

/// The controller interface the platform wires per machine instance.
class CreditController : public sim::Component {
 public:
  explicit CreditController(std::string name)
      : sim::Component(std::move(name)) {}

  [[nodiscard]] virtual ControllerKind kind() const noexcept = 0;
  [[nodiscard]] virtual const ControllerStats& stats() const noexcept = 0;

  /// The per-master Table-I increments currently applied, in budget
  /// units per cycle (the configured values for the static controller).
  [[nodiscard]] virtual std::vector<std::uint64_t> increments() const = 0;
};

/// Today's behavior behind the interface: the configured increments are
/// never touched, the component is never registered with a kernel, and
/// campaigns with `controller = static` stay byte-identical to ones that
/// never mention the key.
class StaticController final : public CreditController {
 public:
  explicit StaticController(const core::CreditState& credits)
      : CreditController("ctrl.static"), credits_(&credits) {}

  void tick(Cycle /*now*/) override {}
  [[nodiscard]] ControllerKind kind() const noexcept override {
    return ControllerKind::kStatic;
  }
  [[nodiscard]] const ControllerStats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::vector<std::uint64_t> increments() const override {
    return credits_->config().increment;
  }

 private:
  const core::CreditState* credits_;
  ControllerStats stats_;  ///< all-zero: no epochs, no updates
};

/// Epoch-driven explicit-rate feedback over the credit increments.
///
/// Ticks after the bus every cycle; every window/16 cycles it samples
/// per-master demand (the delta of wait+hold cycles from `bus_stats`, a
/// direct "cycles this master wanted the bus" signal) into its
/// obs::DemandWindow, and every `window` cycles it runs one epoch:
/// water-fill, mix, integerize, write the increments back through
/// core::CreditState::set_increment.
class AdaptiveController final : public CreditController {
 public:
  /// `credits` and `bus_stats` must outlive the controller; `config`
  /// must satisfy config.adaptive(). Requires scale >= n_masters (each
  /// master keeps a 1-unit MCR floor).
  AdaptiveController(const ControllerConfig& config,
                     core::CreditState& credits,
                     const bus::BusStatistics& bus_stats);

  void tick(Cycle now) override;

  [[nodiscard]] ControllerKind kind() const noexcept override {
    return ControllerKind::kAdaptive;
  }
  [[nodiscard]] const ControllerStats& stats() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::vector<std::uint64_t> increments() const override;

  // --- introspection (tests, benches) -----------------------------------
  [[nodiscard]] const obs::DemandWindow& demand() const noexcept {
    return demand_;
  }
  /// The real-valued rate state the integer increments track.
  [[nodiscard]] std::span<const double> rates() const noexcept {
    return rates_;
  }
  /// The latest water-filled target, in units (empty before epoch 1).
  [[nodiscard]] std::span<const double> targets() const noexcept {
    return targets_;
  }

 private:
  void sample(Cycle now);
  void epoch(Cycle now);

  ControllerConfig config_;
  core::CreditState* credits_;
  const bus::BusStatistics* bus_stats_;

  obs::DemandWindow demand_;
  Cycle bucket_width_;
  Cycle sample_countdown_;
  std::uint32_t buckets_left_;

  /// Per-master wait+hold snapshot from the previous sample point.
  std::vector<Cycle> busy_snapshot_;
  std::vector<double> rates_;    ///< mixed rate state (units/cycle)
  std::vector<double> targets_;  ///< latest water-filled target (units)
  std::vector<std::uint64_t> applied_;  ///< integer increments in force
  std::uint64_t epoch_index_ = 0;
  ControllerStats stats_;
};

/// The Fahmy/Jain iterative fair share: weighted max-min water-filling
/// of `capacity` over `demand`. Masters whose demand is below their
/// weighted share of the remaining capacity are capped at their demand;
/// the rest split the leftover in proportion to `weight`. Returns one
/// share per master, summing to at most `capacity` (exactly `capacity`
/// when total demand reaches it). `weight` may be empty (uniform);
/// otherwise it must match `demand` in size with every entry > 0.
[[nodiscard]] std::vector<double> fair_shares(std::span<const double> demand,
                                              std::span<const double> weight,
                                              double capacity);

/// Build the configured controller over a machine's credit state and bus
/// statistics (both must outlive the controller).
[[nodiscard]] std::unique_ptr<CreditController> make_controller(
    const ControllerConfig& config, core::CreditState& credits,
    const bus::BusStatistics& bus_stats);

}  // namespace cbus::ctrl
