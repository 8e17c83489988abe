// Probes: extract metric Records from the simulator's raw statistics
// structs after a run.
//
// A probe appends keys to a Record; the union of the standard probes is
// the canonical per-run record every campaign produces. The catalog below
// is the single source of truth for the key names -- experiment files
// select columns by these names (`metrics = fair.jain_occupancy,...`)
// and `cbus_sim --list metrics` prints them.
//
// Key naming scheme: `<subsystem>.<quantity>`, lower_snake_case, with
// per-master quantities as vector values addressed `key[i]` in column
// headers and selections.
#pragma once

#include <span>
#include <string_view>

#include <cstdint>

#include "bus/bus.hpp"
#include "cpu/core_config.hpp"
#include "metrics/record.hpp"

namespace cbus::bus {
class SegmentedInterconnect;  // probes take it as an opaque pointer
}  // namespace cbus::bus

namespace cbus::ctrl {
class AdaptiveController;  // probes take it as an opaque pointer
}  // namespace cbus::ctrl

namespace cbus::metrics {

/// Task-under-analysis timing and traffic: tua.cycles, tua.bus_requests,
/// tua.bus_stall_cycles.
void probe_tua(Cycle tua_cycles, const cpu::CoreStats& stats, Record& out);

/// Bus-level occupancy accounting: bus.utilization plus the per-master
/// vectors bus.occupancy_share, bus.grant_share, bus.requests,
/// bus.mean_wait and bus.max_wait. Shares are computed from one
/// BusStatistics::totals() pass.
void probe_bus(const bus::BusStatistics& stats, Record& out);

/// Fairness indices over the per-master allocation vectors -- the paper's
/// central occupancy-vs-request-count comparison: fair.jain_occupancy,
/// fair.jain_grants, fair.maxmin_occupancy, fair.maxmin_grants.
void probe_fairness(const bus::BusStatistics& stats, Record& out);

/// CBA credit accounting: credit.underflows (`underflows`, summed over
/// the interconnect's segment filters; 0 without CBA) and, unless
/// `budgets` is empty (no CBA), the per-master credit.budget vector of
/// end-of-run budgets in cycles, each read from the master's home-segment
/// filter.
void probe_credit(std::uint64_t underflows, std::span<const double> budgets,
                  Record& out);

/// Per-segment interconnect accounting: the seg.occupancy and seg.grants
/// vectors (one element per segment) plus the scalar bridge-traffic keys
/// seg.remote_fraction, seg.bridge_hops and seg.mean_bridge_wait. Pass a
/// null interconnect for the single-bus topology: the keys degrade to
/// one-segment values derived from `flat` (so a topology sweep renders
/// comparable columns for every job).
void probe_segments(const bus::SegmentedInterconnect* segmented,
                    const bus::BusStatistics& flat, Record& out);

/// Adaptive-controller accounting: the per-master ctrl.increment vector
/// (Table-I increments in force at run end) plus ctrl.epochs,
/// ctrl.updates, ctrl.convergence_cycles and ctrl.steady_error. Emits
/// nothing for a null controller -- `controller = static` machines build
/// none -- so their records keep the pre-controller shape byte-for-byte
/// (sinks render the absent keys as empty/null in mixed sweeps).
void probe_ctrl(const ctrl::AdaptiveController* controller, Record& out);

/// One catalog entry per standard probe key.
struct MetricInfo {
  std::string_view key;
  /// Vector value, one element per master -- or per SEGMENT for the
  /// seg.* keys (the flag means "addressable as key[i]", and the axis
  /// is named in each description).
  bool per_master = false;
  /// Emitted by every campaign ("always") or only under a condition.
  std::string_view description;
};

/// Every key the standard probes can emit, in probe order.
[[nodiscard]] std::span<const MetricInfo> metric_catalog();

/// Catalog lookup by base key (no [i] suffix); nullptr when unknown.
[[nodiscard]] const MetricInfo* find_metric(std::string_view key) noexcept;

}  // namespace cbus::metrics
