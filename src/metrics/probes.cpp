#include "metrics/probes.hpp"

#include <array>

#include "bus/segmented.hpp"
#include "ctrl/controller.hpp"
#include "stats/fairness.hpp"

namespace cbus::metrics {

void probe_tua(Cycle tua_cycles, const cpu::CoreStats& stats, Record& out) {
  out.set("tua.cycles", static_cast<double>(tua_cycles));
  out.set("tua.bus_requests", static_cast<double>(stats.bus_requests));
  out.set("tua.bus_stall_cycles",
          static_cast<double>(stats.bus_stall_cycles));
}

void probe_bus(const bus::BusStatistics& stats, Record& out) {
  const auto totals = stats.totals();
  out.set("bus.utilization",
          stats.total_cycles == 0
              ? 0.0
              : static_cast<double>(stats.busy_cycles) /
                    static_cast<double>(stats.total_cycles));

  const std::size_t n = stats.master.size();
  std::vector<double> occupancy(n);
  std::vector<double> grants(n);
  std::vector<double> requests(n);
  std::vector<double> mean_wait(n);
  std::vector<double> max_wait(n);
  for (std::size_t m = 0; m < n; ++m) {
    const auto& pm = stats.master[m];
    const auto master_id = static_cast<MasterId>(m);
    occupancy[m] = stats.occupancy_share(master_id);
    grants[m] = stats.grant_share(master_id, totals);
    requests[m] = static_cast<double>(pm.requests);
    mean_wait[m] = pm.grants == 0
                       ? 0.0
                       : static_cast<double>(pm.wait_cycles) /
                             static_cast<double>(pm.grants);
    max_wait[m] = static_cast<double>(pm.max_wait);
  }
  out.set("bus.occupancy_share", std::move(occupancy));
  out.set("bus.grant_share", std::move(grants));
  out.set("bus.requests", std::move(requests));
  out.set("bus.mean_wait", std::move(mean_wait));
  out.set("bus.max_wait", std::move(max_wait));
}

void probe_fairness(const bus::BusStatistics& stats, Record& out) {
  // Jain and max-min are scale-invariant, so raw cycle/grant counts give
  // the same indices as normalised shares without a division.
  const std::size_t n = stats.master.size();
  std::vector<double> occupancy(n);
  std::vector<double> grants(n);
  for (std::size_t m = 0; m < n; ++m) {
    occupancy[m] = static_cast<double>(stats.master[m].hold_cycles);
    grants[m] = static_cast<double>(stats.master[m].grants);
  }
  out.set("fair.jain_occupancy", stats::jain_index(occupancy));
  out.set("fair.jain_grants", stats::jain_index(grants));
  out.set("fair.maxmin_occupancy", stats::max_min_ratio(occupancy));
  out.set("fair.maxmin_grants", stats::max_min_ratio(grants));
}

void probe_credit(std::uint64_t underflows, std::span<const double> budgets,
                  Record& out) {
  out.set("credit.underflows", static_cast<double>(underflows));
  if (budgets.empty()) return;  // no CBA
  out.set("credit.budget",
          std::vector<double>(budgets.begin(), budgets.end()));
}

void probe_segments(const bus::SegmentedInterconnect* segmented,
                    const bus::BusStatistics& flat, Record& out) {
  if (segmented == nullptr) {
    // Single bus: one segment whose occupancy is the bus utilization and
    // whose grants are the global grant total; no bridge traffic.
    out.set("seg.occupancy",
            std::vector<double>{
                flat.total_cycles == 0
                    ? 0.0
                    : static_cast<double>(flat.busy_cycles) /
                          static_cast<double>(flat.total_cycles)});
    out.set("seg.grants", std::vector<double>{static_cast<double>(
                              flat.totals().grants)});
    out.set("seg.remote_fraction", 0.0);
    out.set("seg.bridge_hops", 0.0);
    out.set("seg.mean_bridge_wait", 0.0);
    out.set("seg.queue_depth_max", std::vector<double>{0.0});
    out.set("seg.queue_depth_mean", std::vector<double>{0.0});
    out.set("seg.backpressure_stalls", std::vector<double>{0.0});
    // Every single-bus transaction is served in place: 0 bridges crossed.
    out.set("seg.hop_histogram",
            std::vector<double>{
                static_cast<double>(flat.totals().completions)});
    return;
  }

  const std::uint32_t n = segmented->n_segments();
  std::vector<double> occupancy(n);
  std::vector<double> grants(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const bus::BusStatistics& st = segmented->segment_statistics(s);
    occupancy[s] = st.total_cycles == 0
                       ? 0.0
                       : static_cast<double>(st.busy_cycles) /
                             static_cast<double>(st.total_cycles);
    grants[s] = static_cast<double>(st.totals().grants);
  }
  out.set("seg.occupancy", std::move(occupancy));
  out.set("seg.grants", std::move(grants));

  const bus::BridgeStats& bridges = segmented->bridge_stats();
  const std::uint64_t completed =
      bridges.remote_transactions + bridges.local_transactions;
  out.set("seg.remote_fraction",
          completed == 0 ? 0.0
                         : static_cast<double>(bridges.remote_transactions) /
                               static_cast<double>(completed));
  out.set("seg.bridge_hops", static_cast<double>(bridges.hops));
  out.set("seg.mean_bridge_wait",
          bridges.hops == 0 ? 0.0
                            : static_cast<double>(bridges.queue_cycles) /
                                  static_cast<double>(bridges.hops));

  // Per-bridge queue shape (one element per directed topology edge, in
  // bridge delivery order) and the backpressure picture.
  const std::uint32_t nb = segmented->n_bridges();
  const std::uint64_t ticks = segmented->ticked_cycles();
  std::vector<double> depth_max(nb);
  std::vector<double> depth_mean(nb);
  for (std::uint32_t b = 0; b < nb; ++b) {
    depth_max[b] =
        static_cast<double>(segmented->bridge_queue_depth_max(b));
    depth_mean[b] =
        ticks == 0 ? 0.0
                   : static_cast<double>(segmented->bridge_queue_depth_sum(b)) /
                         static_cast<double>(ticks);
  }
  out.set("seg.queue_depth_max", std::move(depth_max));
  out.set("seg.queue_depth_mean", std::move(depth_mean));
  std::vector<double> stalls(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    stalls[s] = static_cast<double>(segmented->backpressure_stalls(s));
  }
  out.set("seg.backpressure_stalls", std::move(stalls));
  const std::span<const std::uint64_t> hist = segmented->hop_histogram();
  std::vector<double> hops(hist.size());
  for (std::size_t h = 0; h < hist.size(); ++h) {
    hops[h] = static_cast<double>(hist[h]);
  }
  out.set("seg.hop_histogram", std::move(hops));
}

void probe_ctrl(const ctrl::AdaptiveController* controller, Record& out) {
  if (controller == nullptr) return;
  const std::vector<std::uint64_t>& increments = controller->increments();
  std::vector<double> applied(increments.size());
  for (std::size_t m = 0; m < increments.size(); ++m) {
    applied[m] = static_cast<double>(increments[m]);
  }
  out.set("ctrl.increment", std::move(applied));
  const ctrl::ControllerStats& stats = controller->stats();
  out.set("ctrl.epochs", static_cast<double>(stats.epochs));
  out.set("ctrl.updates", static_cast<double>(stats.updates));
  out.set("ctrl.convergence_cycles",
          static_cast<double>(stats.convergence_cycles));
  out.set("ctrl.steady_error", stats.steady_error);
}

std::span<const MetricInfo> metric_catalog() {
  static const std::array<MetricInfo, 29> kCatalog{{
      {"tua.cycles", false,
       "execution time of the task under analysis (cycles)"},
      {"tua.bus_requests", false, "bus requests issued by the TuA"},
      {"tua.bus_stall_cycles", false,
       "TuA cycles blocked on an outstanding bus request"},
      {"bus.utilization", false, "fraction of cycles a transfer was in flight"},
      {"bus.occupancy_share", true,
       "fraction of all cycles each master held the bus"},
      {"bus.grant_share", true, "fraction of all grants each master won"},
      {"bus.requests", true, "requests raised per master"},
      {"bus.mean_wait", true,
       "mean request-to-grant wait per master (cycles)"},
      {"bus.max_wait", true,
       "worst single-request wait per master (cycles)"},
      {"fair.jain_occupancy", false,
       "Jain's index over per-master occupancy cycles (CBA equalises this)"},
      {"fair.jain_grants", false,
       "Jain's index over per-master grant counts (RR/FIFO equalise this)"},
      {"fair.maxmin_occupancy", false,
       "max/min ratio of per-master occupancy cycles"},
      {"fair.maxmin_grants", false,
       "max/min ratio of per-master grant counts"},
      {"credit.underflows", false,
       "cycles a CBA counter clamped at zero (0 without CBA)"},
      {"credit.budget", true,
       "end-of-run CBA budget per master in cycles (CBA setups only)"},
      {"seg.occupancy", true,
       "busy fraction per interconnect segment (one element per segment)"},
      {"seg.grants", true,
       "grants per interconnect segment, transit hops included"},
      {"seg.remote_fraction", false,
       "fraction of transactions that crossed at least one bridge"},
      {"seg.bridge_hops", false, "store-and-forward bridge traversals"},
      {"seg.mean_bridge_wait", false,
       "mean cycles a forwarded request sat in a bridge buffer"},
      {"seg.queue_depth_max", true,
       "high-water bridge queue depth (one element per directed edge)"},
      {"seg.queue_depth_mean", true,
       "time-mean bridge queue depth (one element per directed edge)"},
      {"seg.backpressure_stalls", true,
       "master-cycles a segment withheld a request because its next-hop "
       "bridge was full (bounded bridge_depth only)"},
      {"seg.hop_histogram", true,
       "completed transactions by bridges crossed (index = hop count)"},
      {"ctrl.increment", true,
       "Table-I credit increment in force per master at run end "
       "(controller = adaptive only)"},
      {"ctrl.epochs", false,
       "controller epochs processed (controller = adaptive only)"},
      {"ctrl.updates", false,
       "epochs whose rate vector moved (controller = adaptive only)"},
      {"ctrl.convergence_cycles", false,
       "end cycle of the last epoch that moved the rates -- the measured "
       "convergence time (controller = adaptive only)"},
      {"ctrl.steady_error", false,
       "final |rate - target| summed over masters, as a fraction of the "
       "scale (controller = adaptive only)"},
  }};
  return kCatalog;
}

const MetricInfo* find_metric(std::string_view key) noexcept {
  for (const MetricInfo& info : metric_catalog()) {
    if (info.key == key) return &info;
  }
  return nullptr;
}

}  // namespace cbus::metrics
