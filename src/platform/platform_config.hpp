// Whole-platform configuration: the paper's 4-core LEON3 prototype and the
// three bus setups of its evaluation (RP baseline, CBA, H-CBA).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "bus/arbiter_factory.hpp"
#include "bus/segmented.hpp"
#include "cache/cache_config.hpp"
#include "core/cba_config.hpp"
#include "core/virtual_contender.hpp"
#include "cpu/core_config.hpp"
#include "ctrl/controller.hpp"
#include "mem/dram.hpp"
#include "mem/memory_timings.hpp"

namespace cbus::platform {

/// The three bus configurations of Figure 1.
enum class BusSetup : std::uint8_t {
  kRp,    ///< random permutations only (baseline)
  kCba,   ///< RP + homogeneous CBA
  kHcba,  ///< RP + heterogeneous CBA (TuA gets 50% of bandwidth)
};

[[nodiscard]] constexpr std::string_view to_string(BusSetup setup) noexcept {
  switch (setup) {
    case BusSetup::kRp: return "RP";
    case BusSetup::kCba: return "CBA";
    case BusSetup::kHcba: return "H-CBA";
  }
  return "?";
}

/// Bus protocol choice (paper baseline vs the §III-C split variant).
enum class BusProtocol : std::uint8_t {
  kNonSplit,  ///< the paper's AMBA AHB-style non-split bus
  kSplit,     ///< split transactions (atomics still hold the bus)
};

[[nodiscard]] constexpr std::string_view to_string(BusProtocol p) noexcept {
  switch (p) {
    case BusProtocol::kNonSplit: return "non-split";
    case BusProtocol::kSplit: return "split";
  }
  return "?";
}

/// Interconnect topology: the paper's single shared bus, or a graph of
/// bus segments joined by store-and-forward bridges
/// (bus::SegmentedInterconnect over a bus::Topology). Config-file
/// syntax: `topology = single | segmented:<n> | chain:<n> | ring:<n> |
/// mesh:<rows>x<cols>` (`segmented:` is the legacy spelling of
/// `chain:`) plus the per-segment keys `bridge_hold`, `bridge_latency`,
/// `seg_stripe` (route interleave in bytes, a power of two) and
/// `bridge_depth` (`<k>` bounds every bridge queue and turns on
/// backpressure; `unbounded` is the default). See docs/TOPOLOGIES.md.
struct TopologyConfig {
  bus::TopologyKind kind = bus::TopologyKind::kChain;
  std::uint32_t segments = 1;  ///< 1 = the single shared bus
  std::uint32_t rows = 0;      ///< mesh only (rows * cols == segments)
  std::uint32_t cols = 0;      ///< mesh only
  Cycle bridge_hold = 5;       ///< forward beat leaving a segment (cycles)
  Cycle bridge_latency = 2;    ///< store-and-forward delay per hop
  std::uint32_t stripe_log2 = 12;  ///< 4 KiB address interleave
  std::uint32_t bridge_depth = 0;  ///< bridge queue bound; 0 = unbounded

  [[nodiscard]] bool segmented() const noexcept { return segments > 1; }

  /// The bus::Topology instance this config describes (segmented() only).
  [[nodiscard]] bus::Topology graph() const;

  /// Bridge-ingress ports over the whole interconnect (= directed
  /// edges = sum of per-segment in-degrees); each consumes one
  /// credit-counter slot per lane.
  [[nodiscard]] std::uint32_t bridge_ports() const {
    if (!segmented()) return 0;
    return static_cast<std::uint32_t>(graph().edges().size());
  }

  /// Config-file value this topology parses back from.
  [[nodiscard]] std::string config_string() const;
};

struct PlatformConfig {
  std::uint32_t n_cores = 4;

  bus::ArbiterKind arbiter = bus::ArbiterKind::kRandomPermutation;
  bool overlapped_arbitration = true;
  BusProtocol bus_protocol = BusProtocol::kNonSplit;
  TopologyConfig topology;

  /// Optional open-page DRAM bank model (flat 28-cycle latency when unset).
  std::optional<mem::DramConfig> dram;

  /// Credit-based arbitration; disengaged when nullopt (pure baseline).
  std::optional<core::CbaConfig> cba;

  /// Credit-controller policy over the CBA Table-I increments
  /// (`controller = static | adaptive:<window>[:<gain>]`). Static is
  /// today's behavior; adaptive requires a CBA config on a single
  /// non-split bus with scale >= n_cores (the per-master MCR floor).
  ctrl::ControllerConfig controller;

  cpu::CoreConfig core{};

  /// One slice of the partitioned L2 (per core).
  cache::CacheConfig l2_partition{
      .size_bytes = 128 * 1024,
      .line_bytes = 32,
      .ways = 8,
      .placement = cache::PlacementKind::kRandomHash,
      .replacement = cache::ReplacementKind::kRandom,
  };

  mem::MemoryTimings timings{};

  PlatformMode mode = PlatformMode::kOperation;

  /// WCET-estimation mode parameters (paper §III-B/C, Table I).
  Cycle contender_hold = 56;  ///< contenders occupy MaxL cycles per grant
  core::ContenderPolicy contender_policy =
      core::ContenderPolicy::kCompLatch;
  bool tua_zero_initial_budget = true;  ///< TuA starts with zero budget

  /// TDMA slot width when the inner policy is TDMA.
  Cycle tdma_slot = 56;

  /// Allow a CBA MaxL smaller than the platform's longest transaction
  /// (credits can clamp at zero). Off by default; the MaxL-sensitivity
  /// ablation turns it on deliberately.
  bool allow_maxl_underestimate = false;

  /// The paper's platform with the chosen bus setup, in operation mode.
  [[nodiscard]] static PlatformConfig paper(BusSetup setup);

  /// Same platform switched to WCET-estimation (maximum-contention) mode.
  [[nodiscard]] static PlatformConfig paper_wcet(BusSetup setup);

  /// The bus::SegmentedConfig this platform's interconnect uses
  /// (meaningful when topology.segmented()).
  [[nodiscard]] bus::SegmentedConfig segmented_config() const;

  /// Credit-counter slots one machine consumes (SoA arena sizing): the
  /// core counters, plus one per bridge-ingress port when the topology
  /// is segmented (degree-dependent: chain 2(n-1), ring 2n, mesh
  /// 2(rows(cols-1) + cols(rows-1))).
  [[nodiscard]] std::uint32_t credit_slots() const {
    return n_cores + topology.bridge_ports();
  }

  void validate() const;
};

}  // namespace cbus::platform
