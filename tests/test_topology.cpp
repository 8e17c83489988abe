// Graph-routed interconnect tests: Topology edge/routing contracts
// (chain, ring, mesh), the golden byte-pins for the legacy chain, a
// bounded mesh co-run and a bounded ring WCET campaign, bounded
// bridge queues with credit-style backpressure, the platform parsing
// surface (`topology = ring:<n> | mesh:<rows>x<cols>`, `bridge_depth`),
// and campaign determinism (batch x threads, checkpoint, shards) for
// the new topologies.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bus/round_robin.hpp"
#include "bus/segmented.hpp"
#include "bus/topology.hpp"
#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "sim/kernel.hpp"
#include "workloads/eembc_like.hpp"

namespace cbus {
namespace {

using bus::SegmentedConfig;
using bus::SegmentedInterconnect;
using bus::Topology;
using bus::TopologyEdge;
using bus::TopologyKind;

// --- graph model -------------------------------------------------------------

TEST(Topology, ChainEdgesReproduceHistoricalDeliveryOrder) {
  // The legacy SegmentedInterconnect delivered bridges in the order
  // (s -> s+1), (s+1 -> s) per adjacency; chain edges() must match it
  // exactly -- this IS the cycle-exactness contract for `segmented:<n>`.
  const Topology chain = Topology::chain(4);
  const std::vector<TopologyEdge> expected{{0, 1}, {1, 0}, {1, 2},
                                           {2, 1}, {2, 3}, {3, 2}};
  ASSERT_EQ(chain.edges().size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(chain.edges()[e], expected[e]) << "edge " << e;
  }
  EXPECT_EQ(chain.in_degree(0), 1u);
  EXPECT_EQ(chain.in_degree(1), 2u);
  EXPECT_EQ(chain.in_degree(3), 1u);
  EXPECT_EQ(chain.diameter(), 3u);
  EXPECT_EQ(chain.label(), "chain:4");
}

TEST(Topology, RingEdgesAppendWrapLinkLast) {
  // Ring = the chain's edge list plus the wrap adjacency (n-1, 0)
  // appended LAST, forward direction first -- so a chain-shaped prefix
  // of the delivery order is preserved.
  const Topology ring = Topology::ring(4);
  const std::vector<TopologyEdge> expected{{0, 1}, {1, 0}, {1, 2}, {2, 1},
                                           {2, 3}, {3, 2}, {3, 0}, {0, 3}};
  ASSERT_EQ(ring.edges().size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(ring.edges()[e], expected[e]) << "edge " << e;
  }
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(ring.in_degree(s), 2u);
  EXPECT_EQ(ring.label(), "ring:4");
}

TEST(Topology, MeshEdgesEnumerateRowMajorRightThenDown) {
  const Topology mesh = Topology::mesh(2, 2);
  const std::vector<TopologyEdge> expected{{0, 1}, {1, 0}, {0, 2}, {2, 0},
                                           {1, 3}, {3, 1}, {2, 3}, {3, 2}};
  ASSERT_EQ(mesh.edges().size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(mesh.edges()[e], expected[e]) << "edge " << e;
  }
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(mesh.in_degree(s), 2u);
  EXPECT_EQ(mesh.label(), "mesh:2x2");
  EXPECT_EQ(Topology::mesh(3, 3).edges().size(), 24u);
}

TEST(Topology, RingRoutesShortestDirectionTieForward) {
  const Topology ring = Topology::ring(6);
  EXPECT_EQ(ring.next_hop(0, 2), 1u);  // forward is shorter
  EXPECT_EQ(ring.next_hop(0, 4), 5u);  // backward is shorter
  EXPECT_EQ(ring.next_hop(0, 3), 1u);  // antipodal tie breaks FORWARD
  EXPECT_EQ(ring.next_hop(4, 1), 5u);  // tie again, forward from 4
  EXPECT_EQ(ring.distance(0, 3), 3u);
  EXPECT_EQ(ring.distance(5, 1), 2u);
  EXPECT_EQ(ring.diameter(), 3u);
  EXPECT_EQ(Topology::ring(5).diameter(), 2u);
}

TEST(Topology, MeshRoutesDimensionOrderedXY) {
  // 3x3, row-major: segment s at (s / 3, s % 3). Column corrected first.
  const Topology mesh = Topology::mesh(3, 3);
  EXPECT_EQ(mesh.next_hop(0, 8), 1u);  // (0,0) -> (2,2): column first
  EXPECT_EQ(mesh.next_hop(1, 8), 2u);  // column still short by one
  EXPECT_EQ(mesh.next_hop(2, 8), 5u);  // column aligned: walk rows
  EXPECT_EQ(mesh.next_hop(6, 0), 3u);  // same column: straight up
  EXPECT_EQ(mesh.next_hop(5, 3), 4u);  // same row: walk left
  EXPECT_EQ(mesh.distance(0, 8), 4u);
  EXPECT_EQ(mesh.distance(4, 4), 0u);
  EXPECT_EQ(mesh.diameter(), 4u);
  EXPECT_EQ(Topology::mesh(1, 4).diameter(), 3u);
}

TEST(Topology, ValidatesShape) {
  EXPECT_THROW((void)Topology::chain(0), std::invalid_argument);
  EXPECT_THROW((void)Topology::ring(2), std::invalid_argument);
  EXPECT_THROW((void)Topology::mesh(1, 1), std::invalid_argument);
  EXPECT_THROW((void)Topology::mesh(0, 3), std::invalid_argument);
  EXPECT_NO_THROW((void)Topology::chain(1));   // degenerate single segment
  EXPECT_NO_THROW((void)Topology::mesh(1, 2));  // 1xN mesh = a chain shape
  EXPECT_EQ(Topology::chain(1).diameter(), 0u);
}

// --- hop timing on the new topologies ---------------------------------------

/// A slave serving every transaction in a fixed number of cycles.
class FixedSlave final : public bus::BusSlave {
 public:
  explicit FixedSlave(Cycle hold) : hold_(hold) {}
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    return hold_;
  }

 private:
  Cycle hold_;
};

/// A master issuing scripted (cycle, address) loads, recording
/// completion cycles.
class ScriptedMaster final : public sim::Component, public bus::BusMaster {
 public:
  ScriptedMaster(MasterId id, bus::BusPort& bus,
                 std::vector<std::pair<Cycle, Addr>> script)
      : sim::Component("scripted"), id_(id), bus_(bus),
        script_(std::move(script)) {
    bus_.connect_master(id_, *this);
  }

  void tick(Cycle now) override {
    if (next_ < script_.size() && script_[next_].first <= now &&
        bus_.can_request(id_)) {
      bus::BusRequest req;
      req.master = id_;
      req.addr = script_[next_].second;
      req.kind = MemOpKind::kLoad;
      bus_.request(req, now);
      ++next_;
    }
  }

  void on_grant(const bus::BusRequest&, Cycle, Cycle) override {}
  void on_complete(const bus::BusRequest&, Cycle now) override {
    completions.push_back(now);
  }

  std::vector<Cycle> completions;

 private:
  MasterId id_;
  bus::BusPort& bus_;
  std::vector<std::pair<Cycle, Addr>> script_;
  std::size_t next_ = 0;
};

[[nodiscard]] SegmentedInterconnect::ArbiterFactory rr_factory() {
  return [](std::uint32_t n_local, std::uint32_t) {
    return std::make_unique<bus::RoundRobinArbiter>(n_local);
  };
}

TEST(TopologyTiming, RingWrapLinkCarriesShortestDirectionHop) {
  // On ring:4, segment 0 -> segment 3 is ONE backward hop over the wrap
  // link (a chain would need three forward hops). Same B + L + H = 10
  // completion as the chain's single-hop contract.
  SegmentedConfig cfg;
  cfg.n_masters = 4;
  cfg.topology = Topology::ring(4);
  cfg.bridge_hold = 3;
  cfg.bridge_latency = 2;
  cfg.stripe_log2 = 12;
  EXPECT_EQ(cfg.topology.next_hop(0, 3), 3u);
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  ScriptedMaster remote(0, seg, {{0, 0x3000}});  // routes to segment 3
  ScriptedMaster p1(1, seg, {});
  ScriptedMaster p2(2, seg, {});
  ScriptedMaster p3(3, seg, {});
  sim::Kernel kernel;
  kernel.add(remote);
  kernel.add(p1);
  kernel.add(p2);
  kernel.add(p3);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 60);

  ASSERT_EQ(remote.completions.size(), 1u);
  EXPECT_EQ(remote.completions[0], 10u);  // B=3 + L=2 + H=5
  EXPECT_EQ(seg.bridge_stats().hops, 1u);
  ASSERT_EQ(seg.hop_histogram().size(), 3u);  // ring:4 diameter = 2
  EXPECT_EQ(seg.hop_histogram()[1], 1u);
  // Only the wrap edge (0 -> 3) carried traffic.
  for (std::uint32_t b = 0; b < seg.n_bridges(); ++b) {
    const auto [from, to] = seg.bridge_route(b);
    const bool wrap = from == 0 && to == 3;
    EXPECT_EQ(seg.bridge_queue_depth_max(b), wrap ? 1u : 0u)
        << "bridge " << from << "->" << to;
  }
}

TEST(TopologyTiming, MeshXYRoutesColumnFirstWithExactTiming) {
  // mesh:2x2, segment 0 -> segment 3: XY routing goes 0 -> 1 -> 3
  // (column first), never through segment 2. Two hops:
  // 2*(B + L) + H = 2*5 + 5 = 15.
  SegmentedConfig cfg;
  cfg.n_masters = 4;
  cfg.topology = Topology::mesh(2, 2);
  cfg.bridge_hold = 3;
  cfg.bridge_latency = 2;
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  ScriptedMaster remote(0, seg, {{0, 0x3000}});  // routes to segment 3
  ScriptedMaster p1(1, seg, {});
  ScriptedMaster p2(2, seg, {});
  ScriptedMaster p3(3, seg, {});
  sim::Kernel kernel;
  kernel.add(remote);
  kernel.add(p1);
  kernel.add(p2);
  kernel.add(p3);
  kernel.add(seg);
  kernel.run_until([&]() { return false; }, 60);

  ASSERT_EQ(remote.completions.size(), 1u);
  EXPECT_EQ(remote.completions[0], 15u);
  EXPECT_EQ(seg.bridge_stats().hops, 2u);
  ASSERT_EQ(seg.hop_histogram().size(), 3u);  // mesh:2x2 diameter = 2
  EXPECT_EQ(seg.hop_histogram()[2], 1u);
  // The transit segment is 1 (column corrected first); segment 2 idle.
  EXPECT_GE(seg.segment_statistics(1).totals().grants, 1u);
  EXPECT_EQ(seg.segment_statistics(2).totals().grants, 0u);
}

// --- bounded bridges and backpressure ---------------------------------------

/// A master streaming `count` loads into one address stripe (sequential
/// addresses), re-issuing `gap` cycles after each completion, recording
/// the completed addresses in order.
class StreamMaster final : public sim::Component, public bus::BusMaster {
 public:
  StreamMaster(MasterId id, bus::BusPort& bus, Addr base, std::size_t count,
               Cycle gap)
      : sim::Component("stream"), id_(id), bus_(bus), base_(base),
        count_(count), gap_(gap) {
    bus_.connect_master(id_, *this);
  }

  void tick(Cycle now) override {
    if (issued_ < count_ && now >= next_issue_ && bus_.can_request(id_)) {
      bus::BusRequest req;
      req.master = id_;
      req.addr = base_ + static_cast<Addr>(issued_) * 4;
      req.kind = MemOpKind::kLoad;
      bus_.request(req, now);
      ++issued_;
    }
  }

  void on_grant(const bus::BusRequest&, Cycle, Cycle) override {}
  void on_complete(const bus::BusRequest& request, Cycle now) override {
    completed.push_back(request.addr);
    next_issue_ = now + gap_;
  }

  std::vector<Addr> completed;

 private:
  MasterId id_;
  bus::BusPort& bus_;
  Addr base_;
  std::size_t count_;
  Cycle gap_;
  std::size_t issued_ = 0;
  Cycle next_issue_ = 0;
};

/// End-of-cycle invariant checker: every bridge queue within the bound.
class QueueBoundChecker final : public sim::Component {
 public:
  QueueBoundChecker(const SegmentedInterconnect& seg, std::size_t bound)
      : sim::Component("checker"), seg_(seg), bound_(bound) {}

  void tick(Cycle now) override {
    for (std::uint32_t b = 0; b < seg_.n_bridges(); ++b) {
      if (seg_.bridge_queue_depth(b) > bound_) {
        violations_.push_back({now, b});
      }
    }
  }

  [[nodiscard]] std::size_t violations() const { return violations_.size(); }

 private:
  const SegmentedInterconnect& seg_;
  std::size_t bound_;
  std::vector<std::pair<Cycle, std::uint32_t>> violations_;
};

struct SaturatedRingResult {
  std::uint64_t total_stalls = 0;
  std::uint64_t completions = 0;
  bool queues_bounded = false;
  bool streams_in_order = false;
};

/// `per_segment` masters on each ring:4 segment, all hammering the NEXT
/// segment's stripe: the home cores compete for the same forward
/// bridge, so a depth-1 bound stalls whoever loses the race -- while
/// every queued entry only ever needs the downstream slave (never
/// another bridge), so the saturated ring still drains. Antipodal
/// (2-hop) saturation instead closes the documented credit cycle and
/// deadlocks; that caveat is exactly why the conservation scenario
/// drives single-hop traffic.
[[nodiscard]] SaturatedRingResult run_saturated_ring(std::uint32_t depth,
                                                     Cycle gap,
                                                     std::size_t count,
                                                     Cycle horizon,
                                                     std::uint32_t per_segment =
                                                         2) {
  const std::uint32_t n_masters = 4 * per_segment;
  SegmentedConfig cfg;
  cfg.n_masters = n_masters;
  cfg.topology = Topology::ring(4);
  cfg.bridge_depth = depth;
  cfg.stripe_log2 = 12;
  FixedSlave slave(5);
  SegmentedInterconnect seg(cfg, slave, rr_factory());

  std::vector<std::unique_ptr<StreamMaster>> masters;
  for (MasterId m = 0; m < n_masters; ++m) {
    const Addr stripe = static_cast<Addr>((m / per_segment + 1) % 4) << 12;
    masters.push_back(
        std::make_unique<StreamMaster>(m, seg, stripe, count, gap));
  }
  const std::size_t bound =
      depth == 0 ? std::numeric_limits<std::size_t>::max() : depth;
  QueueBoundChecker checker(seg, bound);

  sim::Kernel kernel;
  for (auto& m : masters) kernel.add(*m);
  kernel.add(seg);
  kernel.add(checker);  // after seg: observes settled end-of-cycle state
  kernel.run_until(
      [&]() {
        for (const auto& m : masters) {
          if (m->completed.size() < count) return false;
        }
        return true;
      },
      horizon);

  SaturatedRingResult result;
  result.queues_bounded = checker.violations() == 0;
  result.streams_in_order = true;
  for (MasterId m = 0; m < n_masters; ++m) {
    result.completions += masters[m]->completed.size();
    const Addr stripe = static_cast<Addr>((m / per_segment + 1) % 4) << 12;
    for (std::size_t i = 0; i < masters[m]->completed.size(); ++i) {
      if (masters[m]->completed[i] != stripe + static_cast<Addr>(i) * 4) {
        result.streams_in_order = false;
      }
    }
  }
  for (std::uint32_t s = 0; s < seg.n_segments(); ++s) {
    result.total_stalls += seg.backpressure_stalls(s);
  }
  return result;
}

TEST(Backpressure, SaturatedRingConservesBoundedQueuesWithoutDropOrReorder) {
  // The conservation contract at bridge_depth = 1: no queue ever holds
  // more than one entry, nothing is dropped (every issued load
  // completes), and each master's per-stripe stream completes in issue
  // order. The bound forces real stalling: withheld master-cycles are
  // visible in the backpressure counters.
  const SaturatedRingResult bounded =
      run_saturated_ring(/*depth=*/1, /*gap=*/0, /*count=*/40,
                         /*horizon=*/40'000);
  EXPECT_TRUE(bounded.queues_bounded);
  EXPECT_TRUE(bounded.streams_in_order);
  EXPECT_EQ(bounded.completions, 8u * 40u);  // nothing dropped or stuck
  EXPECT_GT(bounded.total_stalls, 0u);
}

TEST(Backpressure, UnboundedBridgesNeverStall) {
  const SaturatedRingResult unbounded =
      run_saturated_ring(/*depth=*/0, /*gap=*/0, /*count=*/40,
                         /*horizon=*/40'000);
  EXPECT_EQ(unbounded.completions, 8u * 40u);
  EXPECT_TRUE(unbounded.streams_in_order);
  EXPECT_EQ(unbounded.total_stalls, 0u);
}

TEST(Backpressure, StallsAreMonotoneInOfferedLoad) {
  // Fixed horizon, open-ended streams: offered load scales with the
  // number of streams contending for each forward bridge, and the
  // withheld master-cycles must not decrease with it. (Load is NOT
  // swept via the inter-request gap: a closed-loop stream with one
  // outstanding access self-synchronizes into a near-collision-free
  // pipeline at gap 0, so gap-vs-stalls is genuinely non-monotone.)
  const auto run = [](std::uint32_t per_segment) {
    return run_saturated_ring(/*depth=*/1, /*gap=*/0, /*count=*/100'000,
                              /*horizon=*/20'000, per_segment)
        .total_stalls;
  };
  const std::uint64_t heavy = run(3);
  const std::uint64_t medium = run(2);
  const std::uint64_t light = run(1);
  EXPECT_GE(heavy, medium);
  EXPECT_GE(medium, light);
  EXPECT_GT(heavy, light);
  // One stream per bridge never competes for its reservation: the
  // bound is invisible and the counters must say so.
  EXPECT_EQ(light, 0u);
}

// --- config-file surface -----------------------------------------------------

TEST(TopologyConfigFile, RingAndMeshFormsParse) {
  std::istringstream chain_in("cores = 4\ntopology = chain:3\n");
  const platform::PlatformConfig chain = platform::parse_config(chain_in);
  EXPECT_EQ(chain.topology.kind, TopologyKind::kChain);
  EXPECT_EQ(chain.topology.segments, 3u);

  std::istringstream ring_in("cores = 4\ntopology = ring:4\n");
  const platform::PlatformConfig ring = platform::parse_config(ring_in);
  EXPECT_EQ(ring.topology.kind, TopologyKind::kRing);
  EXPECT_EQ(ring.topology.segments, 4u);
  EXPECT_EQ(ring.topology.graph(), Topology::ring(4));

  std::istringstream mesh_in("cores = 6\ntopology = mesh:2x3\n");
  const platform::PlatformConfig mesh = platform::parse_config(mesh_in);
  EXPECT_EQ(mesh.topology.kind, TopologyKind::kMesh);
  EXPECT_EQ(mesh.topology.rows, 2u);
  EXPECT_EQ(mesh.topology.cols, 3u);
  EXPECT_EQ(mesh.topology.segments, 6u);
  EXPECT_EQ(mesh.topology.graph(), Topology::mesh(2, 3));
}

TEST(TopologyConfigFile, RejectsMalformedTopologies) {
  for (const char* value :
       {"ring:2", "mesh:1x1", "mesh:2", "mesh:0x3", "chain:", "torus:4"}) {
    std::istringstream in(std::string("cores = 4\ntopology = ") + value +
                          "\n");
    EXPECT_THROW((void)platform::parse_config(in), std::invalid_argument)
        << value;
  }
  // The unknown-value error enumerates the registry, mirroring the
  // controller-parse UX (and points at --list topologies).
  std::istringstream unknown("cores = 4\ntopology = torus:4\n");
  try {
    (void)platform::parse_config(unknown);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown topology 'torus:4'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("mesh:<rows>x<cols>"), std::string::npos) << what;
    EXPECT_NE(what.find("--list topologies"), std::string::npos) << what;
  }
}

TEST(TopologyConfigFile, BridgeDepthParsesAndRoundTrips) {
  std::istringstream unbounded(
      "cores = 4\ntopology = ring:4\nbridge_depth = unbounded\n");
  EXPECT_EQ(platform::parse_config(unbounded).topology.bridge_depth, 0u);
  std::istringstream zero("cores = 4\nbridge_depth = 0\n");
  EXPECT_THROW((void)platform::parse_config(zero), std::invalid_argument);

  std::istringstream bounded(
      "cores = 6\ntopology = mesh:2x3\nbridge_depth = 2\n");
  const platform::PlatformConfig cfg = platform::parse_config(bounded);
  EXPECT_EQ(cfg.topology.bridge_depth, 2u);
  EXPECT_EQ(cfg.segmented_config().bridge_depth, 2u);

  // write_config -> parse_config round trip preserves the graph and the
  // bound; the chain keeps its legacy `segmented:<n>` spelling.
  std::ostringstream out;
  platform::write_config(out, cfg);
  EXPECT_NE(out.str().find("topology = mesh:2x3"), std::string::npos);
  EXPECT_NE(out.str().find("bridge_depth = 2"), std::string::npos);
  std::istringstream back_in(out.str());
  const platform::PlatformConfig back = platform::parse_config(back_in);
  EXPECT_EQ(back.topology.kind, TopologyKind::kMesh);
  EXPECT_EQ(back.topology.rows, 2u);
  EXPECT_EQ(back.topology.cols, 3u);
  EXPECT_EQ(back.topology.bridge_depth, 2u);

  platform::PlatformConfig legacy;
  legacy.topology.segments = 4;
  std::ostringstream legacy_out;
  platform::write_config(legacy_out, legacy);
  EXPECT_NE(legacy_out.str().find("topology = segmented:4"),
            std::string::npos);
  EXPECT_NE(legacy_out.str().find("bridge_depth = unbounded"),
            std::string::npos);
}

TEST(TopologyPlatform, RejectsFewerCoresThanSegments) {
  // home_segment() block distribution leaves segments empty when
  // n_masters < n_segments; the config must refuse instead of building
  // an interconnect with coreless segments.
  std::istringstream in("cores = 2\ntopology = chain:4\n");
  try {
    (void)platform::parse_config(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n_masters >= n_segments"),
              std::string::npos)
        << e.what();
  }
  std::istringstream ok("cores = 4\ntopology = chain:4\n");
  EXPECT_NO_THROW((void)platform::parse_config(ok));
}

TEST(TopologyPlatform, CreditSlotsCountDegreeDependentBridgePorts) {
  const auto slots = [](const std::string& text) {
    std::istringstream in(text);
    return platform::parse_config(in).credit_slots();
  };
  EXPECT_EQ(slots("cores = 4\ntopology = single\n"), 4u);
  EXPECT_EQ(slots("cores = 4\ntopology = chain:2\n"), 4u + 2u);
  EXPECT_EQ(slots("cores = 4\ntopology = segmented:4\n"), 4u + 6u);
  EXPECT_EQ(slots("cores = 4\ntopology = ring:4\n"), 4u + 8u);
  EXPECT_EQ(slots("cores = 9\ntopology = mesh:3x3\n"), 9u + 24u);
  // Non-square mesh: 2 x (2 rows x 2 + 3 cols x 1) directed edges.
  EXPECT_EQ(slots("cores = 6\ntopology = mesh:2x3\n"), 6u + 14u);
}

TEST(TopologyPlatform, MulticoreRunsOnBoundedMesh) {
  std::istringstream in(
      "cores = 9\nsetup = hcba\nmode = wcet\ntopology = mesh:3x3\n"
      "bridge_depth = 2\n");
  const platform::PlatformConfig cfg = platform::parse_config(in);
  auto tua = workloads::make_eembc("canrdr");
  tua->reset(7);
  platform::Multicore machine(cfg, 7, *tua);
  ASSERT_NE(machine.segmented(), nullptr);
  EXPECT_EQ(machine.segmented()->topology(), Topology::mesh(3, 3));
  const platform::RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);

  // The record carries the new seg.* keys at their natural widths: one
  // element per directed edge for queue shape, per segment for stalls,
  // diameter + 1 buckets for the hop histogram.
  EXPECT_EQ(r.record.at("seg.occupancy").size(), 9u);
  EXPECT_EQ(r.record.at("seg.queue_depth_max").size(), 24u);
  EXPECT_EQ(r.record.at("seg.queue_depth_mean").size(), 24u);
  EXPECT_EQ(r.record.at("seg.backpressure_stalls").size(), 9u);
  EXPECT_EQ(r.record.at("seg.hop_histogram").size(), 5u);
}

// --- golden pin: the legacy chain is byte-frozen -----------------------------

[[nodiscard]] exp::ExperimentSpec parse_exp(const std::string& text) {
  std::istringstream in(text);
  return exp::parse_experiment(in);
}

[[nodiscard]] std::string csv_of(const exp::ExperimentSpec& spec,
                                 const exp::ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kCsv)->write(spec, result.jobs, out);
  return out.str();
}

[[nodiscard]] std::string json_of(const exp::ExperimentSpec& spec,
                                  const exp::ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kJson)->write(spec, result.jobs, out);
  return out.str();
}

TEST(TopologyGolden, ChainCampaignBytesAndSpecHashArePinned) {
  // Captured from the pre-refactor linear-chain implementation (PR 5-8
  // behavior). The graph-routed core must reproduce every byte of this
  // campaign AND its checkpoint spec hash -- `topology = segmented:<n>`
  // is frozen. If this test breaks, the refactor changed observable
  // chain behavior; do not re-bless without understanding why.
  const std::string spec_text =
      "name = chain-golden\n"
      "kernel = canrdr\n"
      "sweep scenario = iso con\n"
      "topology = segmented:4\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 3\n"
      "metrics = tua.cycles,bus.occupancy_share,seg.occupancy,seg.grants,"
      "seg.remote_fraction,seg.bridge_hops,seg.mean_bridge_wait,"
      "fair.jain_occupancy,credit.budget\n";
  const char* golden_csv =
      "job,kernel,scenario,seed,run,cycles,tua.cycles,"
      "bus.occupancy_share[0],bus.occupancy_share[1],bus.occupancy_share[2],"
      "bus.occupancy_share[3],seg.occupancy[0],seg.occupancy[1],"
      "seg.occupancy[2],seg.occupancy[3],seg.grants[0],seg.grants[1],"
      "seg.grants[2],seg.grants[3],seg.remote_fraction,seg.bridge_hops,"
      "seg.mean_bridge_wait,fair.jain_occupancy,credit.budget[0],"
      "credit.budget[1],credit.budget[2],credit.budget[3]\n"
      "0,canrdr,iso,14592251008053203194,0,416137,416137,"
      "0.009486636644574636,0,0,0,0.030336090431539536,"
      "0.0076104561467590075,0,0,1936,339,0,0,0.17510330578512398,339,2,"
      "0.25,56,56,56,56\n"
      "0,canrdr,iso,14592251008053203194,1,416323,416323,"
      "0.008908926701319165,0,0,0,0.029109539685437304,"
      "0.006526167119839356,0,0,1835,249,0,0,0.13569482288828338,249,2,"
      "0.25,56,56,56,56\n"
      "0,canrdr,iso,14592251008053203194,2,417518,417518,"
      "0.00991332130992841,0,0,0,0.032547021812181005,"
      "0.007106263427532639,0,0,2129,299,0,0,0.14044152184124,299,2,"
      "0.25,56,56,56,56\n"
      "1,canrdr,con,17069869281103512697,0,418803,418803,"
      "0.009297905464131192,0.025104822303511905,0.025104822303511905,"
      "0.025104822303511905,0.029892264639306214,0.10771864643126618,"
      "0.10041928921404762,0.10041928921404762,1915,1068,751,751,"
      "0.07605566218809981,317,2,0.9052229071824117,56,56,56,56\n"
      "1,canrdr,con,17069869281103512697,1,417307,417307,"
      "0.009672711762055844,0.025999980829507222,0.025999980829507222,"
      "0.025999980829507222,0.031748732351165085,0.11094203801508717,"
      "0.10399992331802889,0.10399992331802889,2061,1060,775,775,"
      "0.06497948016415869,285,2,0.9057604117993755,56,56,56,56\n"
      "1,canrdr,con,17069869281103512697,2,417969,417969,"
      "0.00896057133287078,0.024886953609110703,0.024886953609110703,"
      "0.024886953609110703,0.02894705361628825,0.10644304615163767,"
      "0.09954781443644281,0.09954781443644281,1831,1025,743,743,"
      "0.06945812807881774,282,2,0.9018572700565683,56,56,56,56\n";

  const exp::ExperimentSpec spec = parse_exp(spec_text);
  EXPECT_EQ(exp::spec_hash(spec), 0xaa688b8a28722622ull);
  const auto result = exp::run_experiment(spec, /*threads=*/2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, result), golden_csv);
}

// --- campaign determinism on the new topologies ------------------------------

/// Spec text for a congested co-run: every non-TuA core is a streaming
/// contender with `gap` compute cycles between accesses. Streams sweep an
/// 8 MiB footprint so every access misses the private L2 and crosses the
/// fabric; the EEMBC `con` scenario alone is almost entirely absorbed by
/// the L2s (~3% remote traffic) and never engages backpressure.
[[nodiscard]] std::string corun_spec(const std::string& body, int gap = 2) {
  std::string text = "scenario = corun\nkernel = canrdr\n";
  for (int c = 1; c < 9; ++c) {
    text += "core" + std::to_string(c) + " = stream:" + std::to_string(gap) +
            "\n";
  }
  return text + body;
}

/// A congested bounded-mesh campaign: the canrdr TuA plus eight streaming
/// contenders on mesh:3x3 with depth-1 bridges. max_cycles is a deadlock
/// backstop only — runs finish at ~430k cycles, far below the cap, and an
/// unfinished run would surface as a missing sample, not a hang.
[[nodiscard]] exp::ExperimentSpec mesh_exp() {
  return parse_exp(corun_spec(
      "name = topo-det\n"
      "setup = hcba\n"
      "cores = 9\n"
      "topology = mesh:3x3\n"
      "bridge_depth = 1\n"
      "runs = 4\n"
      "max_cycles = 3000000\n"
      "summary = off\n"
      "metrics = all\n"));
}

// --- golden pins: bounded segmented bytes ------------------------------------

/// The congested mesh:3x3 co-run under one inner arbiter, unbounded and
/// depth-1 bridges, under RP and H-CBA: backpressure masks, bridge
/// queues, the hop histogram and per-segment credit budgets all reach
/// the bytes.
[[nodiscard]] exp::ExperimentSpec mesh_golden_exp(const std::string& arbiter) {
  return parse_exp(corun_spec(
      "name = mesh-golden\n"
      "topology = mesh:3x3\n"
      "sweep bridge_depth = unbounded 1\n"
      "sweep setup = rp hcba\n"
      "arbiter = " + arbiter + "\n"
      "cores = 9\n"
      "runs = 1\n"
      "max_cycles = 3000000\n"
      "metrics = tua.cycles,seg.occupancy,seg.grants,"
      "seg.backpressure_stalls,seg.queue_depth_max,seg.queue_depth_mean,"
      "seg.hop_histogram,credit.budget\n"));
}

constexpr const char* kMeshGoldenHeader =
    "job,kernel,scenario,bridge_depth,setup,seed,run,cycles,tua.cycles,"
    "seg.occupancy[0],seg.occupancy[1],seg.occupancy[2],seg.occupancy[3],"
    "seg.occupancy[4],seg.occupancy[5],seg.occupancy[6],seg.occupancy[7],"
    "seg.occupancy[8],seg.grants[0],seg.grants[1],seg.grants[2],"
    "seg.grants[3],seg.grants[4],seg.grants[5],seg.grants[6],seg.grants[7],"
    "seg.grants[8],seg.backpressure_stalls[0],seg.backpressure_stalls[1],"
    "seg.backpressure_stalls[2],seg.backpressure_stalls[3],"
    "seg.backpressure_stalls[4],seg.backpressure_stalls[5],"
    "seg.backpressure_stalls[6],seg.backpressure_stalls[7],"
    "seg.backpressure_stalls[8],seg.queue_depth_max[0],"
    "seg.queue_depth_max[1],seg.queue_depth_max[2],seg.queue_depth_max[3],"
    "seg.queue_depth_max[4],seg.queue_depth_max[5],seg.queue_depth_max[6],"
    "seg.queue_depth_max[7],seg.queue_depth_max[8],seg.queue_depth_max[9],"
    "seg.queue_depth_max[10],seg.queue_depth_max[11],"
    "seg.queue_depth_max[12],seg.queue_depth_max[13],"
    "seg.queue_depth_max[14],seg.queue_depth_max[15],"
    "seg.queue_depth_max[16],seg.queue_depth_max[17],"
    "seg.queue_depth_max[18],seg.queue_depth_max[19],"
    "seg.queue_depth_max[20],seg.queue_depth_max[21],"
    "seg.queue_depth_max[22],seg.queue_depth_max[23],"
    "seg.queue_depth_mean[0],seg.queue_depth_mean[1],"
    "seg.queue_depth_mean[2],seg.queue_depth_mean[3],"
    "seg.queue_depth_mean[4],seg.queue_depth_mean[5],"
    "seg.queue_depth_mean[6],seg.queue_depth_mean[7],"
    "seg.queue_depth_mean[8],seg.queue_depth_mean[9],"
    "seg.queue_depth_mean[10],seg.queue_depth_mean[11],"
    "seg.queue_depth_mean[12],seg.queue_depth_mean[13],"
    "seg.queue_depth_mean[14],seg.queue_depth_mean[15],"
    "seg.queue_depth_mean[16],seg.queue_depth_mean[17],"
    "seg.queue_depth_mean[18],seg.queue_depth_mean[19],"
    "seg.queue_depth_mean[20],seg.queue_depth_mean[21],"
    "seg.queue_depth_mean[22],seg.queue_depth_mean[23],"
    "seg.hop_histogram[0],seg.hop_histogram[1],seg.hop_histogram[2],"
    "seg.hop_histogram[3],seg.hop_histogram[4],credit.budget[0],"
    "credit.budget[1],credit.budget[2],credit.budget[3],credit.budget[4],"
    "credit.budget[5],credit.budget[6],credit.budget[7],credit.budget[8]\n";

TEST(TopologyGolden, MeshCorunBytesArePinned) {
  // Captured from the interconnect that ticked every segment every
  // cycle.
  const std::string golden_csv = std::string(kMeshGoldenHeader) +
      "0,canrdr,corun,unbounded,rp,14592251008053203194,0,422037,422037,"
      "0.373279183391069,0.4383870646719016,0.44527980892715824,"
      "0.4902378458811766,0.5214791085162948,0.4764523573706633,"
      "0.4196494154554803,0.4466090731166388,0.40618380335420035,9625,15653,"
      "12561,16733,19876,16149,12049,14734,11576,0,0,0,0,0,0,0,0,0,1,1,1,2,1,"
      "1,1,2,1,5,1,1,3,2,1,1,3,2,3,2,1,1,1,1,0.009297740961714348,"
      "0.05143849605959653,0.04331837417483734,0.06552490534027741,"
      "0.02181320165482729,0.01941057440325279,0.05809429482653221,"
      "0.08370099374937802,0.04431117577090215,0.44835773082044744,"
      "0.021230315753557737,0.0918685047318014,0.06614333306479511,"
      "0.18407110260213536,0.039766561304906196,0.017766172714305348,"
      "0.10222539202631042,0.17643908842331732,0.10762301025026183,"
      "0.0916931650704439,0.017330193015794786,0.05394537932603225,"
      "0.045431927930660275,0.015083949786512115,5120,15670,15970,8903,1792,,"
      ",,,,,,,\n"
      "1,canrdr,corun,unbounded,hcba,17069869281103512697,0,420277,420277,"
      "0.028742879712951905,0.04318332151575862,0.08299030641622926,"
      "0.08160550873469466,0.08574562551454037,0.08319969163268122,"
      "0.07804833943247089,0.060122109651230854,0.014806865931597657,2416,"
      "3041,1971,2149,2497,2283,1850,2059,1217,0,0,0,0,0,0,0,0,0,1,1,1,0,1,1,"
      "1,0,1,5,1,1,2,2,1,1,3,2,1,2,1,1,1,1,0.009060669366466958,"
      "0.0024507587834718923,0.00282432104464188,0,0.0030170506188760774,"
      "0.0020415058604066833,0.002210441660044066,0,0.0016655642217770143,"
      "0.028121862195975046,0.0023079961358910056,0.003221677080408682,"
      "0.006488562332551311,0.003105087584884291,0.002900461123351686,"
      "0.0023079961358910056,0.00827785418223176,0.009584132407596877,"
      "2.8552529516177386e-05,0.004880103169806652,0.002103369674358401,"
      "0.003047982525851936,0.002443620651092848,0.002108128429277764,731,"
      "3551,2202,941,256,56,48.375,23.5625,30.6875,50.75,31.6875,48.5,46.875,"
      "55.375\n"
      "2,canrdr,corun,1,rp,9781417775987323851,0,423045,423045,"
      "0.3539922372507954,0.42979723245226287,0.4398339660462456,"
      "0.4765699238380696,0.5148021728133584,0.4690861041116096,"
      "0.40211229984446134,0.4296057639121987,0.3945031982337618,9320,15306,"
      "12190,15593,19407,16317,11648,14563,11607,24,1196,825,17672,23960,"
      "79361,20968,33032,26030,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,"
      "1,0.009545061293570911,0.06062461292625388,0.0407946180793578,"
      "0.08191307801042913,0.0209268022862762,0.018792282635930843,"
      "0.06082790051200106,0.09299697905192343,0.040988450428558594,"
      "0.12468384052798041,0.017539463793535454,0.04947688903807151,"
      "0.07554734000557858,0.10057062352557405,0.12697437158134103,"
      "0.019846541510852248,0.07576244663700873,0.131212681363256,"
      "0.07196853297277364,0.11741039981467737,0.016338648752145156,"
      "0.06090117859523551,0.039002850753818735,0.015733513613176816,5019,"
      "15393,15492,8674,1792,,,,,,,,,\n"
      "3,canrdr,corun,1,hcba,6517201831895305540,0,422717,422717,"
      "0.03108455282244901,0.04552443946082258,0.08287794700012774,"
      "0.08116995254519561,0.08546359511541973,0.08281407463131449,"
      "0.07765697226046679,0.06176221499912471,0.015045491320454771,2628,"
      "3260,2002,2152,2515,2291,1855,2089,1226,0,2921,614,2744,6210,8887,"
      "1434,5027,2647,1,1,1,0,1,1,1,0,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,"
      "0.01001140240065481,0.0024224187283247932,0.0028695253100175532,0,"
      "0.003068239346325446,0.0020439158020240443,0.002261554984646975,0,"
      "0.0016843380220383328,0.017385112533651277,0.0023088678504345687,"
      "0.003084798849351104,0.006032390387918187,0.0034751299920987512,"
      "0.00311555221211304,0.002313599137013328,0.00770963148008838,"
      "0.006467668753164048,4.731286578759362e-05,0.005422054419258229,"
      "0.002114885100705435,0.0028671596667281733,0.0024224187283247932,"
      "0.0021196163872841942,737,3745,2245,944,256,56,47.125,36.1875,48.125,"
      "42.4375,26.0625,33.6875,46.5,39.375\n";

  const exp::ExperimentSpec spec = mesh_golden_exp("drr");
  const auto result = exp::run_experiment(spec, /*threads=*/2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, result), golden_csv);
}

TEST(TopologyGolden, MeshCorunDeficitAgeBytesArePinned) {
  // Captured from the deficit-age arbiter that scored every master into
  // an array and took a vector argmax. The pick's tie rule (the lowest
  // master wins) reaches these bytes.
  const std::string golden_csv = std::string(kMeshGoldenHeader) +
      "0,canrdr,corun,unbounded,rp,14592251008053203194,0,422722,422722,"
      "0.35022934640414644,0.41224868294367706,0.42939702831404963,"
      "0.4694894765603007,0.5031190637840856,0.4440307246116251,"
      "0.3840789358516097,0.41639087534863256,0.3788059793292534,9002,14565,"
      "11868,15552,18600,15166,11366,14596,11418,0,0,0,0,0,0,0,0,0,1,1,1,2,1,1,"
      "1,2,1,5,1,1,3,2,1,1,3,2,3,2,1,1,1,1,0.00928267447004303,"
      "0.06325418773049964,0.045947346134466306,0.10226554978082575,"
      "0.019923212127090317,0.017841470655724907,0.07828057616926451,"
      "0.1343906056684874,0.05562271274569872,0.4559605226117339,"
      "0.019284495993830475,0.09885906373677325,0.07696765967311928,"
      "0.1548460812399609,0.032200755577529494,0.01603887179074713,"
      "0.12379501470229914,0.142973058007253,0.11829022787972265,"
      "0.055476044596579795,0.015712416878192102,0.03225989596023874,"
      "0.06813208649635813,0.015868547488544507,4736,14878,15048,8381,1792,,,,,"
      ",,,,\n"
      "1,canrdr,corun,unbounded,hcba,17069869281103512697,0,420265,420265,"
      "0.0287437004183065,0.04318455454402688,0.08299267606706229,"
      "0.08160783884492202,0.08575997106594395,0.08321396448915687,"
      "0.07805056797361672,0.06019045080972527,0.014873913188314068,2416,3041,"
      "1971,2149,2498,2284,1850,2060,1218,0,0,0,0,0,0,0,0,0,1,1,1,0,1,1,1,0,1,"
      "5,1,1,3,2,1,1,2,1,1,2,1,1,1,1,0.009060928078883373,"
      "0.0024413109792369592,0.002957650630790975,0,0.0027887100074714586,"
      "0.0020415641522273987,0.0022176431117435147,0,0.0017274773595770299,"
      "0.027699123888204138,0.0023080620369004393,0.0028910261596227153,"
      "0.011828223077765035,0.0031289706995093584,0.0028267811338533217,"
      "0.0023080620369004393,0.00804966378436514,0.0032360457424583477,"
      "3.331223558413005e-05,0.0049302108664512475,0.002103429732597926,"
      "0.0028981644958193144,0.0024413109792369592,0.002108188623395659,732,"
      "3551,2203,941,256,56,44.4375,22.5625,45.0625,26.125,38.25,42.8125,"
      "36.5625,53.5\n"
      "2,canrdr,corun,1,rp,9781417775987323851,0,423145,423145,"
      "0.36509384467772354,0.41843713517320263,0.43619696275044545,"
      "0.4803495720153328,0.5295500843680432,0.47802649676471004,"
      "0.4118980210140235,0.4546444962258889,0.41847494718135114,9279,14643,"
      "11891,15922,20234,16903,11893,15513,12452,72,1987,1154,18712,33266,"
      "80349,18764,16029,11948,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,"
      "0.009542805556474597,0.07103458380795281,0.03692815245801685,"
      "0.07781947602009709,0.01818048616789477,0.017374617744230124,"
      "0.07700415459439532,0.07513009694053589,0.06687998941263772,"
      "0.11755753333364843,0.01754477178089832,0.044478737835168,"
      "0.07870805821158655,0.09748408350782,0.060525208793182496,"
      "0.020602817939907266,0.0950121234751126,0.09721939945078058,"
      "0.07552475977558573,0.12254871840924882,0.015673077377548174,"
      "0.036148279789954295,0.06648060007656932,0.017714925817566514,4972,"
      "15686,16101,8617,1920,,,,,,,,,\n"
      "3,canrdr,corun,1,hcba,6517201831895305540,0,422950,422950,"
      "0.031067428614662218,0.045523003846781304,0.0828441119656887,"
      "0.08113705842993633,0.08546380077124774,0.08278027478360378,"
      "0.0776260134152656,0.06187477982083031,0.015103404413277188,2628,3262,"
      "2003,2153,2519,2292,1856,2092,1227,0,2963,634,3018,4417,10984,1349,5060,"
      "2630,1,1,1,0,1,1,1,0,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,"
      "0.010005887206792276,0.002421084239072611,0.0030499986996129574,0,"
      "0.003128021922161196,0.0020475185068719545,0.0023832547978371015,0,"
      "0.0018087201590728005,0.02052247187026393,0.0023123245955205215,"
      "0.00307600644046237,0.006270229884785708,0.003019262278609106,"
      "0.003345541209265376,0.0023123245955205215,0.0043976725436279855,"
      "0.006345888767256727,5.201548169882563e-05,0.005234648930963634,"
      "0.002118448709188535,0.0028703088537442873,0.002421084239072611,"
      "0.002118448709188535,737,3745,2247,945,256,56,47.25,16.9375,41.1875,"
      "40.3125,54.6875,51.375,55.25,52.4375\n";

  const exp::ExperimentSpec spec = mesh_golden_exp("da");
  const auto result = exp::run_experiment(spec, /*threads=*/2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, result), golden_csv);
}

TEST(TopologyGolden, RingConBytesArePinned) {
  // Captured from the interconnect that ticked every segment every
  // cycle. WCET mode on ring:4 under H-CBA with depth-2 bridges: each
  // Table-I contender reads its home segment's budget every cycle to
  // latch COMP, while the TuA's routed transfers charge remote
  // occupancy to segment 0's budget.
  const std::string spec_text =
      "name = ring-golden\n"
      "kernel = canrdr\n"
      "scenario = con\n"
      "topology = ring:4\n"
      "bridge_depth = 2\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 2\n"
      "metrics = tua.cycles,seg.occupancy,seg.grants,seg.bridge_hops,"
      "seg.backpressure_stalls,seg.queue_depth_mean,seg.hop_histogram,"
      "credit.budget\n";
  const char* golden_csv =
      "job,kernel,scenario,seed,run,cycles,tua.cycles,seg.occupancy[0],"
      "seg.occupancy[1],seg.occupancy[2],seg.occupancy[3],seg.grants[0],"
      "seg.grants[1],seg.grants[2],seg.grants[3],seg.bridge_hops,"
      "seg.backpressure_stalls[0],seg.backpressure_stalls[1],"
      "seg.backpressure_stalls[2],seg.backpressure_stalls[3],"
      "seg.queue_depth_mean[0],seg.queue_depth_mean[1],"
      "seg.queue_depth_mean[2],seg.queue_depth_mean[3],"
      "seg.queue_depth_mean[4],seg.queue_depth_mean[5],"
      "seg.queue_depth_mean[6],seg.queue_depth_mean[7],seg.hop_histogram[0],"
      "seg.hop_histogram[1],seg.hop_histogram[2],credit.budget[0],"
      "credit.budget[1],credit.budget[2],credit.budget[3]\n"
      "0,canrdr,con,14592251008053203194,0,419268,419268,0.03010954780820905,"
      "0.10866293477457194,0.10110931168295295,0.10110931168295295,1936,1096,"
      "757,757,339,0,0,0,0,0.00161710023874887,0,0,0,0,0,0,0,3868,339,0,56,"
      "56,56,56\n"
      "0,canrdr,con,14592251008053203194,1,417670,417670,"
      "0.029015660651565467,0.10893981147841243,0.10243469141980172,"
      "0.10243469141980172,1835,1013,764,764,249,0,0,0,0,"
      "0.0011923260173677369,0,0,0,0,0,0,0,3878,249,0,56,48.166666666666664,"
      "48.166666666666664,48.166666666666664\n";

  const exp::ExperimentSpec spec = parse_exp(spec_text);
  const auto result = exp::run_experiment(spec, /*threads=*/2);
  ASSERT_EQ(result.failed_jobs(), 0u);
  EXPECT_EQ(csv_of(spec, result), golden_csv);
}

TEST(TopologyExperiment, BatchedIsByteIdenticalToSerialOnRingAndMesh) {
  // The acceptance matrix for the new topologies: batch {1, 8} x
  // threads {1, 4} must reproduce the serial bytes, bounded bridges and
  // every metric included.
  // bridge_depth 2, not 1: a depth-2 ring:4 cannot close the bounded-ring
  // credit cycle with only 9 masters (12 committed slots would be needed),
  // so the spec is deadlock-free on both swept topologies by construction.
  const std::string text = corun_spec(
      "sweep topology = ring:4 mesh:3x3\n"
      "bridge_depth = 2\n"
      "setup = hcba\n"
      "cores = 9\n"
      "runs = 3\n"
      "max_cycles = 3000000\n"
      "metrics = all\n");
  const exp::ExperimentSpec serial_spec = parse_exp(text);
  const auto serial = exp::run_experiment(serial_spec, /*threads=*/1);
  ASSERT_EQ(serial.jobs.size(), 2u);
  EXPECT_EQ(serial.failed_jobs(), 0u);
  for (const auto& job : serial.jobs) {
    ASSERT_EQ(job.campaign.samples().size(), 3u);
  }
  const std::string expected_csv = csv_of(serial_spec, serial);
  const std::string expected_json = json_of(serial_spec, serial);
  EXPECT_NE(expected_csv.find("ring:4"), std::string::npos);
  EXPECT_NE(expected_csv.find("mesh:3x3"), std::string::npos);

  for (const std::uint32_t batch : {1u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      exp::ExperimentSpec spec = parse_exp(text);
      spec.batch = batch;
      const auto result = exp::run_experiment(spec, threads);
      EXPECT_EQ(csv_of(spec, result), expected_csv)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(json_of(spec, result), expected_json)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

/// A scratch file path with any stale leftover removed.
[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(TopologyExperiment, CheckpointResumeReproducesMeshBytes) {
  exp::ExperimentSpec spec = mesh_exp();
  spec.retain_raw = false;
  spec.batch = 2;
  exp::RunOptions options;
  options.threads_override = 1;
  options.checkpoint_path = temp_path("topo-full.ckpt");
  const auto uninterrupted = exp::run_experiment(spec, options);
  ASSERT_EQ(uninterrupted.failed_jobs(), 0u);
  const std::string expected = json_of(spec, uninterrupted);

  const exp::LoadedCheckpoint full =
      exp::load_checkpoint(options.checkpoint_path);
  ASSERT_GE(full.slices.size(), 2u);
  exp::RunOptions resume;
  resume.threads_override = 2;
  resume.checkpoint_path = temp_path("topo-partial.ckpt");
  {
    exp::CheckpointWriter writer = exp::CheckpointWriter::create(
        resume.checkpoint_path, exp::make_meta(spec, 0, 1));
    writer.append(full.slices[0]);
  }
  const auto resumed = exp::run_experiment(spec, resume);
  EXPECT_EQ(json_of(spec, resumed), expected);
}

TEST(TopologyExperiment, ShardsMergeToSingleProcessMeshBytes) {
  exp::ExperimentSpec spec = mesh_exp();
  spec.retain_raw = false;
  spec.batch = 2;
  exp::RunOptions single;
  single.threads_override = 2;
  const std::string expected =
      json_of(spec, exp::run_experiment(spec, single));

  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    exp::RunOptions options;
    options.threads_override = 2;
    options.shard_index = i;
    options.shard_count = 2;
    options.checkpoint_path =
        temp_path("topo-shard-" + std::to_string(i) + ".ckpt");
    paths.push_back(options.checkpoint_path);
    const auto shard = exp::run_experiment(spec, options);
    ASSERT_EQ(shard.failed_jobs(), 0u);
  }
  const auto result = exp::fold_checkpoints_streaming(spec, paths);
  EXPECT_EQ(json_of(spec, result), expected);
}

/// Total withheld master-cycles across every segment of a job.
[[nodiscard]] double job_stall_sum(const exp::JobResult& job) {
  const auto& agg = job.campaign.aggregate;
  double sum = 0.0;
  for (std::size_t s = 0; s < agg.width("seg.backpressure_stalls"); ++s) {
    sum += agg.element_sum("seg.backpressure_stalls", s);
  }
  return sum;
}

TEST(TopologyExperiment, MeshCongestionStallsRespondToBridgeDepth) {
  // The mesh_congestion.exp contract in miniature: unbounded bridges
  // never stall; a depth-1 bound under the same congested load does.
  const std::string text = corun_spec(
      "topology = mesh:3x3\n"
      "sweep bridge_depth = unbounded 1\n"
      "setup = hcba\n"
      "cores = 9\n"
      "runs = 2\n"
      "max_cycles = 3000000\n"
      "metrics = seg.backpressure_stalls,seg.queue_depth_max\n");
  const exp::ExperimentSpec spec = parse_exp(text);
  const auto result = exp::run_experiment(spec, 2);
  ASSERT_EQ(result.jobs.size(), 2u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  for (const auto& job : result.jobs) {
    ASSERT_EQ(job.campaign.samples().size(), 2u);
  }
  EXPECT_EQ(job_stall_sum(result.jobs[0]), 0.0);  // unbounded: never engages
  EXPECT_GT(job_stall_sum(result.jobs[1]), 0.0);  // depth 1: real stalls

  // And the depth-1 job's high-water queue depth respects the bound.
  const auto& bounded = result.jobs[1].campaign.aggregate;
  for (std::size_t b = 0; b < bounded.width("seg.queue_depth_max"); ++b) {
    EXPECT_LE(bounded.element_stats("seg.queue_depth_max", b).max(), 1.0)
        << "bridge " << b;
  }
}

TEST(TopologyExperiment, MeshCongestionStallsAreMonotoneInOfferedLoad) {
  // Widening every contender's inter-access gap lowers the offered load;
  // the depth-1 stall totals must fall with it. (Strided streams sweep
  // all stripes, so unlike the closed-loop single-stripe harness above
  // they never self-synchronize into a collision-free pipeline.)
  const auto stalls_at = [](int gap) {
    const exp::ExperimentSpec spec = parse_exp(corun_spec(
        "topology = mesh:3x3\n"
        "bridge_depth = 1\n"
        "setup = hcba\n"
        "cores = 9\n"
        "runs = 1\n"
        "max_cycles = 3000000\n"
        "metrics = seg.backpressure_stalls\n",
        gap));
    const auto result = exp::run_experiment(spec, 1);
    EXPECT_EQ(result.failed_jobs(), 0u);
    EXPECT_EQ(result.jobs[0].campaign.samples().size(), 1u);
    return job_stall_sum(result.jobs[0]);
  };
  const double heavy = stalls_at(0);
  const double medium = stalls_at(16);
  const double light = stalls_at(64);
  EXPECT_GE(heavy, medium);
  EXPECT_GE(medium, light);
  EXPECT_GT(heavy, light);
  EXPECT_GT(light, 0.0);  // lighter, but still congested
}

// --- observability: per-edge bridge tracks -----------------------------------

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TopologyObs, MeshTraceHasOneBridgeTrackPerDirectedEdge) {
  exp::ExperimentSpec spec = parse_exp(
      "name = topo-obs\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 1\n"
      "summary = off\n");
  spec.set_platform_key("topology", "mesh:2x2");
  spec.trace_path = temp_path("topo_mesh_trace.json");
  const auto result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const std::string trace = file_bytes(spec.trace_path);
  ASSERT_FALSE(trace.empty());
  const Topology mesh = Topology::mesh(2, 2);
  for (const TopologyEdge& e : mesh.edges()) {
    const std::string name = "\"bridge s" + std::to_string(e.from) + "->s" +
                             std::to_string(e.to) + "\"";
    EXPECT_NE(trace.find(name), std::string::npos) << name;
  }
  // No chain-shaped leftovers: a 2x2 mesh has no 1<->2 adjacency.
  EXPECT_EQ(trace.find("\"bridge s1->s2\""), std::string::npos);
  std::remove(spec.trace_path.c_str());
}

}  // namespace
}  // namespace cbus
