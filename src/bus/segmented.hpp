// SegmentedInterconnect: bus segments joined by store-and-forward
// bridges -- the multi-contention-point generalisation of the paper's
// single bus (ROADMAP "multi-segment/NoC-style interconnects").
//
// The shape of the interconnect is a bus::Topology graph (chain, ring or
// 2D mesh; see topology.hpp): segments are nodes, bridges are directed
// edges, and each topology supplies a deterministic next-hop routing
// function. Every global master (core) is attached to a *home segment*;
// the address space is interleaved across segments in
// `2^stripe_log2`-byte ranges, and a request targets the segment owning
// its address range:
//
//   core m (home h) --> segment h --> [bridge]* --> segment t --> slave
//
//  * On its home segment the request competes under that segment's OWN
//    arbiter instance (any registered policy) and OWN eligibility filter
//    (per-segment CBA credit accounting) -- the single-bus protocol
//    contract (1-cycle arbitration, overlapped re-arbitration, at most
//    one outstanding request per master) holds per segment, unchanged.
//  * If the target is local (`t == h`), the slave decides the hold time
//    exactly as on the single bus.
//  * Otherwise the transfer occupies the local segment for `bridge_hold`
//    cycles (the forward beat into the bridge), sits `bridge_latency`
//    cycles in the store-and-forward buffer, then re-arbitrates on the
//    next segment as that segment's bridge-ingress master -- hop by hop
//    along the topology's routed path until the target segment, where
//    the slave is consulted. The response path is folded into the hold
//    times (the originating master is notified when the target-segment
//    transfer completes).
//  * Forced-hold requests (WCET-mode virtual contenders, trace replay)
//    never route: they model synthetic contention on the master's home
//    segment, mirroring the paper's Table-I setup per segment.
//
// Bridge queues are unbounded by default (`bridge_depth = 0`: the model
// studies bandwidth shares, not buffer sizing). With a bounded
// `bridge_depth`, a full downstream queue exerts *backpressure*: any
// request whose routed next hop would enqueue into a full bridge is
// withheld from arbitration (masked out of grant eligibility, exactly
// like an exhausted credit budget), and a blocked bridge-ingress
// occupant keeps its port busy -- which stalls the upstream bridge head
// in turn, so congestion propagates hop-by-hop instead of accumulating
// in infinite buffers. Admission is a grant-time RESERVATION: winning a
// segment's arbitration reserves one slot in the routed next-hop bridge
// (overlapped arbitration grants while the previous transfer is still
// in service, so testing the live queue alone would leak admissions),
// and the reservation converts into the real queue entry when the
// forward beat completes. queued + reserved never exceeds the bound, so
// no entry is ever dropped or reordered. Caveat: shortest-path routing on a
// bounded ring admits cyclic waits. Sustained multi-hop traffic (e.g.
// antipodal streams, two masters per segment, depth 1) fills every
// forward bridge while each ingress occupant waits on the next full one,
// and nothing drains again (docs/TOPOLOGIES.md). `chain`/`mesh` (XY
// routing is deadlock-free) or a deeper bound avoid it.
//
// Tick, skip and settle. tick(t) ticks only the segments with an event
// at t. A segment's horizon is its NonSplitBus::next_event, cached when
// it last ticked. Two things pull it in to t: a hop raised on it (a core
// request, a bridge delivery) and, with a bounded bridge_depth, a pop
// from one of its outgoing bridges, which may open its backpressure
// mask. A cached horizon may be early (a remote-occupancy charge only
// lowers a budget), never late. A quiet segment's installed filter still
// gets on_cycle(holder, t) at its place in segment order, so credit
// budgets and remote charges stay per-cycle exact for every reader. Its
// bus counters and its backpressure stalls (k times the count of
// blocked pending requests, which cannot change while it is quiet)
// catch up in closed form the next time it ticks or when a statistic is
// read; a bridge's queue-depth sum and high-water mark catch up when its
// queue changes or is read (a cycle pops before it pushes, so the depth
// after a push is that cycle's end-of-cycle depth). The horizons, the
// holders of the quiet segments and the installed filters sit in packed
// per-segment arrays, so the per-cycle passes do not walk the segments.
// next_event() is the earliest segment horizon or ready bridge head with
// a free ingress port; skip() counts the quiet cycles and advances every
// installed filter. Random draws (arbitration, the slave) happen only
// inside executed segment ticks, all state is per-instance, and every
// statistic equals the tick-every-segment-every-cycle model's -- so a
// replica is lane-safe under sim::BatchKernel, for every topology.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/bus.hpp"
#include "bus/interfaces.hpp"
#include "bus/request.hpp"
#include "bus/topology.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::bus {

struct SegmentedConfig {
  std::uint32_t n_masters = 4;  ///< global bus masters (cores)
  /// Interconnect graph (chain:<n> reproduces the legacy linear chain
  /// cycle-exactly; see topology.hpp for ring/mesh routing rules).
  Topology topology = Topology::chain(2);
  bool overlapped_arbitration = true;

  /// Cycles a forwarded request occupies the segment it leaves (the
  /// forward beat into the bridge; an L2-hit-sized transfer by default).
  Cycle bridge_hold = 5;
  /// Store-and-forward buffering delay per hop, in cycles.
  Cycle bridge_latency = 2;
  /// Address interleave: route(addr) = (addr >> stripe_log2) % n_segments.
  std::uint32_t stripe_log2 = 12;
  /// Bridge queue bound; 0 = unbounded (the legacy behavior). A full
  /// queue withholds grant eligibility upstream (backpressure).
  std::uint32_t bridge_depth = 0;

  [[nodiscard]] std::uint32_t n_segments() const noexcept {
    return topology.n_segments();
  }

  /// Home segment of master m: block distribution, so masters 0..k-1
  /// fill segment 0 first (the TuA's segment), then the next.
  [[nodiscard]] std::uint32_t home_segment(MasterId m) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(m) * n_segments()) / n_masters);
  }

  /// Segment owning the address range of `addr`.
  [[nodiscard]] std::uint32_t route(Addr addr) const noexcept {
    return (addr >> stripe_log2) % n_segments();
  }

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Aggregate bridge-traffic accounting, global across all bridges.
struct BridgeStats {
  std::uint64_t hops = 0;            ///< store-and-forward traversals
  Cycle queue_cycles = 0;            ///< total enqueue-to-re-raise time
  std::uint64_t remote_transactions = 0;  ///< completions that crossed >=1 bridge
  std::uint64_t local_transactions = 0;   ///< completions served at home
};

class SegmentedInterconnect final : public Interconnect {
 public:
  /// Builds the arbiter instance of one segment (`n_local` local
  /// masters). Called once per segment, in segment order, so randomized
  /// policies draw deterministic per-segment seeds.
  using ArbiterFactory = std::function<std::unique_ptr<Arbiter>(
      std::uint32_t n_local, std::uint32_t segment)>;

  /// `slave` serves target-segment transactions (with the ORIGINAL
  /// global request, so per-master slave partitioning keeps working).
  SegmentedInterconnect(const SegmentedConfig& config, BusSlave& slave,
                        const ArbiterFactory& make_segment_arbiter);
  ~SegmentedInterconnect() override;

  // --- BusPort (the global, protocol-facing view) ------------------------
  void connect_master(MasterId master, BusMaster& callbacks) override;
  void request(const BusRequest& request, Cycle now) override;
  /// True while the master's request is raised at home and not granted.
  [[nodiscard]] bool has_pending(MasterId master) const override;
  /// True iff the master has no transaction anywhere in the interconnect.
  [[nodiscard]] bool can_request(MasterId master) const override;

  /// Ticks the segments with an event at `now` (see the header comment).
  void tick(Cycle now) override;

  /// Earliest cached segment horizon or ready bridge head whose ingress
  /// port is free; kNever when every transaction waits on a full bridge.
  [[nodiscard]] Cycle next_event(Cycle now) const override;

  /// Counts `cycles` quiet cycles into ticked_cycles() and advances
  /// every installed filter with its segment's holder fixed; segment bus
  /// counters and bridge queue-depth sums settle lazily.
  void skip(Cycle from, Cycle cycles) override;

  /// Install a passive observer of GLOBAL-level activity (nullptr
  /// detaches): on_request at the global raise, on_transfer_start when
  /// the origin hop wins home-segment arbitration (hold = the home
  /// forward beat), on_transfer_complete when the target-segment hop
  /// retires -- the same request/grant/complete milestones NonSplitBus
  /// reports, so one BusObserver implementation covers both topologies.
  /// Transit hops are not observed as events; their effect shows up in
  /// the bridge queue depths below.
  void set_observer(BusObserver* observer) noexcept override {
    observer_ = observer;
  }

  /// Install segment `segment`'s eligibility filter (nullptr detaches).
  /// Local slot numbering (the filter's master ids): home cores in
  /// ascending global id, then one bridge-ingress port per incoming
  /// topology edge in ascending source-segment order (for the chain:
  /// from-left, then from-right, as always). Besides gating its own
  /// segment's arbitration, a filter receives
  /// on_remote_occupancy(local_core, cycles) whenever a home core's
  /// transaction finishes a hop on a FOREIGN segment, so per-segment
  /// credit accounting charges each core for its transaction's entire
  /// path. With a bounded `bridge_depth` the interconnect composes its
  /// own backpressure mask with the installed filter (filter first,
  /// then the blocked-next-hop mask).
  void set_filter(std::uint32_t segment, EligibilityFilter* filter) override;

  // --- topology introspection -------------------------------------------
  [[nodiscard]] std::uint32_t n_segments() const noexcept override {
    return config_.n_segments();
  }
  [[nodiscard]] std::uint32_t n_masters() const noexcept {
    return config_.n_masters;
  }
  [[nodiscard]] const Topology& topology() const noexcept {
    return config_.topology;
  }
  /// Local masters of a segment: home cores + bridge ingress ports.
  [[nodiscard]] std::uint32_t n_local_masters(
      std::uint32_t segment) const override;
  [[nodiscard]] std::uint32_t home_segment(MasterId master) const override;
  /// Local slot of a core on its home segment: its rank among the
  /// segment's home cores, in ascending global id.
  [[nodiscard]] std::uint32_t local_slot(MasterId master) const override;
  /// Bridges in delivery order = Topology::edges() order (for the chain:
  /// (s -> s+1), (s+1 -> s) per adjacency, the historical contract).
  [[nodiscard]] std::uint32_t n_bridges() const noexcept {
    return static_cast<std::uint32_t>(bridges_.size());
  }
  /// Requests currently buffered in bridge `b` (store-and-forward queue).
  [[nodiscard]] std::size_t bridge_queue_depth(std::uint32_t b) const;
  /// (from, to) segments of bridge `b`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bridge_route(
      std::uint32_t b) const;

  // --- statistics --------------------------------------------------------
  /// Global per-master view in BusStatistics shape: requests/grants/waits
  /// count home-segment arbitration, hold_cycles sums every segment-cycle
  /// occupied on the transaction's path, and busy/idle/total aggregate
  /// over all segments (total_cycles = n_segments x ticked cycles, so
  /// occupancy shares stay fractions of delivered interconnect capacity).
  /// The aggregates are assembled on each call.
  [[nodiscard]] const BusStatistics& statistics() const override;
  [[nodiscard]] const BusStatistics& segment_statistics(
      std::uint32_t segment) const;
  [[nodiscard]] const BridgeStats& bridge_stats() const noexcept {
    return bridge_stats_;
  }
  /// High-water mark of bridge `b`'s queue over the run.
  [[nodiscard]] std::size_t bridge_queue_depth_max(std::uint32_t b) const;
  /// Sum of bridge `b`'s end-of-cycle queue depths (mean = sum / ticks).
  [[nodiscard]] std::uint64_t bridge_queue_depth_sum(std::uint32_t b) const;
  /// Cycles this interconnect has ticked (denominator for depth means).
  [[nodiscard]] std::uint64_t ticked_cycles() const noexcept {
    return ticks_;
  }
  /// Master-cycles segment `segment` withheld a pending request from
  /// arbitration because its routed next-hop bridge was full. Always 0
  /// when bridge_depth is unbounded.
  [[nodiscard]] std::uint64_t backpressure_stalls(std::uint32_t segment) const;
  /// Completed transactions by bridges crossed; index = hop count,
  /// size = topology diameter + 1.
  [[nodiscard]] std::span<const std::uint64_t> hop_histogram() const noexcept {
    return hop_histogram_;
  }
  [[nodiscard]] const SegmentedConfig& config() const noexcept {
    return config_;
  }

 private:
  // Per-(segment, local-slot) relay: routes NonSplitBus master callbacks
  // back into the interconnect with the port identity attached.
  struct PortRelay final : BusMaster {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    MasterId local = 0;
    void on_grant(const BusRequest& request, Cycle now, Cycle hold) override {
      owner->hop_granted(segment, local, request, now, hold);
    }
    void on_complete(const BusRequest& request, Cycle now) override {
      owner->hop_completed(segment, local, request, now);
    }
  };

  // Per-segment slave adapter: target-segment transactions go to the real
  // slave (translated back to the original request), transit hops cost
  // the bridge forward beat.
  struct SegmentSlave final : BusSlave {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    Cycle begin_transaction(const BusRequest& request, Cycle now) override {
      return owner->hop_begin(segment, request, now);
    }
  };

  // Per-segment eligibility adapter: applies the installed (credit)
  // filter first, then masks out requests whose routed next-hop bridge
  // is full -- the backpressure half of the grant-eligibility contract.
  // With bridge_depth unbounded the blocked mask is always 0, so the
  // composition is a byte-exact pass-through of the legacy behavior.
  //
  // The interconnect drives the user filter's per-cycle calls itself
  // (tick() and skip() reach every installed filter, ticked segment or
  // not), so skip() here is a no-op: settling a quiet segment's bus
  // counters must not advance its credits a second time.
  struct SegmentGate final : EligibilityFilter {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    /// The filter installed by set_filter (may be null).
    [[nodiscard]] EligibilityFilter* user() const {
      return owner->filter_[segment];
    }
    std::uint32_t eligible(std::uint32_t pending, Cycle now) override {
      EligibilityFilter* const f = user();
      const std::uint32_t mask = f != nullptr ? f->eligible(pending, now)
                                              : pending;
      return mask & ~owner->blocked_mask(segment);
    }
    void on_cycle(MasterId holder, Cycle now) override {
      if (EligibilityFilter* const f = user()) f->on_cycle(holder, now);
    }
    /// kNever while every pending request is backpressure-blocked (only a
    /// bridge pop, which wakes the segment, can change that); else the
    /// user filter's crossing over the unblocked ones, or now + 1.
    [[nodiscard]] Cycle next_eligible(std::uint32_t pending,
                                      Cycle now) const override {
      const std::uint32_t open = pending & ~owner->blocked_mask(segment);
      if (open == 0) return kNever;
      EligibilityFilter* const f = user();
      return f != nullptr ? f->next_eligible(open, now) : now + 1;
    }
    void skip(MasterId, Cycle, Cycle) override {}
  };

  struct Segment {
    std::vector<MasterId> cores;  ///< ascending global ids; slot = index
    /// Source segment feeding each bridge-ingress port, ascending; port
    /// i lives at local slot cores.size() + i.
    std::vector<std::uint32_t> ingress_from;
    /// The bridge feeding each bridge-ingress port.
    std::vector<std::uint32_t> ingress_bridge;
    std::unique_ptr<Arbiter> arbiter;
    std::unique_ptr<SegmentSlave> slave;
    std::unique_ptr<SegmentGate> gate;
    std::unique_ptr<NonSplitBus> bus;
    std::vector<std::unique_ptr<PortRelay>> relays;  ///< one per local slot
    /// Global master whose hop occupies each local slot (kNoMaster: free).
    std::vector<MasterId> port_owner;
    /// Bridge each occupied slot's hop forwards into, routed once when
    /// the hop is raised (kNoBridge: free, or delivered here).
    std::vector<std::uint32_t> port_bridge;

    /// Local slots whose occupant's routed next-hop bridge is full
    /// (blocked_mask), kept current as routes and fill levels change.
    std::uint32_t blocked = 0;
    /// ticked_cycles() value its bus counters are current to.
    mutable std::uint64_t synced = 0;
    /// Backpressure stalls through ticked_cycles() == stall_synced, and
    /// the count of blocked pending requests charged per cycle since.
    std::uint64_t stalls = 0;
    std::uint64_t stall_synced = 0;
    std::uint32_t stall_rate = 0;
  };

  static constexpr std::uint32_t kNoBridge = 0xFFFF'FFFFu;

  struct BridgeEntry {
    MasterId master = kNoMaster;
    Cycle ready = 0;     ///< earliest re-raise cycle (store-and-forward)
    Cycle enqueued = 0;  ///< for queue-time accounting
  };

  struct Bridge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t dest_port = 0;  ///< local slot of the ingress port on `to`
    std::deque<BridgeEntry> queue;
    /// Grant-time admissions not yet enqueued (bounded depth only):
    /// queue.size() + reserved <= bridge_depth is the hard invariant.
    std::uint32_t reserved = 0;
    /// Local slots of segment `from` whose hop forwards into this bridge.
    std::uint32_t routed = 0;
    /// End-of-cycle depths summed through ticked_cycles() == depth_synced;
    /// the queue has held its size since.
    std::uint64_t depth_sum = 0;
    std::uint64_t depth_synced = 0;
    std::size_t depth_max = 0;  ///< high-water mark, updated at each push
  };

  /// One outstanding transaction per global master.
  struct InFlight {
    bool active = false;
    BusRequest original;        ///< issued_at stamped at the global raise
    std::uint32_t target = 0;   ///< segment owning the address range
    std::uint32_t hops = 0;     ///< bridges crossed so far
    Cycle hop_hold = 0;         ///< hold of the hop currently in transfer
  };

  /// Raise master `master`'s hop on `segment` at local slot `local`.
  void raise_hop(std::uint32_t segment, std::uint32_t local, MasterId master,
                 Cycle forced_hold, Cycle now);
  /// Deliver ready bridge entries whose ingress port is free.
  void deliver_bridges(Cycle now);
  /// Make `segment` tick at `now` (or next cycle, if this cycle's tick
  /// has passed it) and recount its backpressure stalls at the end of
  /// the cycle.
  void wake(std::uint32_t segment, Cycle now);
  /// Tick segment `s` at `now`, after settling its quiet cycles.
  void tick_segment(std::uint32_t s, Cycle now);
  /// Apply the quiet cycles since `seg` last ticked to its bus counters.
  void settle(const Segment& seg) const;
  /// Fold the cycles since `bridge`'s queue last changed into its depth
  /// sum (before the queue changes).
  void settle_depth(Bridge& bridge) const {
    bridge.depth_sum += bridge.queue.size() * (ticks_ - bridge.depth_synced);
    bridge.depth_synced = ticks_;
  }
  /// Local slots whose occupant's routed next-hop bridge is full (0 when
  /// bridge_depth is unbounded). Consulted by the SegmentGate at
  /// arbitration time and by the stall accounting in tick().
  [[nodiscard]] std::uint32_t blocked_mask(std::uint32_t segment) const {
    return segments_[segment].blocked;
  }
  /// True iff a bounded bridge has no slot left to admit a hop: counting
  /// grant-time reservations, since overlapped arbitration admits the
  /// next transfer while the previous one is still in service.
  [[nodiscard]] bool full(const Bridge& bridge) const noexcept {
    return config_.bridge_depth > 0 &&
           bridge.queue.size() + bridge.reserved >= config_.bridge_depth;
  }
  /// Bridge index of directed edge (from -> to); asserts adjacency.
  [[nodiscard]] std::uint32_t bridge_index(std::uint32_t from,
                                           std::uint32_t to) const;
  /// Calls f(b) for every bridge b holding entries whose ingress port
  /// is free, in index order.
  template <typename F>
  void for_each_open(const F& f) const {
    for (std::size_t w = 0; w < queued_.size(); ++w) {
      for (std::uint64_t bits = queued_[w] & ~ingress_busy_[w]; bits != 0;
           bits &= bits - 1) {
        f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  // NonSplitBus callback targets (see PortRelay / SegmentSlave).
  Cycle hop_begin(std::uint32_t segment, const BusRequest& local_request,
                  Cycle now);
  void hop_granted(std::uint32_t segment, MasterId local,
                   const BusRequest& local_request, Cycle now, Cycle hold);
  void hop_completed(std::uint32_t segment, MasterId local,
                     const BusRequest& local_request, Cycle now);

  [[nodiscard]] MasterId owner_of(std::uint32_t segment,
                                  MasterId local) const;

  SegmentedConfig config_;
  BusSlave& slave_;

  std::vector<Segment> segments_;
  /// Per segment: the first cycle its bus may do more than count -- its
  /// next_event after it last ticked, pulled in by wake().
  std::vector<Cycle> horizon_;
  /// Per segment: its bus holder as of its last tick, fixed while quiet.
  std::vector<MasterId> holder_;
  /// Per segment: the filter installed by set_filter (null: none).
  std::vector<EligibilityFilter*> filter_;
  std::vector<Bridge> bridges_;  ///< Topology::edges() order
  /// Bit b set iff bridge b's queue is non-empty, and iff its ingress
  /// port is occupied (port_owner of its dest_port): the per-cycle bridge
  /// passes visit only the queued bridges with a free port.
  std::vector<std::uint64_t> queued_;
  std::vector<std::uint64_t> ingress_busy_;
  /// Per bridge: the ready cycle of its queue head (valid while queued).
  std::vector<Cycle> head_ready_;
  /// Directed-edge lookup: edge_index_[from * n + to] = bridge index.
  std::vector<std::uint32_t> edge_index_;

  std::vector<std::uint32_t> home_;  ///< per master
  std::vector<std::uint32_t> slot_;  ///< per master: home-segment slot
  BusObserver* observer_ = nullptr;  ///< global-level milestones (may be null)
  std::vector<BusMaster*> callbacks_;
  std::vector<InFlight> flight_;

  /// Live global per-master counters; busy/idle/total assembled on demand
  /// by statistics().
  mutable BusStatistics global_;
  BridgeStats bridge_stats_;
  std::vector<std::uint64_t> hop_histogram_;  ///< per completed hop count
  std::uint64_t ticks_ = 0;
  /// The cycle after the last one ticked or skipped.
  Cycle clock_ = 0;
  /// Segments whose stall count is recounted at the end of this cycle.
  std::uint32_t recount_ = 0;
};

}  // namespace cbus::bus
