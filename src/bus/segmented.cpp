#include "bus/segmented.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace cbus::bus {

void SegmentedConfig::validate() const {
  CBUS_EXPECTS_MSG(n_masters >= 1 && n_masters <= kMaxMasters,
                   "segmented interconnect: bad master count");
  CBUS_EXPECTS_MSG(bridge_hold >= 1, "bridge_hold must be positive");
  CBUS_EXPECTS_MSG(stripe_log2 <= 31, "seg_stripe exceeds the address width");
  // Block distribution covers every segment iff there are at least as
  // many masters as segments; fewer would leave segments with no home
  // cores and a skewed home_segment map -- reject instead of silently
  // degenerating.
  CBUS_EXPECTS_MSG(n_masters >= n_segments(),
                   "segmented interconnect needs n_masters >= n_segments "
                   "(every segment needs a home core; got " +
                       std::to_string(n_masters) + " masters for " +
                       std::to_string(n_segments()) + " segments)");
  // Every segment's local master set (home cores + one bridge ingress
  // port per incoming topology edge) must fit the arbiter mask types.
  std::vector<std::uint32_t> cores_per_segment(n_segments(), 0);
  for (MasterId m = 0; m < n_masters; ++m) {
    ++cores_per_segment[home_segment(m)];
  }
  for (std::uint32_t s = 0; s < n_segments(); ++s) {
    CBUS_EXPECTS_MSG(cores_per_segment[s] + topology.in_degree(s) <=
                         kMaxMasters,
                     "segment " + std::to_string(s) +
                         " has too many local masters");
  }
}

SegmentedInterconnect::SegmentedInterconnect(
    const SegmentedConfig& config, BusSlave& slave,
    const ArbiterFactory& make_segment_arbiter)
    : Interconnect("segmented-interconnect"),
      config_(config),
      slave_(slave),
      home_(config.n_masters),
      slot_(config.n_masters),
      callbacks_(config.n_masters, nullptr),
      flight_(config.n_masters),
      hop_histogram_(config.topology.diameter() + 1, 0) {
  config_.validate();
  CBUS_EXPECTS_MSG(make_segment_arbiter != nullptr,
                   "segmented interconnect needs an arbiter factory");

  const Topology& topo = config_.topology;
  const std::uint32_t n = topo.n_segments();
  segments_.resize(n);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    home_[m] = config_.home_segment(m);
    Segment& seg = segments_[home_[m]];
    slot_[m] = static_cast<std::uint32_t>(seg.cores.size());
    seg.cores.push_back(m);
  }

  // One ingress port per incoming edge, in ascending source-segment
  // order (for the chain: from-left before from-right, the historical
  // slot layout).
  for (const TopologyEdge& e : topo.edges()) {
    segments_[e.to].ingress_from.push_back(e.from);
  }
  for (Segment& seg : segments_) {
    std::sort(seg.ingress_from.begin(), seg.ingress_from.end());
  }

  for (std::uint32_t s = 0; s < n; ++s) {
    Segment& seg = segments_[s];
    const std::uint32_t n_local = static_cast<std::uint32_t>(
        seg.cores.size() + seg.ingress_from.size());

    seg.arbiter = make_segment_arbiter(n_local, s);
    CBUS_EXPECTS_MSG(seg.arbiter != nullptr,
                     "segment arbiter factory returned null");
    CBUS_EXPECTS(seg.arbiter->n_masters() == n_local);

    seg.slave = std::make_unique<SegmentSlave>();
    seg.slave->owner = this;
    seg.slave->segment = s;
    seg.bus = std::make_unique<NonSplitBus>(
        BusConfig{n_local, config_.overlapped_arbitration}, *seg.arbiter,
        *seg.slave);

    seg.gate = std::make_unique<SegmentGate>();
    seg.gate->owner = this;
    seg.gate->segment = s;
    seg.bus->set_filter(seg.gate.get());

    seg.relays.reserve(n_local);
    for (std::uint32_t local = 0; local < n_local; ++local) {
      auto relay = std::make_unique<PortRelay>();
      relay->owner = this;
      relay->segment = s;
      relay->local = local;
      seg.bus->connect_master(local, *relay);
      seg.relays.push_back(std::move(relay));
    }
    seg.port_owner.assign(n_local, kNoMaster);
    seg.port_bridge.assign(n_local, kNoBridge);
  }

  // One bridge per directed edge, in Topology::edges() order: the
  // delivery order below is part of the determinism contract (for the
  // chain this is the historical (s, direction) order).
  edge_index_.assign(static_cast<std::size_t>(n) * n, kNoBridge);
  for (const TopologyEdge& e : topo.edges()) {
    const Segment& dest = segments_[e.to];
    const auto it = std::find(dest.ingress_from.begin(),
                              dest.ingress_from.end(), e.from);
    CBUS_ASSERT(it != dest.ingress_from.end());
    const std::uint32_t port = static_cast<std::uint32_t>(
        dest.cores.size() + (it - dest.ingress_from.begin()));
    edge_index_[static_cast<std::size_t>(e.from) * n + e.to] =
        static_cast<std::uint32_t>(bridges_.size());
    bridges_.push_back(Bridge{e.from, e.to, port, {}, 0, 0, 0});
  }
  queued_.assign((bridges_.size() + 63) / 64, 0);

  global_.master.resize(config_.n_masters);
}

SegmentedInterconnect::~SegmentedInterconnect() = default;

void SegmentedInterconnect::connect_master(MasterId master,
                                           BusMaster& callbacks) {
  CBUS_EXPECTS(master < config_.n_masters);
  callbacks_[master] = &callbacks;
}

void SegmentedInterconnect::request(const BusRequest& request, Cycle now) {
  const MasterId m = request.master;
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS_MSG(!flight_[m].active,
                   "master already has a transaction in the interconnect");

  InFlight& entry = flight_[m];
  entry.active = true;
  entry.original = request;
  entry.original.issued_at = now;
  // Forced-hold requests (virtual contenders, trace replay) model
  // synthetic contention on the home segment and never route.
  entry.target = request.forced_hold > 0 ? home_[m]
                                         : config_.route(request.addr);
  entry.hops = 0;

  ++global_.master[m].requests;
  if (observer_ != nullptr) observer_->on_request(entry.original, now);
  raise_hop(home_[m], slot_[m], m, request.forced_hold, now);
}

bool SegmentedInterconnect::has_pending(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return flight_[master].active &&
         segments_[home_[master]].bus->has_pending(slot_[master]);
}

bool SegmentedInterconnect::can_request(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return !flight_[master].active;
}

void SegmentedInterconnect::tick(Cycle now) {
  // Bridge deliveries first: a request re-raised at cycle t is visible to
  // its segment's arbiter at t, exactly like a core raising in its own
  // tick (cores tick before the interconnect).
  deliver_bridges(now);
  // A segment with an event at t ticks, after its quiet cycles since its
  // last tick are settled; a quiet one only passes the cycle to its
  // filter, at the same place in segment order.
  for (std::uint32_t s = 0; s < n_segments(); ++s) {
    Segment& seg = segments_[s];
    if (seg.horizon <= now) {
      settle(seg);
      seg.bus->tick(now);
      seg.synced = ticks_ + 1;
      seg.horizon = seg.bus->next_event(now);
      recount_ |= 1u << s;
    } else if (seg.gate->user != nullptr) {
      seg.gate->user->on_cycle(seg.bus->holder(), now);
    }
  }

  // End-of-cycle accounting: queue-depth accumulators per bridge, and --
  // with a bounded depth -- one stall master-cycle per pending request
  // withheld from arbitration by a full next-hop bridge. Only a segment
  // that ticked or was woken this cycle can have changed its count; the
  // others keep charging theirs per cycle, settled on the next recount.
  ++ticks_;
  clock_ = now + 1;
  for_each_queued([this](std::uint32_t b) {
    Bridge& bridge = bridges_[b];
    bridge.depth_sum += bridge.queue.size();
    bridge.depth_max = std::max(bridge.depth_max, bridge.queue.size());
  });
  if (config_.bridge_depth == 0) {
    recount_ = 0;
    return;
  }
  while (recount_ != 0) {
    const std::uint32_t s =
        static_cast<std::uint32_t>(std::countr_zero(recount_));
    recount_ &= recount_ - 1;
    Segment& seg = segments_[s];
    seg.stalls += seg.stall_rate * (ticks_ - 1 - seg.stall_synced);
    seg.stall_rate = static_cast<std::uint32_t>(
        std::popcount(blocked_mask(s) & seg.bus->pending_mask()));
    seg.stalls += seg.stall_rate;
    seg.stall_synced = ticks_;
  }
}

Cycle SegmentedInterconnect::next_event(Cycle now) const {
  Cycle next = kNever;
  for (const Segment& seg : segments_) next = std::min(next, seg.horizon);
  // A head waiting on a busy ingress port has no horizon of its own: the
  // port frees on a hop completion, an event of its segment.
  for_each_queued([&](std::uint32_t b) {
    const Bridge& bridge = bridges_[b];
    if (segments_[bridge.to].port_owner[bridge.dest_port] == kNoMaster) {
      next = std::min(next, std::max(bridge.queue.front().ready, now + 1));
    }
  });
  return std::max(next, now + 1);
}

void SegmentedInterconnect::skip(Cycle from, Cycle cycles) {
  ticks_ += cycles;
  clock_ = from + cycles;
  for_each_queued([&](std::uint32_t b) {
    bridges_[b].depth_sum += cycles * bridges_[b].queue.size();
  });
  for (const Segment& seg : segments_) {
    if (seg.gate->user != nullptr) {
      seg.gate->user->skip(seg.bus->holder(), from, cycles);
    }
  }
}

void SegmentedInterconnect::wake(std::uint32_t segment, Cycle now) {
  Segment& seg = segments_[segment];
  seg.horizon = std::min(seg.horizon, now);
  recount_ |= 1u << segment;
}

void SegmentedInterconnect::settle(const Segment& seg) const {
  const std::uint64_t quiet = ticks_ - seg.synced;
  if (quiet == 0) return;
  seg.bus->skip(clock_ - quiet, quiet);
  seg.synced = ticks_;
}

void SegmentedInterconnect::set_filter(std::uint32_t segment,
                                       EligibilityFilter* filter) {
  CBUS_EXPECTS(segment < config_.n_segments());
  segments_[segment].gate->user = filter;
}

std::uint32_t SegmentedInterconnect::n_local_masters(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return segments_[segment].bus->n_masters();
}

std::uint32_t SegmentedInterconnect::home_segment(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return home_[master];
}

std::uint32_t SegmentedInterconnect::local_slot(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return slot_[master];
}

std::size_t SegmentedInterconnect::bridge_queue_depth(std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].queue.size();
}

std::pair<std::uint32_t, std::uint32_t> SegmentedInterconnect::bridge_route(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return {bridges_[b].from, bridges_[b].to};
}

std::size_t SegmentedInterconnect::bridge_queue_depth_max(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].depth_max;
}

std::uint64_t SegmentedInterconnect::bridge_queue_depth_sum(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].depth_sum;
}

std::uint64_t SegmentedInterconnect::backpressure_stalls(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  const Segment& seg = segments_[segment];
  return seg.stalls + seg.stall_rate * (ticks_ - seg.stall_synced);
}

const BusStatistics& SegmentedInterconnect::statistics() const {
  global_.busy_cycles = 0;
  global_.idle_cycles = 0;
  global_.total_cycles = 0;
  for (const Segment& seg : segments_) {
    settle(seg);
    const BusStatistics& s = seg.bus->statistics();
    global_.busy_cycles += s.busy_cycles;
    global_.idle_cycles += s.idle_cycles;
    global_.total_cycles += s.total_cycles;
  }
  return global_;
}

const BusStatistics& SegmentedInterconnect::segment_statistics(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  const Segment& seg = segments_[segment];
  settle(seg);
  return seg.bus->statistics();
}

const Arbiter& SegmentedInterconnect::segment_arbiter(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return *segments_[segment].arbiter;
}

void SegmentedInterconnect::raise_hop(std::uint32_t segment,
                                      std::uint32_t local, MasterId master,
                                      Cycle forced_hold, Cycle now) {
  Segment& seg = segments_[segment];
  CBUS_ASSERT(seg.port_owner[local] == kNoMaster);
  seg.port_owner[local] = master;
  const std::uint32_t target = flight_[master].target;
  seg.port_bridge[local] =
      target == segment
          ? kNoBridge
          : bridge_index(segment, config_.topology.next_hop(segment, target));
  wake(segment, now);

  BusRequest hop;
  hop.master = local;
  hop.addr = flight_[master].original.addr;
  hop.kind = flight_[master].original.kind;
  hop.tag = master;  // the global identity, for debugging/tracing
  hop.forced_hold = forced_hold;
  seg.bus->request(hop, now);
}

void SegmentedInterconnect::deliver_bridges(Cycle now) {
  for_each_queued([&](std::uint32_t b) {
    Bridge& bridge = bridges_[b];
    const BridgeEntry& head = bridge.queue.front();
    if (head.ready > now) return;
    Segment& dest = segments_[bridge.to];
    const std::uint32_t port = bridge.dest_port;
    // The ingress port presents one request at a time; the rest of the
    // queue waits (store-and-forward backpressure). port_owner is the
    // authoritative busy flag: the bus's can_request() is briefly true
    // in the latched-grant window (granted, transfer not yet begun),
    // but the port's hop only retires at transfer completion.
    if (dest.port_owner[port] != kNoMaster) return;
    CBUS_ASSERT(dest.bus->can_request(port));
    bridge_stats_.queue_cycles += now - head.enqueued;
    raise_hop(bridge.to, port, head.master, /*forced_hold=*/0, now);
    bridge.queue.pop_front();
    if (bridge.queue.empty()) {
      queued_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    }
    // The freed slot may open the upstream segment's backpressure mask.
    if (config_.bridge_depth > 0) wake(bridge.from, now);
  });
}

std::uint32_t SegmentedInterconnect::blocked_mask(
    std::uint32_t segment) const {
  if (config_.bridge_depth == 0) return 0;
  std::uint32_t mask = 0;
  const Segment& seg = segments_[segment];
  const std::uint32_t n_local =
      static_cast<std::uint32_t>(seg.port_bridge.size());
  for (std::uint32_t local = 0; local < n_local; ++local) {
    const std::uint32_t b = seg.port_bridge[local];
    if (b == kNoBridge) continue;  // free, or delivered here
    const Bridge& bridge = bridges_[b];
    // Count grant-time reservations too: overlapped arbitration admits
    // the next transfer while the previous one is still in service, so
    // the live queue alone under-reports committed occupancy.
    if (bridge.queue.size() + bridge.reserved >= config_.bridge_depth) {
      mask |= 1u << local;
    }
  }
  return mask;
}

std::uint32_t SegmentedInterconnect::bridge_index(std::uint32_t from,
                                                  std::uint32_t to) const {
  const std::uint32_t b =
      edge_index_[static_cast<std::size_t>(from) * n_segments() + to];
  CBUS_ASSERT(b != kNoBridge);  // routing only crosses topology edges
  return b;
}

MasterId SegmentedInterconnect::owner_of(std::uint32_t segment,
                                         MasterId local) const {
  const MasterId master = segments_[segment].port_owner[local];
  CBUS_ASSERT(master != kNoMaster);
  return master;
}

Cycle SegmentedInterconnect::hop_begin(std::uint32_t segment,
                                       const BusRequest& local_request,
                                       Cycle now) {
  const MasterId master = owner_of(segment, local_request.master);
  const InFlight& entry = flight_[master];
  if (segment == entry.target) {
    // Target segment: the real slave decides, seeing the ORIGINAL
    // request (per-master slave partitions key off the global id).
    return slave_.begin_transaction(entry.original, now);
  }
  return config_.bridge_hold;  // forward beat into the bridge
}

void SegmentedInterconnect::hop_slave_complete(
    std::uint32_t segment, const BusRequest& local_request, Cycle now) {
  const MasterId master = owner_of(segment, local_request.master);
  const InFlight& entry = flight_[master];
  if (segment == entry.target) {
    slave_.complete_transaction(entry.original, now);
  }
}

void SegmentedInterconnect::hop_granted(std::uint32_t segment,
                                        MasterId local,
                                        const BusRequest& local_request,
                                        Cycle now, Cycle hold) {
  const MasterId master = owner_of(segment, local);
  InFlight& granted = flight_[master];
  granted.hop_hold = hold;
  // A granted hop that will forward into a bridge reserves its queue
  // slot NOW (the SegmentGate admitted it against queue + reserved);
  // the reservation becomes the real entry in hop_completed.
  const std::uint32_t b = segments_[segment].port_bridge[local];
  if (config_.bridge_depth > 0 && b != kNoBridge) {
    Bridge& bridge = bridges_[b];
    ++bridge.reserved;
    CBUS_ASSERT(bridge.queue.size() + bridge.reserved <=
                config_.bridge_depth);
  }
  auto& pm = global_.master[master];
  pm.hold_cycles += hold;

  // The origin hop (the master's own port on its home segment) carries
  // the request-to-grant wait and the grant count; transit hops only add
  // occupancy.
  if (segment == home_[master] && local == slot_[master]) {
    ++pm.grants;
    const Cycle wait = now - local_request.issued_at;
    pm.wait_cycles += wait;
    pm.max_wait = std::max(pm.max_wait, wait);
    if (observer_ != nullptr) {
      observer_->on_transfer_start(flight_[master].original, now, hold);
    }
    if (callbacks_[master] != nullptr) {
      callbacks_[master]->on_grant(flight_[master].original, now, hold);
    }
  }
}

void SegmentedInterconnect::hop_completed(std::uint32_t segment,
                                          MasterId local,
                                          const BusRequest& /*local_request*/,
                                          Cycle now) {
  const MasterId master = owner_of(segment, local);
  Segment& seg = segments_[segment];
  const std::uint32_t b = seg.port_bridge[local];
  seg.port_owner[local] = kNoMaster;
  seg.port_bridge[local] = kNoBridge;
  InFlight& entry = flight_[master];

  // A hop served on a FOREIGN segment was charged to nobody there (the
  // bridge-ingress slot is credit-exempt); the origin's home filter pays
  // for it now, so a budget bounds its master's occupancy of the whole
  // interconnect, not just the home segment.
  const std::uint32_t home = home_[master];
  EligibilityFilter* const home_filter = segments_[home].gate->user;
  if (segment != home && home_filter != nullptr) {
    home_filter->on_remote_occupancy(slot_[master], entry.hop_hold);
  }

  if (segment == entry.target) {
    ++global_.master[master].completions;
    ++hop_histogram_[entry.hops];
    if (entry.hops > 0) {
      ++bridge_stats_.remote_transactions;
    } else {
      ++bridge_stats_.local_transactions;
    }
    const BusRequest original = entry.original;
    entry.active = false;  // cleared first: the master may re-raise
    if (observer_ != nullptr) observer_->on_transfer_complete(original, now);
    if (callbacks_[master] != nullptr) {
      callbacks_[master]->on_complete(original, now);
    }
    return;
  }

  // Transit hop done: store-and-forward into the bridge routed when the
  // hop was raised.
  ++entry.hops;
  ++bridge_stats_.hops;
  Bridge& bridge = bridges_[b];
  // The grant-time reservation converts into the real queue entry, so a
  // bounded queue never overflows.
  if (config_.bridge_depth > 0) {
    CBUS_ASSERT(bridge.reserved > 0);
    --bridge.reserved;
    CBUS_ASSERT(bridge.queue.size() < config_.bridge_depth);
  }
  bridge.queue.push_back(
      BridgeEntry{master, now + config_.bridge_latency, now});
  queued_[b / 64] |= std::uint64_t{1} << (b % 64);
}

}  // namespace cbus::bus
