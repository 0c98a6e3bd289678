#include "net/bridge.hpp"

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::net {

Bridge::Bridge(sim::Simulator& sim, const PortConfig& a, const PortConfig& b,
               SimTime latency, SegmentOf segment_of)
    : sim_(sim),
      latency_(latency),
      segment_of_(std::move(segment_of)),
      a_(make_port(sim, a)),
      b_(make_port(sim, b)) {
  MC_EXPECTS_MSG(latency_ > kTimeZero,
                 "a trunk needs positive latency (it is the simulator's "
                 "conservative lookahead)");
  MC_EXPECTS_MSG(a.segment != b.segment, "a bridge joins two segments");
  a_.peer = &b_;
  b_.peer = &a_;
  a_.nic->set_rx_handler([this](const Frame& f) { on_rx(a_, f); });
  b_.nic->set_rx_handler([this](const Frame& f) { on_rx(b_, f); });
}

Bridge::Port Bridge::make_port(sim::Simulator& sim,
                               const PortConfig& config) {
  MC_EXPECTS(config.network != nullptr);
  Port port;
  port.nic = std::make_unique<Nic>(sim, config.mac, config.name);
  port.segment = config.segment;
  port.shard = config.shard;
  port.nic->set_segment(config.segment);
  port.nic->set_promiscuous(true);
  port.nic->attach_to(*config.network);
  return port;
}

void Bridge::on_rx(Port& local, const Frame& frame) {
  // Split horizon: forward only first-hop frames.  Anything injected by a
  // bridge (this one or a peer trunk of the mesh) already crossed one trunk
  // and must not cross another.
  if (frame.origin_segment != local.segment) {
    return;
  }
  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast()) {
    const int dst_segment = segment_of_(frame.dst);
    if (dst_segment < 0 ||
        static_cast<std::uint16_t>(dst_segment) != local.peer->segment) {
      return;  // local traffic, or bound for a different trunk of the mesh
    }
  } else if (!frame.dst.is_broadcast() &&
             local.scoped_groups.count(frame.dst.bits()) != 0) {
    return;  // group is segment-local: every member already heard it
  }
  // Trunk fault model: consulted on the ingress shard, so the decision
  // stream is deterministic per direction regardless of shard mapping.  A
  // dropped frame never crosses; a reordered one crosses late (the extra
  // delay only ever ADDS to the lookahead latency, so the cross-shard
  // window contract holds); a duplicated one crosses twice back to back.
  SimTime extra = kTimeZero;
  bool duplicate = false;
  if (fault::FaultModel* model =
          local.faults.model_for(local.nic->mac().bits())) {
    const fault::FaultDecision d = model->next(sim_.counters());
    if (d.drop) {
      return;
    }
    extra = d.extra_delay;
    duplicate = d.duplicate;
  }
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  // The trunk hop: fixed backbone latency, then the frame contends on the
  // far segment through the peer port's ordinary transmit queue.  Across
  // shards this is the system's one cross-shard interaction; the latency is
  // the lookahead that keeps the conservative windows deterministic.
  Nic* peer_nic = local.peer->nic.get();
  const SimTime arrival = sim_.now() + latency_ + extra;
  // Only a hop to another shard makes the payload's last drop a race; on
  // one shard it returns to the pool at once.
  if (local.peer->shard != local.shard) {
    frame.header.mark_cross_shard();
    frame.payload.mark_cross_shard();
  }
  sim_.schedule_cross(local.peer->shard, arrival,
                      [peer_nic, frame] { peer_nic->forward(frame); });
  if (duplicate) {
    sim_.schedule_cross(local.peer->shard, arrival,
                        [peer_nic, frame] { peer_nic->forward(frame); });
  }
}

void Bridge::scope_group(MacAddr group, std::uint16_t segment) {
  MC_EXPECTS_MSG(group.is_multicast(), "only multicast groups can be scoped");
  if (a_.segment == segment) {
    a_.scoped_groups.insert(group.bits());
  } else if (b_.segment == segment) {
    b_.scoped_groups.insert(group.bits());
  }
}

void Bridge::set_fault_plane(const fault::FaultPlane* plane) {
  a_.faults.reset(plane, /*trunk=*/true);
  b_.faults.reset(plane, /*trunk=*/true);
}

}  // namespace mcmpi::net
