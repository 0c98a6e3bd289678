#pragma once
/// \file bridge.hpp
/// Transparent two-port bridge joining two network segments.
///
/// Multi-segment topologies (several hubs/switches joined by a backbone)
/// are built as a full mesh of point-to-point Bridge trunks.  Each bridge
/// half is a promiscuous NIC attached to its segment like any station: it
/// hears every frame, and re-injects forwarded frames through the far
/// half's transmit queue, where they contend for the far medium exactly
/// like a local sender (CSMA/CD on a hub, per-port egress queueing on a
/// switch).  Forwarding is transparent — the original source address and
/// origin segment ride along — so far-side switches learn remote hosts
/// against the bridge port, exactly like a real learning bridge.
///
/// Forwarding rules (loop-free on a full mesh, every frame crossing each
/// trunk at most once):
///   * split horizon: only frames ORIGINATING on the local segment are
///     forwarded (Frame::origin_segment; a frame another bridge injected is
///     never re-forwarded);
///   * unicast: forwarded only when the destination host lives on the far
///     segment (static destination table — the cluster knows its hosts; a
///     real bridge would learn the same mapping from source addresses);
///   * multicast / broadcast: flooded by default (the backbone is a
///     multicast-router port in IGMP-snooping terms) — except groups the
///     cluster has marked segment-local via scope_group().  When every
///     member of a multicast group lives on one segment, flooding its
///     traffic across every trunk only burns far-side medium time; worse,
///     many segments running intra-segment multicast concurrently can
///     overflow far-side switch queues and stall each other on retransmit
///     timeouts.  Scoping is the snooping-bridge filter: frames of a scoped
///     group stop at the bridge.  Senders to a group are always members in
///     this codebase (every multicast engine is communicator-scoped), so
///     suppression can never starve a far-side receiver.
///
/// The trunk hop costs a fixed `latency` (backbone store-and-forward plus
/// propagation).  That latency is the conservative LOOKAHEAD of the sharded
/// simulator: when the two halves live on different shards the delivery is
/// a schedule_cross() — the only cross-shard interaction in the system —
/// and the simulator's window barrier keeps it deterministic.

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/time.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"

namespace mcmpi::net {

class Bridge {
 public:
  /// Where one half of the bridge plugs in.
  struct PortConfig {
    Network* network = nullptr;  ///< the segment's hub or switch
    std::uint16_t segment = 0;   ///< segment id (matches Nic::segment)
    unsigned shard = 0;          ///< simulator shard owning the segment
    MacAddr mac;                 ///< unique unicast address for the port
    std::string name;            ///< NIC name (diagnostics)
  };

  /// Maps a unicast host address to its segment; returns -1 for addresses
  /// that are not cluster hosts (other bridge ports) — such frames are not
  /// forwarded.
  using SegmentOf = std::function<int(MacAddr)>;

  Bridge(sim::Simulator& sim, const PortConfig& a, const PortConfig& b,
         SimTime latency, SegmentOf segment_of);
  Bridge(const Bridge&) = delete;
  Bridge& operator=(const Bridge&) = delete;

  SimTime latency() const { return latency_; }
  Nic& port_a() { return *a_.nic; }
  Nic& port_b() { return *b_.nic; }

  /// Frames this bridge pushed onto its trunk (both directions).
  std::uint64_t forwarded_frames() const {
    return forwarded_.load(std::memory_order_relaxed);
  }

  /// Attaches the cluster's fault plane to the trunk: each direction gets
  /// its own FaultModel (keyed by the ingress port's MAC), consulted on the
  /// ingress shard before the cross-shard hop.  nullptr detaches.
  void set_fault_plane(const fault::FaultPlane* plane);

  /// Marks a multicast group whose members all live on `segment` as
  /// segment-local: the port attached to that segment stops forwarding the
  /// group's frames across the trunk (no-op when neither port is on the
  /// segment).  MUST run on the shard owning `segment` — the mark lands in
  /// that port's private state, which only its own shard reads (on_rx runs
  /// there); the cluster delivers the call via a simulator event scheduled
  /// onto that shard, which also keeps the cut-over instant deterministic
  /// under the parallel driver.  Split horizon means only the member
  /// segment's port ever sees first-hop frames of the group, so one port
  /// per bridge suffices.  Marks are never removed: context ids are never
  /// reused (World::create_comm), so a stale mark can only ever match
  /// traffic of the communicator that installed it.
  void scope_group(MacAddr group, std::uint16_t segment);

 private:
  struct Port {
    std::unique_ptr<Nic> nic;
    std::uint16_t segment = 0;
    unsigned shard = 0;
    Port* peer = nullptr;
    /// Trunk fault state for frames ENTERING at this port; owned here so
    /// only this port's shard ever touches it.
    fault::LinkFaultBank faults;
    /// Multicast group MACs scoped to this port's segment (scope_group):
    /// their frames are not forwarded.  Port-private like the fault bank —
    /// written and read only on this port's shard.
    std::unordered_set<std::uint64_t> scoped_groups;
  };

  Port make_port(sim::Simulator& sim, const PortConfig& config);
  void on_rx(Port& local, const Frame& frame);

  sim::Simulator& sim_;
  SimTime latency_;
  SegmentOf segment_of_;
  Port a_;
  Port b_;
  /// Atomic: the two ports run on different shards' worker threads under
  /// the parallel driver; relaxed increments keep the total exact.
  std::atomic<std::uint64_t> forwarded_{0};
};

}  // namespace mcmpi::net
