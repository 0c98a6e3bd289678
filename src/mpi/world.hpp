#pragma once
/// \file world.hpp
/// World — builds the rank set and launches SPMD programs on the simulator.

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "inet/ip_addr.hpp"
#include "inet/rdp.hpp"
#include "inet/udp.hpp"
#include "mpi/comm.hpp"
#include "mpi/proc.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::mpi {

class World {
 public:
  /// What each rank needs from its host (built by the cluster layer).
  struct RankResources {
    inet::UdpStack* udp = nullptr;
    inet::RdpEndpoint* rdp = nullptr;
    SoftwareCosts* costs = nullptr;
    inet::IpAddr address;
    /// Simulator shard the rank's processes run on — its segment's shard.
    /// All of a rank's state (stacks, engine, helper fibers) stays on this
    /// shard; only trunk frames cross shards.
    unsigned shard = 0;
    /// Network segment the rank's host sits on (0 on single-segment
    /// clusters).  The hierarchical collectives read this table to elect
    /// per-segment leaders without any wire traffic.
    int segment = 0;
  };

  World(sim::Simulator& sim, const std::vector<RankResources>& ranks);

  int size() const { return static_cast<int>(procs_.size()); }
  Proc& proc(int rank);
  sim::Simulator& simulator() { return sim_; }

  inet::IpAddr addr_of(Rank rank) const;
  Rank rank_of(inet::IpAddr addr) const;

  /// Network segment of a world rank (from RankResources::segment).
  int segment_of(Rank rank) const {
    return segments_.at(static_cast<std::size_t>(rank));
  }
  /// Distinct segments in the topology (1 + max segment id).
  int num_segments() const { return num_segments_; }

  const std::shared_ptr<CommInfo>& world_info() const { return world_info_; }

  /// A new communicator over `group`: a fresh context id and the group's
  /// segment layout.  Allocation is atomic — ranks on different shards may
  /// create communicators concurrently; the sequence of id VALUES is then
  /// allocation-order dependent, but a context id never influences timing
  /// or payloads (it only names a multicast identity), so simulated results
  /// stay deterministic.  Callers hold the parent's creation_mutex.
  std::shared_ptr<CommInfo> create_comm(Group group);

  /// Invoked (when set) for every derived communicator whose members all
  /// live on ONE network segment, with that segment id.  The cluster uses
  /// it to scope the communicator's multicast identity at the trunk
  /// bridges (net/bridge.hpp scope_group) — intra-segment collective
  /// traffic then stops flooding every other segment.  Fired from the
  /// creating rank's fiber at comm creation (dup/split), when the child's
  /// full membership is already known.
  using GroupScopeHook = std::function<void(const CommInfo&, int segment)>;
  void set_group_scope_hook(GroupScopeHook hook) {
    group_scope_hook_ = std::move(hook);
  }

  /// Runs `rank_main` as an SPMD program: one simulated process per rank,
  /// then drives the simulation until all ranks return.  May be called
  /// repeatedly (each call is a fresh program on the same cluster state).
  void run(const std::function<void(Proc&)>& rank_main);

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<inet::IpAddr> addresses_;
  std::vector<unsigned> shards_;  // home shard per rank
  std::vector<int> segments_;     // home segment per rank
  int num_segments_ = 1;
  std::shared_ptr<CommInfo> world_info_;
  GroupScopeHook group_scope_hook_;
  std::atomic<std::uint32_t> next_context_{1};
};

}  // namespace mcmpi::mpi
