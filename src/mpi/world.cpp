#include "mpi/world.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mcmpi::mpi {

World::World(sim::Simulator& sim, const std::vector<RankResources>& ranks)
    : sim_(sim) {
  MC_EXPECTS_MSG(!ranks.empty(), "world needs at least one rank");
  procs_.reserve(ranks.size());
  addresses_.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankResources& r = ranks[i];
    MC_EXPECTS(r.udp != nullptr && r.rdp != nullptr && r.costs != nullptr);
    addresses_.push_back(r.address);
    shards_.push_back(r.shard);
    segments_.push_back(r.segment);
    num_segments_ = std::max(num_segments_, r.segment + 1);
    procs_.push_back(std::make_unique<Proc>(*this, static_cast<Rank>(i),
                                            *r.udp, *r.rdp, *r.costs));
  }
  world_info_ = std::make_shared<CommInfo>(
      next_context_++, Group::world(size()), segments_);
}

std::shared_ptr<CommInfo> World::create_comm(Group group) {
  auto info =
      std::make_shared<CommInfo>(next_context_++, std::move(group), segments_);
  // A group on one segment of a multi-segment world: its multicast traffic
  // need not flood the other segments.
  if (group_scope_hook_ && num_segments_ > 1 && info->layout.span() == 1) {
    group_scope_hook_(*info, info->layout.segment.front());
  }
  return info;
}

Proc& World::proc(int rank) {
  MC_EXPECTS(rank >= 0 && rank < size());
  return *procs_[static_cast<std::size_t>(rank)];
}

inet::IpAddr World::addr_of(Rank rank) const {
  MC_EXPECTS(rank >= 0 && rank < size());
  return addresses_[static_cast<std::size_t>(rank)];
}

Rank World::rank_of(inet::IpAddr addr) const {
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    if (addresses_[i] == addr) {
      return static_cast<Rank>(i);
    }
  }
  return kAnySource;
}

void World::run(const std::function<void(Proc&)>& rank_main) {
  for (int r = 0; r < size(); ++r) {
    Proc* proc = procs_[static_cast<std::size_t>(r)].get();
    // Each rank's process is pinned to its segment's shard; the sharded
    // drivers then run disjoint segments on worker threads.
    sim_.spawn_on(shards_[static_cast<std::size_t>(r)],
                  "rank" + std::to_string(r),
                  [proc, rank_main](sim::SimProcess& self) {
                    proc->bind(self);
                    rank_main(*proc);
                  });
  }
  sim_.run();
}

}  // namespace mcmpi::mpi
