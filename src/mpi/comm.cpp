#include "mpi/comm.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mcmpi::mpi {

SegmentLayout::SegmentLayout(const Group& group,
                             const std::vector<int>& world_segments) {
  for (int r = 0; r < group.size(); ++r) {
    const int seg =
        world_segments.empty()
            ? 0
            : world_segments.at(static_cast<std::size_t>(group.world_rank(r)));
    std::size_t s = 0;
    while (s < leaders.size() &&
           segment[static_cast<std::size_t>(leaders[s])] != seg) {
      ++s;
    }
    if (s == leaders.size()) {
      leaders.push_back(r);
      members.emplace_back();
    }
    segment.push_back(seg);
    slot.push_back(static_cast<int>(s));
    members[s].push_back(r);
  }
  // Slots number the segments in order of first appearance, so a segment
  // re-entered after the ranks walked out of it shows as a step back.
  contiguous = std::is_sorted(slot.begin(), slot.end());
}

Comm::Comm(std::shared_ptr<CommInfo> info, Rank my_world_rank, Proc* proc)
    : info_(std::move(info)), proc_(proc) {
  MC_EXPECTS(info_ != nullptr);
  my_comm_rank_ = info_->group.rank_of(my_world_rank);
  MC_EXPECTS_MSG(my_comm_rank_ >= 0,
                 "rank is not a member of this communicator");
}

// Comm::coll() is defined in coll/facade.cpp: the facade type lives in the
// collective layer, above mpi.

}  // namespace mcmpi::mpi
