#pragma once
/// \file comm.hpp
/// Communicators: a process group bound to a private context id.
///
/// The context id keeps traffic of different communicators apart (matching
/// compares context before anything else) and doubles as the communicator's
/// IP multicast identity: context c maps to group address 239.1.<c> and UDP
/// port 20000+c, which is how "one multicast group per process group of the
/// same context" (paper §4) is realized.
///
/// CommInfo is shared by all member ranks (the simulation is one address
/// space); per-rank Comm handles add the local rank.  Derived-communicator
/// bookkeeping (dup/split child registries) lives in CommInfo so that the
/// collective creation calls agree on the child without extra traffic —
/// the registries are indexed by per-rank call sequence numbers, which MPI's
/// same-order-on-all-ranks rule makes deterministic.  So does the
/// communicator's segment layout: it is computed once, when the
/// communicator is created, and every member reads the same immutable copy.

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/assert.hpp"
#include "inet/ip_addr.hpp"
#include "mpi/group.hpp"
#include "mpi/types.hpp"

namespace mcmpi::coll {
class Coll;
}  // namespace mcmpi::coll

namespace mcmpi::mpi {

class Proc;

/// How a communicator's ranks sit on the network segments (from
/// World::segment_of of each member).  The hierarchical collectives elect
/// their leaders from it, the registry's hier predicates and kAuto's
/// min_segments rules read its span, and World scopes a one-segment
/// communicator's multicast group with it.
struct SegmentLayout {
  /// Segment id of each comm rank.
  std::vector<int> segment;
  /// Index into `leaders`/`members` of each comm rank's segment.
  std::vector<int> slot;
  /// Leader (smallest comm rank) of each spanned segment, ascending — the
  /// order of first appearance, so every rank derives the same list.
  std::vector<int> leaders;
  /// Comm ranks of each spanned segment, ascending, indexed like `leaders`.
  std::vector<std::vector<int>> members;
  /// Do the segments form contiguous blocks of comm ranks?  allreduce:hier
  /// needs it to combine segment partials in comm rank order.
  bool contiguous = true;

  /// Lays `group` out over the world's segment table (world rank ->
  /// segment id); an empty table puts every rank on segment 0.
  SegmentLayout(const Group& group, const std::vector<int>& world_segments);

  /// Number of segments the communicator spans.
  int span() const { return static_cast<int>(leaders.size()); }
};

struct CommInfo {
  /// Context ids beyond this bound cannot be given a unique multicast
  /// identity (the group address carries 16 bits, the port 40000 values);
  /// mcast_port() asserts it.
  static constexpr std::uint64_t kMaxMcastContexts = 40000ULL * 65536ULL;

  std::uint32_t context_id = 0;
  Group group;
  const SegmentLayout layout;

  /// Multicast identity of this communicator.  The group address carries
  /// the low 16 bits of the context id; the port folds the high bits in
  /// (odd multiplier coprime to the 40000-port space), so distinct context
  /// ids below kMaxMcastContexts never collide on the same
  /// (group address, port) pair — the plain `% 40000` port wrap let two
  /// contexts 40000*65536 apart share both halves of the identity.
  inet::IpAddr mcast_addr() const {
    return inet::IpAddr::multicast_group(
        static_cast<std::uint16_t>(context_id & 0xFFFF));
  }
  std::uint16_t mcast_port() const {
    MC_EXPECTS_MSG(context_id < kMaxMcastContexts,
                   "context id exceeds the unique multicast-identity space");
    const std::uint32_t lo = context_id & 0xFFFF;
    const std::uint32_t hi = context_id >> 16;
    return static_cast<std::uint16_t>(20000 + (lo + hi * 9973U) % 40000);
  }

  // --- collective-creation registries (see file comment) ---
  std::vector<int> dup_calls;    // per comm-rank dup() count
  std::vector<std::shared_ptr<CommInfo>> dup_children;
  std::vector<int> split_calls;  // per comm-rank split() count
  /// split sequence number -> (color -> child)
  std::map<int, std::map<int, std::shared_ptr<CommInfo>>> split_children;
  /// Guards the child registries above when the communicator spans several
  /// simulator shards (dup's meeting point is shared memory, not messages).
  /// Uncontended on a single shard.  Note child CONTEXT IDS may then depend
  /// on cross-shard arrival order; ids never affect timing or payloads, so
  /// simulated results stay deterministic (comm.hpp file comment).
  std::mutex creation_mutex;

  /// A World-less communicator (no `world_segments`) spans one segment.
  explicit CommInfo(std::uint32_t context, Group g,
                    const std::vector<int>& world_segments = {})
      : context_id(context),
        group(std::move(g)),
        layout(group, world_segments),
        dup_calls(static_cast<std::size_t>(group.size()), 0),
        split_calls(static_cast<std::size_t>(group.size()), 0) {}
};

/// Per-rank communicator handle (MPI_Comm analogue).  Cheap to copy.
///
/// Handles produced by Proc (comm_world / dup / split) are bound to their
/// owning rank, which is what makes the communicator-scoped collective
/// facade possible: `comm.coll().bcast(...)`.
class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<CommInfo> info, Rank my_world_rank,
       Proc* proc = nullptr);

  bool valid() const { return info_ != nullptr; }
  int rank() const { return my_comm_rank_; }
  int size() const { return info_->group.size(); }
  std::uint32_t context() const { return info_->context_id; }
  const Group& group() const { return info_->group; }
  const SegmentLayout& layout() const { return info_->layout; }
  Rank world_rank_of(int comm_rank) const {
    return info_->group.world_rank(comm_rank);
  }
  const std::shared_ptr<CommInfo>& info() const { return info_; }

  /// The owning rank's Proc (null for handles not produced by a Proc).
  Proc* proc() const { return proc_; }

  /// Collective-operation facade scoped to this communicator (requires a
  /// Proc-bound handle).  Defined in coll/facade.hpp — the collective layer
  /// sits above mpi, so the facade type is only forward-declared here.
  coll::Coll coll() const;

 private:
  std::shared_ptr<CommInfo> info_;
  int my_comm_rank_ = kAnySource;
  Proc* proc_ = nullptr;
};

}  // namespace mcmpi::mpi
