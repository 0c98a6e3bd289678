#pragma once
/// \file hier.hpp
/// Hierarchical (MagPIe-style) topology-aware collectives for multi-segment
/// clusters.
///
/// A multi-segment cluster has two very different link classes: the cheap
/// intra-segment medium (hub or switch, multicast-capable) and the
/// expensive inter-segment trunks.  Flat algorithms cross the trunks
/// O(log N) or O(N) times; the hierarchical schemes here cross each trunk
/// exactly once per collective:
///
///   1. elect one leader per segment (the smallest communicator rank on
///      that segment — intra rank 0 of the segment's sub-communicator);
///   2. run the intra-segment phase over the existing registry algorithms
///      on a cached per-segment sub-communicator (kAuto, so large payloads
///      ride the multicast engines and lossy networks keep their
///      loss-tolerant restriction);
///   3. exchange only between leaders over the trunks (point-to-point on
///      the parent communicator, tag kTagHier).
///
/// Leader election needs no wire traffic: it reads the communicator's
/// segment layout (mpi::SegmentLayout), which CommInfo holds from the
/// communicator's creation.  Only the split-off intra communicator is
/// cached per rank, in Proc::coll_state, so repeated collectives on the
/// same communicator pay the split exactly once.
///
/// Registered as bcast:hier-mcast, barrier:hier, allreduce:hier and
/// allgather:hier (registry.cpp); applicable only when the layout spans at
/// least two segments, so single-segment behavior (and every committed
/// baseline) is untouched and the intra-phase kAuto recursion terminates.

#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "mpi/datatype.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Per-rank hierarchical state of one communicator (keyed by communicator
/// context in Proc::coll_state).
struct HierState {
  /// Sub-communicator of this rank's segment (split color = segment id,
  /// key = parent comm rank, so intra rank order == parent rank order and
  /// the segment leader — smallest parent rank — is intra rank 0).  Split
  /// lazily, on the first hier collective, because the split is collective.
  mpi::Comm intra;
};

/// The communicator's state, split (collectively!) on first call.  Every
/// rank of `comm` must enter together.
HierState& hier_state(mpi::Proc& p, const mpi::Comm& comm);

/// Broadcast: root -> remote segment leaders over the trunks (isend, so the
/// root's own intra phase overlaps the trunk transfers), then an intra
/// bcast per segment (kAuto -> multicast engines at size).
void bcast_hier(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                int root);

/// Barrier: intra fold to the leader, flat arrive/release among leaders
/// (2 trunk rounds via leaders[0]), intra release bcast.
void barrier_hier(mpi::Proc& p, const mpi::Comm& comm);

/// Allreduce: intra reduce to the leader, leaders[0] combines the segment
/// partials in segment-block order (hence the contiguity requirement for
/// non-commutative ops), result re-broadcast leader-wise then intra.
Buffer allreduce_hier(mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data, mpi::Op op,
                      mpi::Datatype type);

/// Allgather: intra gather to the leader, leaders exchange their segment's
/// length-framed block bundle (each trunk carries each byte exactly once),
/// intra bcast of the assembled result.  Handles ragged per-rank sizes.
std::vector<Buffer> allgather_hier(mpi::Proc& p, const mpi::Comm& comm,
                                   std::span<const std::uint8_t> data);

}  // namespace mcmpi::coll
