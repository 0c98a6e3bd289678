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
/// Leader election needs no wire traffic: every rank derives the full
/// comm-rank -> segment table from World::segment_of and caches it (plus
/// the split-off intra communicator) in Proc::coll_state, so repeated
/// collectives on the same communicator pay the split exactly once.
///
/// Registered as bcast:hier-mcast, barrier:hier, allreduce:hier and
/// allgather:hier (registry.cpp); applicable only when the communicator
/// spans at least two segments, so single-segment behavior (and every
/// committed baseline) is untouched and the intra-phase kAuto recursion
/// terminates.

#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "mpi/datatype.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Cached hierarchical decomposition of one communicator (built lazily,
/// collectively, on first use; keyed by communicator context in
/// Proc::coll_state).
struct HierState {
  bool built = false;
  /// Sub-communicator of this rank's segment (split color = segment id,
  /// key = parent comm rank, so intra rank order == parent rank order and
  /// the segment leader — smallest parent rank — is intra rank 0).
  mpi::Comm intra;
  /// Segment id of every parent comm rank.
  std::vector<int> seg_of;
  /// Leader (parent comm rank) of each spanned segment, ordered by
  /// ascending leader rank (== order of first appearance).
  std::vector<int> leaders;
  /// Parent comm ranks of each spanned segment, ascending, indexed like
  /// `leaders`.
  std::vector<std::vector<int>> members;
  /// This rank's index into `leaders`/`members`.
  int my_segment_idx = 0;
  /// Do comm ranks group into contiguous segment blocks?  Required by
  /// allreduce:hier (rank-order reduction for non-commutative ops).
  bool contiguous = false;
};

/// The communicator's decomposition, built (collectively!) on first call.
/// Every rank of `comm` must enter together — it performs a comm split.
HierState& hier_state(mpi::Proc& p, const mpi::Comm& comm);

/// True when `comm` spans >= 2 segments (hier algorithms applicable).
/// Pure local computation from the world segment table.
bool hier_applicable(const mpi::Comm& comm);

/// Number of distinct segments `comm` spans (1 for Proc-less handles and
/// single-segment worlds).  The tuning table's `min_segments` rule field
/// gates on this.
int hier_segment_span(const mpi::Comm& comm);

/// hier_applicable plus contiguous segment blocks (allreduce:hier).
bool hier_applicable_contiguous(const mpi::Comm& comm);

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
