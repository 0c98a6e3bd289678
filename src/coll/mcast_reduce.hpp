#pragma once
/// \file mcast_reduce.hpp
/// Scout-combining gather — the scout protocols' aggregate collection
/// (coll/mcast.cpp) extended to a data-carrying collective.
///
/// gather "scout-combining": non-root ranks ship their block to the root as
/// one fire-and-forget data scout each; the root absorbs them through an
/// engine sink (plus Engine::drain_unexpected for blocks that beat it into
/// the engine) and is charged the whole sequential receive chain in at most
/// one wake-up, exactly like the aggregate scout gather of coll/mcast.cpp.
///
/// Each async block is framed with a per-communicator operation sequence
/// number, so a block for collective k+1 that overtakes a straggler of
/// collective k (possible: the senders never block) is stashed, not
/// miscounted.

#include <vector>

#include "common/bytes.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Flat gather over fire-and-forget data scouts with an aggregate charged
/// collection at the root.  Returns comm.size() blocks at `root` (indexed
/// by comm rank; empty vector elsewhere).  Requires eager-path blocks.
std::vector<Buffer> gather_scout_combining(mpi::Proc& p, const mpi::Comm& comm,
                                           std::span<const std::uint8_t> data,
                                           int root);

}  // namespace mcmpi::coll
