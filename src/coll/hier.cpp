#include "coll/hier.hpp"

#include <cstring>
#include <utility>

#include "coll/facade.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;
using mpi::SegmentLayout;

namespace {

std::size_t at(int index) { return static_cast<std::size_t>(index); }

/// [u64 length][bytes] per block, in order — allgather's trunk bundles and
/// release payloads (sizes may be ragged).
Buffer pack_blocks(const std::vector<Buffer>& blocks) {
  std::size_t total = 0;
  for (const Buffer& b : blocks) {
    total += sizeof(std::uint64_t) + b.size();
  }
  Buffer out(total);
  std::size_t at = 0;
  for (const Buffer& b : blocks) {
    const auto len = static_cast<std::uint64_t>(b.size());
    std::memcpy(out.data() + at, &len, sizeof(len));
    at += sizeof(len);
    if (!b.empty()) {  // an empty block's data() may be null
      std::memcpy(out.data() + at, b.data(), b.size());
    }
    at += b.size();
  }
  return out;
}

/// Intra-segment bcast of a payload only the source rank holds.  kAuto
/// keys on the LOCAL buffer size, so the ranks must first agree on the
/// count (one 8-byte binomial round) before the sized kAuto phase — else
/// the source would pick a multicast engine while the empty-handed ranks
/// pick point-to-point, and the segment deadlocks.
void intra_bcast_sized(const mpi::Comm& intra, Buffer& buffer,
                       int intra_root) {
  std::uint64_t bytes = buffer.size();
  Buffer size_msg(sizeof bytes);
  std::memcpy(size_msg.data(), &bytes, sizeof bytes);
  intra.coll().bcast(size_msg, intra_root, "mpich");
  std::memcpy(&bytes, size_msg.data(), sizeof bytes);
  if (intra.rank() != intra_root) {
    buffer.resize(bytes);
  }
  intra.coll().bcast(buffer, intra_root);
}

std::vector<Buffer> unpack_blocks(std::span<const std::uint8_t> bytes) {
  std::vector<Buffer> blocks;
  std::size_t at = 0;
  while (at < bytes.size()) {
    MC_ASSERT(at + sizeof(std::uint64_t) <= bytes.size());
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + at, sizeof(len));
    at += sizeof(len);
    MC_ASSERT(at + len <= bytes.size());
    blocks.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                        bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  }
  return blocks;
}

}  // namespace

HierState& hier_state(Proc& p, const Comm& comm) {
  HierState& st = p.coll_state<HierState>(comm);
  if (!st.intra.valid()) {
    // Collective: every rank of `comm` reaches this split together
    // (splitting lazily from inside a collective preserves that).
    st.intra = p.split(comm, comm.layout().segment[at(comm.rank())],
                       comm.rank());
  }
  return st;
}

void bcast_hier(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  HierState& st = hier_state(p, comm);
  const SegmentLayout& lay = comm.layout();
  const int rank = comm.rank();
  const int slot = lay.slot[at(rank)];
  const int root_seg = lay.slot[at(root)];

  // Inter phase: the root ships the payload straight to every remote
  // segment leader (nonblocking, so its own segment's intra bcast overlaps
  // the trunk transfers).
  std::vector<std::shared_ptr<mpi::SendRequest>> sends;
  if (rank == root) {
    for (std::size_t s = 0; s < lay.leaders.size(); ++s) {
      if (static_cast<int>(s) != root_seg) {
        sends.push_back(p.isend(comm, lay.leaders[s], mpi::kTagHier, buffer));
      }
    }
  } else if (slot != root_seg && lay.leaders[at(slot)] == rank) {
    buffer = p.recv(comm, root, mpi::kTagHier);
  }

  // Intra phase: rooted at the root itself inside its segment, at the
  // leader (intra rank 0) elsewhere.  kAuto, so sized payloads ride the
  // segment's multicast engines.
  if (st.intra.size() > 1) {
    int intra_root = 0;
    if (slot == root_seg) {
      const auto& members = lay.members[at(slot)];
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] == root) {
          intra_root = static_cast<int>(i);
          break;
        }
      }
    }
    intra_bcast_sized(st.intra, buffer, intra_root);
  }
  for (const auto& send : sends) {
    p.wait(send);
  }
}

void barrier_hier(Proc& p, const Comm& comm) {
  HierState& st = hier_state(p, comm);
  const SegmentLayout& lay = comm.layout();
  const int rank = comm.rank();
  const int slot = lay.slot[at(rank)];
  const bool leader = lay.leaders[at(slot)] == rank;

  // Arrive: binomial fold of empty payloads to the leader (intra rank 0).
  // Explicitly mpich — a zero-byte fold gains nothing from multicast.
  if (st.intra.size() > 1) {
    (void)st.intra.coll().reduce({}, mpi::Op::kSum, mpi::Datatype::kByte, 0,
                                 "mpich");
  }
  // Inter: flat arrive/release through the first leader — exactly two
  // trunk rounds, independent of segment count.
  if (leader && lay.leaders.size() > 1) {
    if (slot == 0) {
      for (std::size_t s = 1; s < lay.leaders.size(); ++s) {
        (void)p.recv(comm, lay.leaders[s], mpi::kTagHier);
      }
      for (std::size_t s = 1; s < lay.leaders.size(); ++s) {
        p.send(comm, lay.leaders[s], mpi::kTagHier, {},
               net::FrameKind::kControl);
      }
    } else {
      p.send(comm, lay.leaders[0], mpi::kTagHier, {},
             net::FrameKind::kControl);
      (void)p.recv(comm, lay.leaders[0], mpi::kTagHier);
    }
  }
  // Release: binomial bcast of an empty payload from the leader.
  if (st.intra.size() > 1) {
    Buffer empty;
    st.intra.coll().bcast(empty, 0, "mpich");
  }
}

Buffer allreduce_hier(Proc& p, const Comm& comm,
                      std::span<const std::uint8_t> data, mpi::Op op,
                      mpi::Datatype type) {
  MC_EXPECTS(data.size() % mpi::datatype_size(type) == 0);
  const std::size_t count = data.size() / mpi::datatype_size(type);
  HierState& st = hier_state(p, comm);
  const SegmentLayout& lay = comm.layout();
  const int rank = comm.rank();
  const int slot = lay.slot[at(rank)];
  const bool leader = lay.leaders[at(slot)] == rank;

  // Intra reduce to the leader (kAuto: sized payloads may use the
  // multicast reduce engines).  Intra rank order == comm rank order, so
  // each segment partial is already combined in canonical order.
  Buffer partial;
  if (st.intra.size() > 1) {
    partial = st.intra.coll().reduce(data, op, type, 0);
  } else {
    partial.assign(data.begin(), data.end());
  }

  // Inter: the first leader combines segment partials in segment-block
  // order (the applicability predicate guarantees blocks are contiguous,
  // so this is comm rank order), then re-broadcasts leader-wise.
  Buffer result;
  if (leader) {
    if (slot == 0) {
      result = std::move(partial);
      for (std::size_t s = 1; s < lay.leaders.size(); ++s) {
        Buffer part = p.recv(comm, lay.leaders[s], mpi::kTagHier);
        MC_ASSERT(part.size() == result.size());
        mpi::apply_op(op, type, result, part, count);
        result = std::move(part);
      }
      for (std::size_t s = 1; s < lay.leaders.size(); ++s) {
        p.send(comm, lay.leaders[s], mpi::kTagHier, result);
      }
    } else {
      p.send(comm, lay.leaders[0], mpi::kTagHier, partial);
      result = p.recv(comm, lay.leaders[0], mpi::kTagHier);
    }
  }
  // Intra release bcast (kAuto -> multicast engines at size).  Non-leaders
  // hold no result yet, but its size equals the input's — presize so every
  // intra rank's kAuto pick agrees.
  if (st.intra.size() > 1) {
    if (!leader) {
      result.resize(data.size());
    }
    st.intra.coll().bcast(result, 0);
  }
  return result;
}

std::vector<Buffer> allgather_hier(Proc& p, const Comm& comm,
                                   std::span<const std::uint8_t> data) {
  HierState& st = hier_state(p, comm);
  const SegmentLayout& lay = comm.layout();
  const int rank = comm.rank();
  const int slot = lay.slot[at(rank)];
  const bool leader = lay.leaders[at(slot)] == rank;

  // Intra gather to the leader; block i is intra rank i == the i-th comm
  // rank of the segment.  Explicitly mpich: the direct p2p gather carries
  // ragged block sizes, which would make per-rank kAuto picks diverge.
  std::vector<Buffer> seg_blocks;
  if (st.intra.size() > 1) {
    seg_blocks = st.intra.coll().gather(data, 0, "mpich");
  } else {
    seg_blocks.emplace_back(data.begin(), data.end());
  }

  std::vector<Buffer> out(static_cast<std::size_t>(comm.size()));
  Buffer packed_all;
  if (leader) {
    // Leaders exchange their segment bundle all-to-all: receives posted
    // first, then nonblocking sends — no rendezvous cycle, and each trunk
    // carries each byte exactly once.
    const Buffer mine = pack_blocks(seg_blocks);
    std::vector<std::pair<std::size_t, std::shared_ptr<mpi::RecvRequest>>>
        recvs;
    std::vector<std::shared_ptr<mpi::SendRequest>> sends;
    for (std::size_t s = 0; s < lay.leaders.size(); ++s) {
      if (static_cast<int>(s) != slot) {
        recvs.emplace_back(s, p.irecv(comm, lay.leaders[s], mpi::kTagHier));
      }
    }
    for (std::size_t s = 0; s < lay.leaders.size(); ++s) {
      if (static_cast<int>(s) != slot) {
        sends.push_back(p.isend(comm, lay.leaders[s], mpi::kTagHier, mine));
      }
    }
    const auto& my_members = lay.members[at(slot)];
    MC_ASSERT(seg_blocks.size() == my_members.size());
    for (std::size_t i = 0; i < my_members.size(); ++i) {
      out[at(my_members[i])] = std::move(seg_blocks[i]);
    }
    for (auto& [s, request] : recvs) {
      const Buffer bundle = p.wait(request);
      std::vector<Buffer> blocks = unpack_blocks(bundle);
      MC_ASSERT(blocks.size() == lay.members[s].size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        out[at(lay.members[s][i])] = std::move(blocks[i]);
      }
    }
    for (const auto& send : sends) {
      p.wait(send);
    }
    packed_all = pack_blocks(out);
  }
  // Intra release: one bcast of the assembled bundle (kAuto -> multicast;
  // the bundle is ragged, so the leader announces its size first).
  if (st.intra.size() > 1) {
    intra_bcast_sized(st.intra, packed_all, 0);
    if (!leader) {
      out = unpack_blocks(packed_all);
      MC_ASSERT(out.size() == static_cast<std::size_t>(comm.size()));
    }
  }
  return out;
}

}  // namespace mcmpi::coll
