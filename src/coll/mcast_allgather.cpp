#include "coll/mcast_allgather.hpp"

#include <optional>
#include <utility>

#include "coll/mcast.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

std::string to_string(AllgatherMode mode) {
  return mode == AllgatherMode::kLockstep ? "lockstep" : "blast";
}

namespace {

AllgatherOutcome lockstep(Proc& p, const Comm& comm,
                          std::span<const std::uint8_t> data) {
  AllgatherOutcome out;
  out.blocks.resize(static_cast<std::size_t>(comm.size()));
  // Readiness once: after the barrier every channel exists and every rank
  // is inside the collective.
  barrier_mcast(p, comm);
  for (int r = 0; r < comm.size(); ++r) {
    if (comm.rank() == r) {
      out.blocks[static_cast<std::size_t>(r)].assign(data.begin(), data.end());
      mcast_send_framed(p, comm, data, r, net::FrameKind::kData);
    } else {
      out.blocks[static_cast<std::size_t>(r)] = mcast_recv_framed(p, comm, r);
    }
  }
  return out;
}

AllgatherOutcome blast(Proc& p, const Comm& comm,
                       std::span<const std::uint8_t> data,
                       SimTime timeout) {
  AllgatherOutcome out;
  const int size = comm.size();
  out.blocks.resize(static_cast<std::size_t>(size));
  out.blocks[static_cast<std::size_t>(comm.rank())].assign(data.begin(),
                                                           data.end());
  mpi::McastChannel& ch = p.mcast_channel(comm);

  barrier_mcast(p, comm);
  const std::uint64_t op_seq = ch.expected_seq();

  // Fire.  Every block carries the same operation sequence number; senders
  // are identified by the root field.  Gather-send: header and payload are
  // assembled into the wire datagram in one pass.
  {
    Buffer header;
    header.reserve(16);
    ByteWriter w(header);
    w.u32(comm.context());
    w.i32(comm.world_rank_of(comm.rank()));
    w.u64(op_seq);
    p.self().delay(p.costs().send_overhead(
        static_cast<std::int64_t>(data.size()), mpi::CostTier::kMcastData));
    ch.send(header, data, net::FrameKind::kData);
  }

  // Collect until complete or until the deadline says the rest are gone.
  const SimTime deadline = p.self().now() + timeout;
  std::vector<bool> have(static_cast<std::size_t>(size), false);
  have[static_cast<std::size_t>(comm.rank())] = true;
  int received = 0;
  while (received < size - 1) {
    // Blocks held by an earlier receive come first, unpaid until consumed.
    PayloadRef data;
    bool charged = false;
    if (std::optional<PayloadRef> held = ch.take_held(op_seq)) {
      data = std::move(*held);
    } else {
      // Charged receive: a fresh block that wakes the parked rank prices
      // the receive overhead into the wake-up; stale, early or duplicate
      // traffic wakes immediately and costs nothing until delivered.
      auto datagram = ch.socket().recv_until_charged(
          p.self(), deadline,
          [&](const inet::UdpDatagram& dg) -> SimTime {
            ByteReader peek(dg.data);
            (void)peek.u32();  // context
            const std::int32_t root_world = peek.i32();
            if (peek.u64() != op_seq) {
              return kTimeZero;  // another operation's traffic
            }
            const int root = comm.group().rank_of(root_world);
            if (root < 0 || have[static_cast<std::size_t>(root)]) {
              return kTimeZero;  // duplicate
            }
            return p.costs().recv_overhead(
                static_cast<std::int64_t>(dg.data.size() - peek.position()),
                mpi::CostTier::kMcastData);
          });
      if (!datagram.has_value()) {
        break;  // remaining blocks were dropped on our socket buffer
      }
      data = std::move(datagram->datagram.data);
      charged = datagram->charge_absorbed;
    }
    ByteReader r(data);
    const std::uint32_t context = r.u32();
    const std::int32_t root_world = r.i32();
    const std::uint64_t seq = r.u64();
    if (seq < op_seq) {
      continue;  // stale traffic from an earlier operation
    }
    if (seq > op_seq) {
      ch.hold(seq, std::move(data));  // a later operation's, held for it
      continue;
    }
    MC_ASSERT_MSG(context == comm.context(), "context mismatch");
    const int root = comm.group().rank_of(root_world);
    MC_ASSERT(root >= 0 && root != comm.rank());
    if (have[static_cast<std::size_t>(root)]) {
      continue;  // duplicate
    }
    have[static_cast<std::size_t>(root)] = true;
    auto payload = r.rest();
    if (!charged) {
      p.self().delay(p.costs().recv_overhead(
          static_cast<std::int64_t>(payload.size()),
          mpi::CostTier::kMcastData));
    }
    out.blocks[static_cast<std::size_t>(root)].assign(payload.begin(),
                                                      payload.end());
    ++received;
  }
  out.missing = size - 1 - received;
  ch.advance_seq();  // the whole operation consumed one sequence slot

  // Resynchronize so the next collective starts from a clean, safe state
  // (stragglers' stale frames are skipped by the sequence check).
  barrier_mcast(p, comm);
  return out;
}

}  // namespace

AllgatherOutcome allgather_mcast(Proc& p, const Comm& comm,
                                 std::span<const std::uint8_t> data,
                                 AllgatherMode mode, SimTime blast_timeout) {
  if (comm.size() == 1) {
    AllgatherOutcome out;
    out.blocks.emplace_back(data.begin(), data.end());
    return out;
  }
  (void)p.mcast_channel(comm);
  return mode == AllgatherMode::kLockstep ? lockstep(p, comm, data)
                                          : blast(p, comm, data, blast_timeout);
}

}  // namespace mcmpi::coll
