#include "coll/mcast.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

/// Framing of a data multicast: everything a receiver needs to check the
/// safe-program ordering argument of §4.
struct McastHeader {
  std::uint32_t context;
  std::int32_t root_world;
  std::uint64_t seq;
};

/// Serializes just the 16 B header; the payload goes down the stack as a
/// separate gather part, so framing never re-buffers the data.
Buffer header_bytes(const McastHeader& h) {
  Buffer out;
  out.reserve(kMcastFrameHeaderBytes);
  ByteWriter w(out);
  w.u32(h.context);
  w.i32(h.root_world);
  w.u64(h.seq);
  return out;
}

McastHeader parse_header(ByteReader& r) {
  McastHeader h;
  h.context = r.u32();
  h.root_world = r.i32();
  h.seq = r.u64();
  return h;
}

}  // namespace

void wait_priced_chain(Proc& p, sim::WaitQueue& done,
                       const std::function<bool()>& complete,
                       const std::function<SimTime()>& chain_end) {
  sim::Simulator& sim = p.self().simulator();
  if (complete()) {
    // Everything pre-arrived: the whole chain is consecutive overhead from
    // here, one (usually coalesced) delay.
    p.self().delay(chain_end() - sim.now());
    return;
  }
  SimTime end = kTimeZero;
  const bool absorbed =
      sim::wait_for_charged(p.self(), done, complete, [&]() -> SimTime {
        end = chain_end();
        return end - sim.now();
      });
  if (!absorbed) {
    p.self().delay_until(end);
  }
}

namespace {

/// Aggregate scout gather: collects `expected` scouts on `comm`'s context
/// with at most ONE wake-up, reproducing the cost chain of the original
/// one-recv-at-a-time gather exactly.
///
/// Scouts are absorbed by an engine sink the moment they arrive; when the
/// last one is in, the sequential-receive chain — each scout costs
/// max(chain, its availability) + one receive overhead, in `order` (or
/// arrival order when `order` is empty, the kAnySource root) — is priced in
/// the notifier's context and the gathering rank resumes once, when the
/// final charge has elapsed.  The per-host jitter draws happen in the same
/// sequence as the sequential gather's, so the chain end is bit-identical;
/// only the wake-ups in the middle disappear.
void gather_scouts(Proc& p, const Comm& comm, std::size_t expected,
                   const std::vector<mpi::Rank>& order) {
  if (expected == 0) {
    return;
  }
  const std::uint32_t context = comm.context();
  mpi::Engine& engine = p.engine();
  sim::Simulator& sim = p.self().simulator();

  struct Arrival {
    mpi::Rank src;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
  arrivals.reserve(expected);
  sim::WaitQueue done;

  engine.set_sink(context, mpi::kTagScout,
                  [&arrivals, &done, &sim, expected](mpi::Rank src,
                                                     PayloadRef) {
                    arrivals.push_back({src, sim.now()});
                    if (arrivals.size() == expected) {
                      done.notify_one();
                    }
                  });
  struct SinkGuard {
    mpi::Engine& engine;
    std::uint32_t context;
    ~SinkGuard() { engine.clear_sink(context, mpi::kTagScout); }
  } guard{engine, context};

  // Scouts that beat this rank to the engine were available at entry, just
  // as unexpected-queue matches were for the sequential gather.
  for (const mpi::Engine::DrainedEager& m :
       engine.drain_unexpected(context, mpi::kTagScout)) {
    arrivals.push_back({m.src_world, sim.now()});
  }

  const auto complete = [&] { return arrivals.size() == expected; };
  const auto chain_end = [&]() -> SimTime {
    SimTime chain = kTimeZero;
    const auto charge = [&](SimTime available) {
      chain = std::max(chain, available) +
              p.costs().recv_overhead(0, mpi::CostTier::kRaw);
    };
    if (order.empty()) {
      for (const Arrival& a : arrivals) {
        charge(a.at);
      }
    } else {
      for (mpi::Rank src : order) {
        const auto it =
            std::find_if(arrivals.begin(), arrivals.end(),
                         [src](const Arrival& a) { return a.src == src; });
        MC_ASSERT_MSG(it != arrivals.end(), "scout from unexpected source");
        charge(it->at);
      }
    }
    return chain;
  };

  wait_priced_chain(p, done, complete, chain_end);
}

}  // namespace

void scout_gather_binary(Proc& p, const Comm& comm, int root) {
  const int size = comm.size();
  const int rank = comm.rank();
  const int rel = (rank - root + size) % size;
  // Children are gathered in increasing-mask order (the consumption order
  // of the original per-level receives), then the scout goes to the parent
  // as this rank's last act — fire-and-forget, so the following
  // data-receive park absorbs the send overhead.
  std::vector<mpi::Rank> children;
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      break;
    }
    if (rel + mask < size) {
      children.push_back(comm.world_rank_of(((rel + mask) + root) % size));
    }
    mask <<= 1;
  }
  gather_scouts(p, comm, children.size(), children);
  if (rel != 0) {
    const int parent = ((rel - mask) + root) % size;
    p.send_control_async(comm, parent, mpi::kTagScout);
  }
}

void scout_gather_linear(Proc& p, const Comm& comm, int root) {
  const int size = comm.size();
  const int rank = comm.rank();
  if (rank != root) {
    p.send_control_async(comm, root, mpi::kTagScout);
    return;
  }
  // "the root can only receive one message at a time" — N-1 sequential
  // receive charges, in whichever order the scouts arrive.
  gather_scouts(p, comm, static_cast<std::size_t>(size - 1), {});
}

void mcast_send_framed(Proc& p, const Comm& comm,
                       std::span<const std::uint8_t> payload, int root,
                       net::FrameKind kind, mpi::CostTier tier) {
  mpi::McastChannel& ch = p.mcast_channel(comm);
  const McastHeader header{comm.context(), comm.world_rank_of(root),
                           ch.expected_seq()};
  p.self().delay(p.costs().send_overhead(
      static_cast<std::int64_t>(payload.size()), tier));
  ch.send(header_bytes(header), payload, kind);
  ch.advance_seq();
}

Buffer mcast_recv_framed(Proc& p, const Comm& comm, int root,
                         mpi::CostTier tier) {
  mpi::McastChannel& ch = p.mcast_channel(comm);
  for (;;) {
    // A datagram held by an earlier receive comes first; it arrived unpaid
    // and pays its receive overhead below, when consumed.
    PayloadRef data;
    bool charged = false;
    if (std::optional<PayloadRef> held = ch.take_held(ch.expected_seq())) {
      data = std::move(*held);
    } else {
      // Charged receive: when this rank parks for the datagram, the arrival
      // prices the receive overhead (header peek decides — stale duplicates
      // and early datagrams wake immediately and cost nothing) and the rank
      // resumes once, at arrival + overhead, instead of waking only to
      // sleep the charge.
      auto [d, absorbed] = ch.socket().recv_charged(
          p.self(), [&p, &ch, tier](const inet::UdpDatagram& dg) -> SimTime {
            ByteReader peek(dg.data);
            if (parse_header(peek).seq != ch.expected_seq()) {
              return kTimeZero;  // stale or early: never charged here
            }
            return p.costs().recv_overhead(
                static_cast<std::int64_t>(dg.data.size() - peek.position()),
                tier);
          });
      data = std::move(d.data);
      charged = absorbed;
    }
    ByteReader r(data);
    const McastHeader h = parse_header(r);
    if (h.seq < ch.expected_seq()) {
      continue;  // stale duplicate (retransmitting protocols)
    }
    // Safe-program ordering (§4): safe programs issue collectives in the
    // same order on every rank, so the multicasts of one group are consumed
    // in sequence.  They need not ARRIVE in sequence: a scout-free root
    // returns once it has sent, and its next stream can overtake an earlier
    // multicast that crosses a trunk.  A later sequence is held on the
    // channel for the operation it belongs to.
    if (h.seq > ch.expected_seq()) {
      ch.hold(h.seq, std::move(data));
      continue;
    }
    MC_ASSERT_MSG(h.context == comm.context(), "context mismatch");
    MC_ASSERT_MSG(h.root_world == comm.world_rank_of(root),
                  "broadcast root mismatch");
    // The datagram arrived zero-copy; this to_buffer() is the delivery copy
    // into the rank's private buffer at the API boundary.
    Buffer payload = data.slice(r.position()).to_buffer();
    if (!charged) {
      p.self().delay(p.costs().recv_overhead(
          static_cast<std::int64_t>(payload.size()), tier));
    }
    ch.advance_seq();
    return payload;
  }
}

void bcast_mcast_binary(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  // Channel creation precedes the scout: readiness before announcement.
  (void)p.mcast_channel(comm);
  scout_gather_binary(p, comm, root);
  if (comm.rank() == root) {
    mcast_send_framed(p, comm, buffer, root, net::FrameKind::kData);
  } else {
    buffer = mcast_recv_framed(p, comm, root);
  }
}

void bcast_mcast_linear(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  (void)p.mcast_channel(comm);
  scout_gather_linear(p, comm, root);
  if (comm.rank() == root) {
    mcast_send_framed(p, comm, buffer, root, net::FrameKind::kData);
  } else {
    buffer = mcast_recv_framed(p, comm, root);
  }
}

void barrier_mcast(Proc& p, const Comm& comm) {
  if (comm.size() == 1) {
    return;
  }
  (void)p.mcast_channel(comm);
  constexpr int kRoot = 0;
  scout_gather_binary(p, comm, kRoot);
  // The release is a bare zero-data multicast from the bypass layer (raw
  // tier), not an MPI data delivery — this is what makes the multicast
  // barrier cheap at every N (Fig. 13).
  if (comm.rank() == kRoot) {
    mcast_send_framed(p, comm, {}, kRoot, net::FrameKind::kControl,
                      mpi::CostTier::kRaw);
  } else {
    const Buffer release =
        mcast_recv_framed(p, comm, kRoot, mpi::CostTier::kRaw);
    MC_ASSERT(release.empty());
  }
}

}  // namespace mcmpi::coll
