// The stream engine's repair unit: the segment-local repair chain and the
// NACK sink that serves the root's history and a repairer's frames.

#include "coll/stream_engine.hpp"
#include "mpi/world.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll::engine {
namespace {

/// Segment-local repair, per communicator: on a leader or deputy, the
/// frames of the NACK stream it receives and when its sink last forwarded
/// each seq to the root.
struct RepairState {
  FrameHistory held;
  std::map<std::uint64_t, SimTime> forwarded;
};

/// Null in a one-segment world, which never allocates one.
RepairState* repair_state(Proc& p, const Comm& comm) {
  if (p.world().num_segments() < 2) {
    return nullptr;
  }
  return &p.coll_state<RepairState>(comm);
}

/// Bit 7 of the preset byte flags a NACK sent to a repairer; the root
/// follows as an i32.  The second byte is reserved (always 0).
constexpr std::uint8_t kNackCarriesRoot = 0x80;

}  // namespace

/// Each remote segment's members — comm ranks ascending — elect their
/// leader m0 and its deputy m1 from the communicator's segment layout
/// without wire traffic, as hier does.  A receiver in the root's segment
/// NACKs the root; a remote one NACKs m0, and m0 NACKs m1 (the root when
/// the segment has no m1).
Chain join_chain(Proc& p, const Comm& comm, int root) {
  RepairState* rs = repair_state(p, comm);
  if (rs == nullptr) {
    return {root, nullptr};  // one segment
  }
  rs->held.clear();
  rs->forwarded.clear();
  const mpi::SegmentLayout& lay = comm.layout();
  const int me = comm.rank();
  const int slot = lay.slot[static_cast<std::size_t>(me)];
  if (slot == lay.slot[static_cast<std::size_t>(root)]) {
    return {root, nullptr};
  }
  // The root sits on another segment, so it is none of these members.
  const std::vector<int>& members = lay.members[static_cast<std::size_t>(slot)];
  const int m0 = members[0];
  const int m1 = members.size() > 1 ? members[1] : -1;
  if (me == m0) {
    return {m1 >= 0 ? m1 : root, &rs->held};
  }
  return {m0, me == m1 ? &rs->held : nullptr};
}

Buffer nack_message(int preset, int root,
                    std::span<const std::uint64_t> seqs) {
  Buffer msg;
  ByteWriter w(msg);
  w.u8(static_cast<std::uint8_t>(preset | (root < 0 ? 0 : kNackCarriesRoot)));
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(seqs.size()));
  if (root >= 0) {
    w.i32(root);
  }
  for (const std::uint64_t seq : seqs) {
    w.u64(seq);
  }
  return msg;
}

/// NACK service: kernel-level (uncharged), alive for the communicator's
/// lifetime — at a root it serves receivers after the root has left the
/// collective, which is what lets a NACK-mode root return at once; at a
/// repairer it serves what it holds and forwards the rest to the root.
void install_sink(Proc& p, const Comm& comm, StreamState& st) {
  if (st.sink_installed) {
    return;
  }
  st.sink_installed = true;
  StreamState* s = &st;
  mpi::McastChannel* channel = &p.mcast_channel(comm);
  RepairState* repair = repair_state(p, comm);
  mpi::Engine* engine = &p.engine();
  // The sink always executes on the NACK's receiving rank — this rank — so
  // the shard captured here is the one whose counters it may touch.
  sim::Shard* shard = &p.self().shard();
  const auto sink = [s, repair, engine, channel, info = comm.info(), shard](
                        mpi::Rank /*src*/, PayloadRef data) {
    ByteReader r(data);
    const int head = r.u8();
    const int preset = head & ~kNackCarriesRoot;
    (void)r.u8();  // reserved
    const int wanted = r.u16();
    if (preset >= kStreamPresets) {
      return;  // not a NACK this engine sent
    }
    // Only a NACK sent across segments, to a repairer, carries a root.
    const bool to_root = (head & kNackCarriesRoot) == 0;
    const int root = to_root ? -1 : r.i32();
    FrameHistory& frames =
        to_root ? s->presets[static_cast<std::size_t>(preset)].history
                : repair->held;
    const SimTime now = shard->now();
    std::vector<std::uint64_t> lacking;
    for (int i = 0; i < wanted; ++i) {
      const std::uint64_t seq = r.u64();
      FrameHistory::Entry* e = frames.find(seq);
      if (e == nullptr && to_root) {
        ++s->stats.nacks_unserved;
      } else if (e == nullptr) {
        const auto [it, fresh] = repair->forwarded.try_emplace(seq, now);
        if (fresh || now - it->second >= kAggregationWindow) {
          it->second = now;
          lacking.push_back(seq);
        }
      } else if (e->last_resend && now - *e->last_resend < kAggregationWindow) {
        // Already on the wire: that re-multicast serves every receiver
        // that missed the frame.
        ++s->stats.nacks_suppressed;
        ++shard->counters().nacks_suppressed;
      } else {
        e->last_resend = now;
        ++s->stats.retransmits;
        ++shard->counters().retransmits;
        ++(to_root ? s->stats.nacks_served : s->stats.repairs_served);
        channel->send(e->frame, net::FrameKind::kData);
      }
    }
    if (!lacking.empty()) {
      ++s->stats.nacks_forwarded;
      engine->start_send(info, root, mpi::kTagChunkNack,
                         nack_message(preset, -1, lacking),
                         net::FrameKind::kControl);
    }
  };
  // NACKs that reached this rank before its sink existed.
  for (auto& m : engine->drain_unexpected(comm.context(), mpi::kTagChunkNack)) {
    sink(m.src_world, std::move(m.data));
  }
  engine->set_sink(comm.context(), mpi::kTagChunkNack, sink);
}

}  // namespace mcmpi::coll::engine
