#include "coll/mcast_stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll/gf256.hpp"
#include "coll/limits.hpp"
#include "coll/mcast.hpp"
#include "coll/mcast_scatter.hpp"
#include "common/assert.hpp"
#include "inet/udp.hpp"
#include "mpi/world.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

/// Full framing of a stream datagram: the 16 B (context, root, seq)
/// multicast header followed by the 32 B chunk sub-header.
constexpr std::size_t kFrameBytes = kMcastFrameHeaderBytes + kChunkHeaderBytes;

/// Top bit of ChunkHeader::index marks a parity frame; the low bits are
/// then the parity row.  Data frames never set it (a stream is capped
/// below 2^31 chunks).
constexpr std::uint32_t kParityIndexBit = 0x80000000u;

/// One stream datagram's framing.  A data chunk's byte offset is
/// index × chunk; a parity frame's sequence slots follow its generation's
/// data slots.
struct ChunkHeader {
  std::uint32_t context = 0;
  std::int32_t root_world = 0;
  std::uint64_t seq = 0;      // channel sequence
  std::uint32_t index = 0;    // chunk number, or kParityIndexBit | row
  std::uint32_t count = 0;    // data chunks in the stream
  std::uint32_t chunk = 0;    // nominal chunk bytes
  std::uint32_t gen = 0;      // generation (k data chunks each)
  std::uint32_t length = 0;   // payload bytes of this frame
  std::uint16_t k = 0;        // data chunks per generation
  std::uint16_t r = 0;        // parity frames per generation
  std::uint64_t total = 0;    // stream bytes

  bool parity() const { return (index & kParityIndexBit) != 0; }
  int row() const { return static_cast<int>(index & ~kParityIndexBit); }
  std::size_t offset() const { return std::size_t{index} * chunk; }
};

void write_header(ByteWriter& w, const ChunkHeader& h) {
  w.u32(h.context);
  w.i32(h.root_world);
  w.u64(h.seq);
  w.u32(h.index);
  w.u32(h.count);
  w.u32(h.chunk);
  w.u32(h.gen);
  w.u32(h.length);
  w.u16(h.k);
  w.u16(h.r);
  w.u64(h.total);
}

/// The stream header of datagram `data`, or nullopt for foreign traffic
/// on the channel (too short, or no generation size).
std::optional<ChunkHeader> stream_header(const PayloadRef& data) {
  if (data.size() < kFrameBytes) {
    return std::nullopt;
  }
  ByteReader r(data);
  ChunkHeader h;
  h.context = r.u32();
  h.root_world = r.i32();
  h.seq = r.u64();
  h.index = r.u32();
  h.count = r.u32();
  h.chunk = r.u32();
  h.gen = r.u32();
  h.length = r.u32();
  h.k = r.u16();
  h.r = r.u16();
  h.total = r.u64();
  if (h.k == 0) {
    return std::nullopt;
  }
  return h;
}

/// Data rows of generation `g` in a stream of `n` chunks.
std::uint32_t gen_rows(std::uint32_t n, std::uint32_t k, std::uint32_t g) {
  return std::min(k, n - g * k);
}

/// Sequence distance of frame `h` from the first frame of its operation:
/// each generation occupies its data rows, then its r parity slots.  h.seq
/// minus this is the operation's base sequence, so every frame names the
/// operation it belongs to.
std::uint64_t op_offset(const ChunkHeader& h) {
  const std::uint64_t span = std::uint64_t{h.k} + h.r;
  if (!h.parity()) {
    return (h.index / h.k) * span + h.index % h.k;
  }
  return h.gen * span + gen_rows(h.count, h.k, h.gen) +
         static_cast<std::uint64_t>(h.row());
}

int parity_rows(int k, double overhead) {
  if (!(overhead > 0.0)) {
    return 0;
  }
  const auto want = static_cast<int>(std::ceil(k * overhead));
  return std::clamp(want, 1, gf256::max_parity(k));
}

/// Most chunk data one Ethernet frame carries under the stream framing.
constexpr std::size_t kFrameChunkBytes =
    static_cast<std::size_t>(inet::UdpStack::kMaxPayloadPerFrame) -
    kFrameBytes;

/// Nominal chunk size of a `total`-byte stream carrying r parity frames
/// per generation.
std::size_t plan_chunk(std::size_t total, const StreamConfig& cfg, int r,
                       std::size_t rcvbuf_bytes) {
  const auto k = static_cast<std::size_t>(cfg.k);
  std::size_t chunk = cfg.chunk_bytes;
  if (chunk == 0) {
    // The payload splits into min(k, frames it fills) chunks: below one
    // frame a smaller chunk adds no loss independence (it is one frame
    // either way) but still pays a whole per-message software cost.
    const std::size_t n = std::clamp<std::size_t>(
        (total + kFrameChunkBytes - 1) / kFrameChunkBytes, 1, k);
    chunk = (total + n - 1) / n;
  }
  // The framed chunk must clear the fragment-offset datagram ceiling…
  chunk = std::min(chunk, kMaxMcastDatagram - kFrameBytes);
  // …and fit the receive buffer: in ACK mode a full window of framed
  // chunks plus the generation's parity share the buffer (or the
  // pipeline would overrun the very buffer it paces); in NACK mode at
  // least one framed chunk must be enqueueable.
  const std::size_t frames =
      cfg.feedback == Feedback::kAck ? k + static_cast<std::size_t>(r) : 1;
  const std::size_t share = rcvbuf_bytes / frames;
  MC_EXPECTS_MSG(share > kFrameBytes,
                 "receive buffer too small for the window");
  chunk = std::min(chunk, share - kFrameBytes);
  return std::max<std::size_t>(chunk, 1);
}

std::uint32_t chunk_count(std::size_t total, std::size_t chunk) {
  return total == 0 ? 1
                    : static_cast<std::uint32_t>((total + chunk - 1) / chunk);
}

/// Appends to `out` the sub-spans of `stream` covering stream bytes
/// [offset, offset + length) — the gather-framing of one chunk, with zero
/// assembly copies regardless of how many source buffers compose it.
void collect_chunk_parts(
    std::span<const std::span<const std::uint8_t>> stream, std::size_t offset,
    std::size_t length, std::vector<std::span<const std::uint8_t>>& out) {
  std::size_t pos = 0;
  for (const auto& part : stream) {
    if (length == 0) {
      break;
    }
    const std::size_t part_end = pos + part.size();
    if (part_end > offset) {
      const std::size_t lo = offset - pos;
      const std::size_t n = std::min(part.size() - lo, length);
      out.push_back(part.subspan(lo, n));
      offset += n;
      length -= n;
    }
    pos = part_end;
  }
  MC_ASSERT_MSG(length == 0, "chunk range exceeds the stream");
}

struct Stashed {
  ChunkHeader h;
  PayloadRef body;
  bool charged = false;  // receive overhead already paid
};

struct Retained {
  PayloadRef frame;
  std::optional<SimTime> last_resend;  // unset until first re-multicast
};

/// Bytes of one slab that parity-free NACK frames are carved from.
constexpr std::size_t kFrameSlabBytes = 32 * 1024;

/// What one preset keeps per communicator, so running or tuning it never
/// changes another preset: its configuration and, root side, its NACK
/// history — a ring of the last history_frames frames it sent, with their
/// sequences (the oldest is overwritten first) — and the slab its
/// parity-free frames are carved from.
struct PresetState {
  StreamConfig config;
  std::vector<std::pair<std::uint64_t, Retained>> history;
  std::size_t oldest = 0;  // ring slot of the oldest frame once full
  PayloadSlab slab{kFrameSlabBytes};
};

struct StreamState {
  StreamState() {
    for (int i = 0; i < kStreamPresets; ++i) {
      presets[static_cast<std::size_t>(i)].config =
          preset_config(static_cast<StreamPreset>(i));
    }
  }
  std::array<PresetState, kStreamPresets> presets;
  StreamStats stats;
  // NACK mode: the sink, installed by the first NACK-mode stream this rank
  // sends or receives.
  bool sink_installed = false;
  // Receiver side: frames ahead of the cursor, by sequence, kept across
  // calls (a NACK-mode root may start its next stream before a receiver
  // has finished this one).
  std::map<std::uint64_t, Stashed> stash;
  // Receiver side, parity streams in NACK mode: per root (comm rank), this
  // rank's observed distance to it — an EWMA of the time from its own
  // recv_stream entry to the first frame of the root's operation.
  std::map<int, SimTime> first_frame_distance;
};

std::size_t slot(StreamPreset p) { return static_cast<std::size_t>(p); }

StreamState& state_of(Proc& p, const Comm& comm) {
  return p.coll_state<StreamState>(comm);
}

/// Segment-local repair, kept per communicator beside its StreamState: the
/// segment of every comm rank and, on a leader or deputy, the framed data
/// frames of the NACK stream it is receiving, by seq, dropped at its next
/// NACK-stream receive entry, and when its sink last forwarded each seq to
/// the root.
struct RepairState {
  std::vector<int> seg_of;
  std::map<std::uint64_t, Retained> held;
  std::map<std::uint64_t, SimTime> forwarded;
};

/// The communicator's repair state; null in a one-segment world, which
/// never allocates one.
RepairState* repair_state(Proc& p, const Comm& comm) {
  if (p.world().num_segments() < 2) {
    return nullptr;
  }
  RepairState& rs = p.coll_state<RepairState>(comm);
  if (rs.seg_of.empty()) {
    for (int r = 0; r < comm.size(); ++r) {
      rs.seg_of.push_back(p.world().segment_of(comm.world_rank_of(r)));
    }
  }
  return &rs;
}

/// This rank's place in the repair chain of `root`'s NACK streams
/// (segment-local repair, after RMTP's designated receivers).  Each remote
/// segment's members — comm ranks ascending, root excluded — elect their
/// leader m0 and its deputy m1 without wire traffic, as hier does.  A
/// receiver in the root's segment NACKs the root; a remote receiver NACKs
/// m0, and m0 NACKs m1 (the root when the segment has no m1).  A
/// repairer's sink serves what it holds and forwards the rest to the root.
struct Chain {
  int nack_to = 0;        // where this rank's own NACKs go
  bool repairer = false;  // m0 or m1: keeps the stream's frames
};

Chain chain_of(const Comm& comm, const RepairState* rs, int root) {
  if (rs == nullptr) {
    return {root, false};  // one segment
  }
  const auto seg = [rs](int r) {
    return rs->seg_of[static_cast<std::size_t>(r)];
  };
  const int me = comm.rank();
  if (seg(me) == seg(root)) {
    return {root, false};
  }
  int m[2] = {-1, -1};
  for (int r = 0, n = 0; r < comm.size() && n < 2; ++r) {
    if (r != root && seg(r) == seg(me)) {
      m[n++] = r;
    }
  }
  if (me == m[0]) {
    return {m[1] >= 0 ? m[1] : root, true};
  }
  return {m[0], me == m[1]};
}

/// A NACK for `seqs`, served from `preset`'s history.  One sent to a
/// repairer carries the stream's root (`root` >= 0, flagged in bit 7 of the
/// preset byte), so the repairer knows where to forward what it lacks; one
/// sent to the root (`root` < 0) keeps the bytes it always had.  The second
/// byte is reserved (always 0), so the message keeps its wire size.
constexpr std::uint8_t kNackCarriesRoot = 0x80;

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
/// repairer it re-multicasts what the rank holds of the stream it is
/// receiving and forwards the rest to the root, each frame at most once
/// per aggregation window.  Installed by every rank that sends or
/// receives a NACK stream.
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
    PresetState& ps = s->presets[static_cast<std::size_t>(preset)];
    const SimTime now = shard->now();
    // Aggregation: a re-multicast inside the window is already on the wire
    // and serves every receiver that missed the frame.
    const auto resend = [&](Retained& e) {
      if (e.last_resend &&
          now - *e.last_resend < ps.config.aggregation_window) {
        ++s->stats.nacks_suppressed;
        ++shard->counters().nacks_suppressed;
        return false;
      }
      e.last_resend = now;
      ++s->stats.retransmits;
      ++shard->counters().retransmits;
      channel->send(e.frame, net::FrameKind::kData);
      return true;
    };
    if ((head & kNackCarriesRoot) == 0) {  // this rank is the stream's root
      for (int i = 0; i < wanted; ++i) {
        const std::uint64_t seq = r.u64();
        const auto it = std::find_if(
            ps.history.begin(), ps.history.end(),
            [seq](const auto& e) { return e.first == seq; });
        if (it == ps.history.end()) {
          ++s->stats.nacks_unserved;
        } else if (resend(it->second)) {
          ++s->stats.nacks_served;
        }
      }
      return;
    }
    const int root = r.i32();
    RepairState& rs = *repair;  // NACKs carry a root only across segments
    std::vector<std::uint64_t> lacking;
    for (int i = 0; i < wanted; ++i) {
      const std::uint64_t seq = r.u64();
      if (const auto it = rs.held.find(seq); it != rs.held.end()) {
        if (resend(it->second)) {
          ++s->stats.repairs_served;
        }
        continue;
      }
      const auto [it, fresh] = rs.forwarded.try_emplace(seq, now);
      if (fresh || now - it->second >= ps.config.aggregation_window) {
        it->second = now;
        lacking.push_back(seq);
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

void retain(PresetState& ps, std::uint64_t seq, PayloadRef frame) {
  auto& ring = ps.history;
  const std::size_t cap = ps.config.history_frames;
  if (ring.size() != cap && ps.oldest != 0) {
    // history_frames changed after the ring wrapped: oldest first again.
    std::rotate(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(
                                                 ps.oldest),
                ring.end());
    ps.oldest = 0;
  }
  if (ring.size() < cap) {
    ring.reserve(cap);
    ring.emplace_back(seq, Retained{std::move(frame), std::nullopt});
    return;
  }
  ring.erase(ring.begin(),
             ring.begin() + static_cast<std::ptrdiff_t>(ring.size() - cap));
  ring[ps.oldest] = {seq, Retained{std::move(frame), std::nullopt}};
  ps.oldest = (ps.oldest + 1) % cap;
}

/// Root side: cuts the logical stream (a concatenation of spans) into
/// chunks, follows every generation with its parity, and — in ACK mode —
/// keeps at most k chunks in flight while collecting per-chunk acks and
/// retransmitting on timeout.
/// Returns once every chunk is acked (ACK) or sent (NACK).
void send_stream(Proc& p, const Comm& comm, int root,
                 std::span<const std::span<const std::uint8_t>> stream,
                 StreamPreset preset, StreamState& st) {
  PresetState& ps = st.presets[slot(preset)];
  const StreamConfig& cfg = ps.config;
  const int receivers = comm.size() - 1;
  MC_EXPECTS(receivers > 0);
  std::size_t total = 0;
  for (const auto& part : stream) {
    total += part.size();
  }
  const bool nack = cfg.feedback == Feedback::kNack;
  const int r = parity_rows(cfg.k, cfg.overhead);
  const std::size_t chunk_bytes =
      plan_chunk(total, cfg, r, p.mcast_recv_buffer());
  const std::uint32_t n_chunks = chunk_count(total, chunk_bytes);
  MC_EXPECTS_MSG(n_chunks < kParityIndexBit, "stream has too many chunks");
  const auto k = static_cast<std::uint32_t>(cfg.k);
  sim::SchedCounters& counters = p.self().shard().counters();
  mpi::McastChannel& ch = p.mcast_channel(comm);
  if (nack) {
    install_sink(p, comm, st);
  }

  ChunkHeader proto;
  proto.context = comm.context();
  proto.root_world = comm.world_rank_of(root);
  proto.count = n_chunks;
  proto.chunk = static_cast<std::uint32_t>(chunk_bytes);
  proto.k = static_cast<std::uint16_t>(k);
  proto.r = static_cast<std::uint16_t>(r);
  proto.total = total;

  struct ChunkState {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t seq = 0;  // channel sequence of the FIRST transmission
    int acks = 0;
    bool retired = false;
  };
  std::vector<ChunkState> chunks(n_chunks);
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    chunks[i].offset = static_cast<std::size_t>(i) * chunk_bytes;
    chunks[i].length = std::min(chunk_bytes, total - chunks[i].offset);
  }

  std::uint32_t sent = 0;
  std::uint32_t retired_count = 0;
  std::uint64_t live = 0;  // sent, not yet retired
  const std::uint64_t total_acks =
      std::uint64_t{n_chunks} * static_cast<std::uint64_t>(receivers);
  std::uint64_t acks_consumed = 0;
  std::shared_ptr<mpi::RecvRequest> request;

  std::vector<std::span<const std::uint8_t>> parts;
  Buffer header;
  header.reserve(kFrameBytes);
  const auto transmit = [&](std::uint32_t i, bool first) {
    ChunkState& c = chunks[i];
    if (first) {
      c.seq = ch.expected_seq();
    }
    // A retransmission reuses the original sequence, so receivers that
    // already consumed the chunk skip it as a stale duplicate.
    ChunkHeader h = proto;
    h.seq = c.seq;
    h.index = i;
    h.gen = i / k;
    h.length = static_cast<std::uint32_t>(c.length);
    p.self().delay(p.costs().send_overhead(
        static_cast<std::int64_t>(c.length), mpi::CostTier::kMcastData));
    parts.clear();
    if (nack) {
      // Framed once into storage shared by the wire and the history: a
      // parity-free frame is carved from the preset's slab; a frame of a
      // parity stream gets a pooled buffer of its own.
      PayloadRef framed;
      if (r == 0) {
        header.clear();
        ByteWriter w(header);
        write_header(w, h);
        parts.push_back(header);
        collect_chunk_parts(stream, c.offset, c.length, parts);
        framed = ps.slab.carve(parts);
      } else {
        collect_chunk_parts(stream, c.offset, c.length, parts);
        PooledBuffer out = acquire_payload_buffer(kFrameBytes + c.length);
        ByteWriter w(out.bytes);
        write_header(w, h);
        for (const auto& part : parts) {
          w.bytes(part);
        }
        framed = PayloadRef::adopt(std::move(out));
      }
      retain(ps, c.seq, framed);
      ch.send(std::move(framed), net::FrameKind::kData);
    } else {
      header.clear();
      ByteWriter w(header);
      write_header(w, h);
      parts.push_back(header);
      collect_chunk_parts(stream, c.offset, c.length, parts);
      ch.send_parts(parts, net::FrameKind::kData);
    }
    if (!first) {
      ++counters.chunk_retried;
      ++counters.retransmits;
      ++st.stats.retransmits;
      return;
    }
    ch.advance_seq();
    if (!nack) {
      ++counters.chunk_sent;
      ++live;
      counters.chunk_peak_window = std::max(counters.chunk_peak_window, live);
    }
  };

  // After the last first transmission of a generation (k chunks, or the
  // stream's partial tail), multicast its r parity frames.  Parity is
  // fire-and-forget: it consumes sequence numbers (receivers account for
  // the slots) but is never acked, retained, or retransmitted — a lost
  // parity frame costs nothing beyond falling back to the feedback loop.
  const auto send_parity = [&](std::uint32_t i) {
    const std::uint32_t g = i / k;
    const std::uint32_t k0 = g * k;
    const std::uint32_t rows = i - k0 + 1;
    const std::size_t plen = chunks[k0].length;  // the generation's longest row
    ChunkHeader h = proto;
    h.gen = g;
    h.length = static_cast<std::uint32_t>(plen);
    for (int pr = 0; pr < r; ++pr) {
      h.seq = ch.expected_seq();
      h.index = kParityIndexBit | static_cast<std::uint32_t>(pr);
      // Encoded straight into its framed wire buffer from the payload pool.
      PooledBuffer out = acquire_payload_buffer(kFrameBytes + plen);
      ByteWriter w(out.bytes);
      write_header(w, h);
      out.bytes.resize(kFrameBytes + plen, 0);
      const std::span<std::uint8_t> acc =
          std::span(out.bytes).subspan(kFrameBytes);
      for (std::uint32_t q = 0; q < rows; ++q) {
        const std::uint8_t coef = gf256::parity_coef(pr, static_cast<int>(q),
                                                     static_cast<int>(rows));
        const ChunkState& c = chunks[k0 + q];
        parts.clear();
        collect_chunk_parts(stream, c.offset, c.length, parts);
        std::size_t pos = 0;
        for (const auto& part : parts) {
          gf256::mul_acc(acc.subspan(pos, part.size()), part, coef);
          pos += part.size();
        }
      }
      p.self().delay(p.costs().send_overhead(static_cast<std::int64_t>(plen),
                                             mpi::CostTier::kMcastData));
      ch.send(PayloadRef::adopt(std::move(out)), net::FrameKind::kData);
      ch.advance_seq();
      ++counters.parity_sent;
    }
  };

  // The recovery clock.  With a window (k > 1) every ack restarts it and
  // clears the backoff and retry count (the ORNL discipline).  In lockstep
  // (k = 1) it runs from the last (re)transmission and only a retired chunk
  // resets it (the paper's ACK protocol; see StreamConfig::k).
  const bool lockstep = cfg.k == 1;
  SimTime timeout = cfg.timeout;
  SimTime deadline{};  // lockstep only
  int dry_timeouts = 0;  // consecutive fruitless deadlines
  const auto consume_one_ack = [&] {
    for (;;) {
      const auto ack = p.wait_until(
          request, lockstep ? deadline : p.self().now() + timeout, nullptr,
          mpi::CostTier::kRaw);
      if (ack.has_value()) {
        if (!lockstep) {
          timeout = cfg.timeout;
          dry_timeouts = 0;
        }
        ByteReader rd(*ack);
        const std::uint32_t index = rd.u32();
        MC_ASSERT_MSG(index < n_chunks, "ack for an unknown chunk");
        ChunkState& c = chunks[index];
        MC_ASSERT_MSG(!c.retired, "ack for an already-retired chunk");
        ++counters.chunk_acked;
        ++acks_consumed;
        if (++c.acks == receivers) {
          c.retired = true;
          ++retired_count;
          --live;
          timeout = cfg.timeout;
          dry_timeouts = 0;
        }
        if (acks_consumed < total_acks) {
          request = p.irecv(comm, mpi::kAnySource, mpi::kTagChunkAck);
        }
        return;
      }
      // Timeout: somebody missed a chunk (drop, slow drain, or not ready) —
      // recover the oldest outstanding one and keep waiting, backing the
      // deadline off so retransmissions stop colliding with the acks they
      // provoke.
      if (cfg.max_retries > 0 && dry_timeouts >= cfg.max_retries) {
        std::ostringstream os;
        os << to_string(preset) << ": root rank " << root << " gave up after "
           << dry_timeouts << " consecutive ack-less timeouts ("
           << retired_count << " of " << n_chunks
           << " chunks retired) — loss rate exceeds what the ACK window can "
              "absorb; raise max_retries or timeout_cap";
        throw std::runtime_error(os.str());
      }
      ++dry_timeouts;
      for (std::uint32_t i = 0; i < sent; ++i) {
        if (!chunks[i].retired) {
          transmit(i, false);
          break;
        }
      }
      const auto scaled = static_cast<std::int64_t>(
          static_cast<double>(timeout.count()) * cfg.backoff);
      timeout = std::min(SimTime{scaled}, cfg.timeout_cap);
      deadline = p.self().now() + timeout;
    }
  };

  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    // Sliding window: stall only when k chunks are in flight; acks consumed
    // here retire earlier chunks while later ones are in flight.
    while (!nack && live >= k) {
      consume_one_ack();
    }
    transmit(i, true);
    ++sent;
    if (r > 0 && ((i + 1) % k == 0 || i + 1 >= n_chunks)) {
      send_parity(i);
    }
    if (!nack && request == nullptr) {
      request = p.irecv(comm, mpi::kAnySource, mpi::kTagChunkAck);
    }
    deadline = p.self().now() + timeout;
  }
  // NACK mode does not wait: the sink serves any recovery from here on.
  while (!nack && retired_count < n_chunks) {
    consume_one_ack();
  }
}

/// Delivery of one chunk: (stream offset, stream total, bytes).
using ChunkSink = std::function<void(std::size_t, std::size_t, PayloadRef)>;

/// Receiver side: consumes chunks 0..count-1 in index order and hands
/// each to `sink`.  All geometry comes from the frame headers.  ACK mode
/// acks every consumed chunk to the root; NACK mode requests the cursor
/// generation's missing chunks after `timeout` of silence, backing off,
/// until max_retries rounds in a row make no progress.
///
/// A NACK stream with parity also decides from evidence, not only from the
/// timer: its first silence wait starts when the first frame is due (this
/// rank's learned distance to the root after entry), and once the stream's
/// final slot has arrived a still-blocked cursor requests its gap at once.
///
/// Charging: a frame pays its receive overhead when it advances the
/// cursor — it is the chunk the cursor waits for, or, in a stream with
/// parity, any new data or parity row of the cursor's generation (the
/// decode can use it).  Any other frame is stashed unpaid and pays when
/// its generation becomes current or the cursor reaches it.
///
/// With parity, the moment the generation's consumed + stashed + parity
/// rows reach its size the missing chunks are rebuilt and delivered
/// in-window.  A decode is a pure function of the delivered-chunk set, so
/// the output is bit-identical however parity races feedback recovery.
void recv_stream(Proc& p, const Comm& comm, int root, StreamPreset preset,
                 StreamState& st, const ChunkSink& sink) {
  const StreamConfig& cfg = st.presets[slot(preset)].config;
  const bool nack = cfg.feedback == Feedback::kNack;
  sim::SchedCounters& counters = p.self().shard().counters();
  mpi::McastChannel& ch = p.mcast_channel(comm);
  auto& stash = st.stash;
  const auto pay = [&p](std::size_t bytes) {
    p.self().delay(p.costs().recv_overhead(static_cast<std::int64_t>(bytes),
                                           mpi::CostTier::kMcastData));
  };

  // The channel's sequence at entry is this operation's base; a frame
  // whose own base is later belongs to a later operation.
  const std::uint64_t op_base = ch.expected_seq();
  bool known = false;
  ChunkHeader geo;  // the operation's geometry, from its first header
  const auto frame_base = [](const ChunkHeader& h) {
    return h.seq - op_offset(h);
  };
  // Stream frames an earlier receive held on the channel join the stash,
  // unpaid, as if this call had read them ahead.
  for (auto& [seq, data] : ch.take_all_held()) {
    if (const auto h = stream_header(data)) {
      stash.try_emplace(seq, Stashed{*h, data.slice(kFrameBytes), false});
    }
  }
  stash.erase(stash.begin(), stash.lower_bound(op_base));
  // Segment-local repair: a repairer keeps the data frames of this stream
  // that it takes off the wire or rebuilds, as they are (zero-copy), for
  // its sink to re-multicast, and drops the previous stream's.
  RepairState* repair = nullptr;
  if (nack) {
    install_sink(p, comm, st);
    repair = repair_state(p, comm);
  }
  if (repair != nullptr) {
    repair->held.clear();
    repair->forwarded.clear();
  }
  const Chain chain = chain_of(comm, repair, root);
  const auto hold = [&](std::uint64_t seq, PayloadRef frame) {
    auto& held = repair->held;
    held.try_emplace(seq, Retained{std::move(frame), std::nullopt});
    if (held.size() > cfg.history_frames) {
      held.erase(held.begin());
    }
  };
  // A frame stashed before entry may already teach the geometry.
  for (const auto& [seq, e] : stash) {
    if (frame_base(e.h) == op_base) {
      geo = e.h;
      known = true;
      break;
    }
  }

  // The cursor's generation (streams with parity).
  struct GenState {
    std::int64_t gen = -1;
    std::uint64_t base = 0;  // sequence of the generation's row 0
    std::vector<PayloadRef> rows;  // consumed rows, by position
    std::vector<std::pair<int, PayloadRef>> parity;  // (row, bytes)
  };
  GenState gs;
  const auto rows_of = [&](std::uint32_t g) {
    return gen_rows(geo.count, geo.k, g);
  };
  // Moves the generation state to the cursor's generation: skips the
  // previous generation's parity slots (parity is fire-and-forget, so
  // waiting on them could deadlock) and pays for the stashed frames that
  // now advance the current generation.
  const auto enter_gen = [&](std::uint32_t i) {
    const std::uint32_t g = i / geo.k;
    if (gs.gen == static_cast<std::int64_t>(g)) {
      return;
    }
    if (gs.gen >= 0) {
      for (int s = 0; s < geo.r; ++s) {
        ch.advance_seq();
      }
    }
    gs.gen = g;
    gs.base = ch.expected_seq();
    gs.rows.assign(geo.k, PayloadRef{});
    gs.parity.clear();
    const std::uint64_t end = gs.base + rows_of(g) + geo.r;
    for (auto it = stash.lower_bound(gs.base);
         it != stash.end() && it->first < end;) {
      Stashed& e = it->second;
      if (!e.charged) {
        pay(kChunkHeaderBytes + e.h.length);
        e.charged = true;
      }
      if (e.h.parity()) {
        gs.parity.emplace_back(e.h.row(), std::move(e.body));
        it = stash.erase(it);
      } else {
        ++it;
      }
    }
  };
  // Whether a frame arriving while the cursor waits on chunk i advances
  // the cursor (see the charging rule above).  Evaluated in the socket wake
  // and again on processing, against the same state.
  const auto advances = [&](const ChunkHeader& h, std::uint32_t i) {
    const std::uint64_t expected = ch.expected_seq();
    if (h.r == 0 || h.seq == expected) {
      return h.seq == expected;
    }
    if (h.seq < expected || frame_base(h) != op_base) {
      return false;
    }
    const std::uint32_t g = i / h.k;
    if (h.parity()) {
      const bool held = std::any_of(
          gs.parity.begin(), gs.parity.end(),
          [&h](const auto& e) { return e.first == h.row(); });
      return h.gen == g && !(gs.gen == static_cast<std::int64_t>(g) && held);
    }
    return h.index / h.k == g && !stash.contains(h.seq);
  };

  const auto consume = [&](const ChunkHeader& h, PayloadRef body,
                           std::uint32_t i) {
    MC_ASSERT_MSG(h.context == comm.context(), "context mismatch");
    MC_ASSERT_MSG(h.root_world == comm.world_rank_of(root),
                  "stream root mismatch");
    MC_ASSERT_MSG(h.index == i, "chunk index out of stream order");
    MC_ASSERT_MSG(h.count >= 1 && h.index < h.count, "bad chunk count");
    MC_ASSERT_MSG(body.size() == h.length, "chunk length mismatch");
    MC_ASSERT_MSG(h.count == geo.count && h.total == geo.total,
                  "stream geometry changed mid-stream");
    if (geo.r > 0) {
      gs.rows[i % geo.k] = body;
    }
    sink(h.offset(), h.total, std::move(body));
    ch.advance_seq();
    if (!nack) {
      // Per-chunk ack over the raw path (the ORNL discipline, per chunk).
      Buffer ack;
      ByteWriter w(ack);
      w.u32(h.index);
      p.send(comm, root, mpi::kTagChunkAck, ack, net::FrameKind::kControl,
             mpi::CostTier::kRaw);
    }
  };

  // Erasure recovery: when the chunk the cursor waits on is missing but
  // the generation's consumed + stashed + parity rows reach its size,
  // rebuild every missing row — the cursor's chunk is delivered at once,
  // later ones are planted in the stash under their original sequences.
  const auto try_reconstruct = [&](std::uint32_t i) {
    if (gs.parity.empty()) {
      return false;
    }
    const std::uint32_t g = i / geo.k;
    const std::uint32_t pos = i % geo.k;
    const std::uint32_t rows = rows_of(g);
    std::vector<std::span<const std::uint8_t>> dspans(rows);
    std::vector<int> missing;
    for (std::uint32_t q = 0; q < rows; ++q) {
      if (q < pos) {
        dspans[q] = gs.rows[q].view();
      } else if (const auto it = stash.find(gs.base + q); it != stash.end()) {
        dspans[q] = it->second.body.view();
      } else {
        missing.push_back(static_cast<int>(q));
      }
    }
    if (missing.empty() || gs.parity.size() < missing.size()) {
      return false;  // cursor chunk stashed, or not enough survivors yet
    }
    // Ascending row order keeps the decode a pure function of the
    // delivered-chunk SET, not of arrival order.
    std::sort(gs.parity.begin(), gs.parity.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<gf256::ParityRow> prows;
    std::vector<ChunkHeader> hs(missing.size(), geo);
    std::vector<Buffer> rebuilt(missing.size());
    // A repairer decodes straight into framed buffers its sink can
    // re-multicast as they are.
    std::vector<PooledBuffer> framed(chain.repairer ? missing.size() : 0);
    std::vector<std::span<std::uint8_t>> outs(missing.size());
    for (std::size_t t = 0; t < missing.size(); ++t) {
      prows.push_back({gs.parity[t].first, gs.parity[t].second.view()});
      ChunkHeader& hh = hs[t];
      const auto q = static_cast<std::uint32_t>(missing[t]);
      hh.seq = gs.base + q;
      hh.index = g * geo.k + q;
      hh.gen = g;
      hh.length = static_cast<std::uint32_t>(
          std::min<std::size_t>(geo.chunk, geo.total - hh.offset()));
      if (chain.repairer) {
        framed[t] = acquire_payload_buffer(kFrameBytes + hh.length);
        ByteWriter w(framed[t].bytes);
        write_header(w, hh);
        framed[t].bytes.resize(kFrameBytes + hh.length);
        outs[t] = std::span(framed[t].bytes).subspan(kFrameBytes);
      } else {
        rebuilt[t].resize(hh.length);
        outs[t] = rebuilt[t];
      }
    }
    if (geo.total > 0) {  // an empty stream's lone row needs no decode
      gf256::decode(dspans, prows, missing, outs);
      ++counters.fec_decodes;
      counters.parity_used += missing.size();
    }
    for (std::size_t t = 0; t < missing.size(); ++t) {
      PayloadRef body;
      if (chain.repairer) {
        PayloadRef frame = PayloadRef::adopt(std::move(framed[t]));
        body = frame.slice(kFrameBytes);
        hold(hs[t].seq, std::move(frame));
      } else {
        body = PayloadRef{std::move(rebuilt[t])};
      }
      if (static_cast<std::uint32_t>(missing[t]) == pos) {
        consume(hs[t], std::move(body), i);
      } else {
        stash.try_emplace(hs[t].seq, Stashed{hs[t], std::move(body), true});
      }
    }
    return static_cast<std::uint32_t>(missing.front()) == pos;
  };

  const SimTime start = p.self().now();
  SimTime timeout = cfg.timeout;
  int retries = 0;
  // Distance-scaled first deadline (SRM's request timer): with parity a
  // lone lost frame is rebuilt from later ones, so silence before the
  // first frame is evidence of distance, not of loss.  The estimate is an
  // EWMA with gain 1/8 (RFC 6298's SRTT constant), seeded by its first
  // sample; a frame stashed before entry samples 0.  Without parity a lost
  // whole-payload datagram is total silence, and the early NACK is what
  // recovers it, so those presets keep the plain timer.
  const bool distance_scaled = nack && cfg.overhead > 0.0;
  SimTime first_due = start;
  if (const auto it = st.first_frame_distance.find(root);
      distance_scaled && it != st.first_frame_distance.end()) {
    first_due += it->second;
  }
  const auto learn_distance = [&](SimTime heard) {
    const SimTime sample = heard - start;
    const auto [it, fresh] = st.first_frame_distance.try_emplace(root, sample);
    if (!fresh) {
      it->second += (sample - it->second) / 8;
    }
  };
  if (distance_scaled && known) {
    learn_distance(start);
  }
  // Gap NACK: once the stream's final slot (its last generation's last
  // parity frame, or its last data row when r = 0) has arrived, whatever
  // the cursor still lacks is lost, not late.  Once per stream.
  bool gap_nacked = false;
  const auto tail_heard = [&] {
    const std::uint32_t g = (geo.count - 1) / geo.k;
    const std::uint64_t last = op_base + std::uint64_t{g} * (geo.k + geo.r) +
                               rows_of(g) + geo.r - 1;
    if (stash.contains(last)) {
      return true;
    }
    return geo.r > 0 && gs.gen == static_cast<std::int64_t>(g) &&
           std::any_of(gs.parity.begin(), gs.parity.end(),
                       [&](const auto& e) { return e.first == geo.r - 1; });
  };
  // NACK round for the cursor's chunk and, once the geometry is known,
  // every other missing data row of its generation.
  const auto request_missing = [&](std::uint32_t i) {
    const std::uint64_t expected = ch.expected_seq();
    if (cfg.max_retries > 0 && retries >= cfg.max_retries) {
      std::ostringstream os;
      os << to_string(preset) << ": rank " << comm.rank()
         << " gave up on chunk " << i << " (seq " << expected
         << ") from root " << root << " after " << retries
         << " NACK rounds over "
         << to_microseconds(p.self().now() - start)
         << " us — the root is unreachable or loss exceeds what NACK "
            "recovery can absorb; raise max_retries, timeout_cap or "
            "history_frames";
      throw std::runtime_error(os.str());
    }
    ++retries;
    ++st.stats.nacks_sent;
    ++counters.nacks_sent;
    if (cfg.overhead > 0.0) {
      ++counters.fec_fallbacks;
    }
    std::vector<std::uint64_t> want = {expected};
    if (known) {
      const std::uint32_t pos = i % geo.k;
      const std::uint32_t rows = rows_of(i / geo.k);
      for (std::uint32_t q = pos + 1; q < rows; ++q) {
        if (!stash.contains(expected + (q - pos))) {
          want.push_back(expected + (q - pos));
        }
      }
    }
    p.send(comm, chain.nack_to, mpi::kTagChunkNack,
           nack_message(static_cast<int>(preset),
                        chain.nack_to == root ? -1 : root, want),
           net::FrameKind::kControl, mpi::CostTier::kRaw);
    const auto scaled = static_cast<std::int64_t>(
        static_cast<double>(timeout.count()) * cfg.backoff);
    timeout = std::min(SimTime{scaled}, cfg.timeout_cap);
  };

  for (std::uint32_t i = 0; i < (known ? geo.count : 1); ++i) {
    for (;;) {
      if (known && geo.r > 0) {
        enter_gen(i);
      }
      stash.erase(stash.begin(), stash.lower_bound(ch.expected_seq()));
      if (const auto it = stash.find(ch.expected_seq()); it != stash.end()) {
        Stashed e = std::move(it->second);
        stash.erase(it);
        if (!e.charged) {
          pay(kChunkHeaderBytes + e.h.length);
        }
        consume(e.h, std::move(e.body), i);
        break;
      }
      if (known && geo.r > 0 && try_reconstruct(i)) {
        break;
      }
      if (nack && known && !gap_nacked && tail_heard()) {
        gap_nacked = true;
        request_missing(i);
      }
      const auto price = [&](const inet::UdpDatagram& dg) -> SimTime {
        const auto h = stream_header(dg.data);
        if (!h || !advances(*h, i)) {
          return kTimeZero;  // stale, duplicate, or not yet useful: unpaid
        }
        return p.costs().recv_overhead(
            static_cast<std::int64_t>(dg.data.size() - kMcastFrameHeaderBytes),
            mpi::CostTier::kMcastData);
      };
      // Only NACK receivers time out; ACK receivers wait for the root.  The
      // first silence wait of a distance-scaled stream starts no earlier
      // than the first frame is due.
      SimTime deadline = kTimeInfinity;
      if (nack) {
        const bool first_wait = distance_scaled && !known && retries == 0;
        deadline = (first_wait ? std::max(p.self().now(), first_due)
                               : p.self().now()) +
                   timeout;
      }
      const auto got =
          ch.socket().recv_until_charged(p.self(), deadline, price);
      if (!got.has_value()) {
        request_missing(i);
        continue;
      }
      const SimTime heard = p.self().now();
      const auto header = stream_header(got->datagram.data);
      if (!header) {
        continue;  // foreign traffic on the channel
      }
      const ChunkHeader& h = *header;
      const bool useful = advances(h, i);
      // Any frame of the cursor's generation (its data rows, then its
      // parity slots) — even a duplicate another receiver's NACK provoked —
      // shows the root serving it: reset the recovery clock.  Only progress
      // resets the retry count.
      if (useful ||
          (gs.gen >= 0 && h.seq >= gs.base &&
           h.seq < gs.base + geo.r +
                       rows_of(static_cast<std::uint32_t>(gs.gen)))) {
        timeout = cfg.timeout;
      }
      if (h.seq < ch.expected_seq()) {
        continue;  // stale duplicate (a retransmission of a consumed chunk)
      }
      PayloadRef body = got->datagram.data.slice(kFrameBytes);
      if (useful) {
        if (!got->charge_absorbed) {
          pay(got->datagram.data.size() - kMcastFrameHeaderBytes);
        }
        retries = 0;
      }
      const std::uint64_t base = frame_base(h);
      if (base < op_base) {
        continue;  // not a frame of this or a later stream
      }
      if (base > op_base) {
        stash.try_emplace(h.seq, Stashed{h, std::move(body), false});
        continue;  // a later operation's frame
      }
      if (!known) {
        if (distance_scaled) {
          learn_distance(heard);
        }
        geo = h;
        known = true;
        if (geo.r > 0) {
          enter_gen(i);
        }
      }
      if (h.parity()) {
        if (useful) {
          gs.parity.emplace_back(h.row(), std::move(body));
        } else if (static_cast<std::int64_t>(h.gen) != gs.gen) {
          stash.try_emplace(h.seq, Stashed{h, std::move(body), false});
        }
        continue;
      }
      if (chain.repairer) {
        hold(h.seq, got->datagram.data);
      }
      if (h.seq > ch.expected_seq()) {
        stash.try_emplace(h.seq, Stashed{h, std::move(body), useful});
        continue;
      }
      consume(h, std::move(body), i);
      break;
    }
  }
  // The cursor never crosses the final generation's parity slots; skip
  // them so the sequence matches the root for the next stream.
  for (int s = 0; s < geo.r; ++s) {
    ch.advance_seq();
  }
}

/// Readiness: every rank creates its channel (joins the group), then — for
/// scout readiness — announces it with the binomial scout gather toward
/// the stream root, so no chunk can beat a join.
void get_ready(Proc& p, const Comm& comm, int root, const StreamConfig& cfg) {
  (void)p.mcast_channel(comm);
  if (cfg.readiness == Readiness::kScout) {
    scout_gather_binary(p, comm, root);
  }
}

/// One stream from `root`: every rank gets ready, then the root sends
/// `stream` and every other rank delivers it chunk by chunk to `sink`.
void run_stream(Proc& p, const Comm& comm, int root,
                std::span<const std::span<const std::uint8_t>> stream,
                StreamPreset preset, const ChunkSink& sink) {
  StreamState& st = state_of(p, comm);
  get_ready(p, comm, root, st.presets[slot(preset)].config);
  if (comm.rank() == root) {
    send_stream(p, comm, root, stream, preset, st);
  } else {
    recv_stream(p, comm, root, preset, st, sink);
  }
}

/// A sink writing every chunk into its place in `out`, sized on the first.
ChunkSink fill(Buffer& out) {
  return [&out](std::size_t offset, std::size_t total, PayloadRef body) {
    if (offset == 0) {  // chunk 0 is always delivered first
      out.resize(total);
    }
    // The delivery copy: straight into the chunk's final place in the
    // output — no reassembly staging buffer.
    body.copy_to(std::span(out).subspan(offset, body.size()));
  };
}

}  // namespace

const char* to_string(StreamPreset preset) {
  constexpr const char* kNames[kStreamPresets] = {
      "ack-mcast", "nack-mcast", "fec-mcast", "mcast-segmented"};
  return kNames[slot(preset)];
}

StreamConfig preset_config(StreamPreset preset) {
  StreamConfig c;  // the defaults are fec-mcast's
  switch (preset) {
    case StreamPreset::kAck:
      c.k = 1;
      c.feedback = Feedback::kAck;
      c.overhead = 0.0;
      c.timeout = milliseconds(5);
      c.backoff = 1.0;
      c.timeout_cap = milliseconds(200);
      c.max_retries = 0;
      c.history_frames = 64;
      break;
    case StreamPreset::kNack:
      c.k = 1;
      c.overhead = 0.0;
      c.history_frames = 64;
      break;
    case StreamPreset::kFec:
      break;
    case StreamPreset::kSegmented:
      c.chunk_bytes = 64 * 1024;
      c.k = 4;
      c.feedback = Feedback::kAck;
      c.readiness = Readiness::kScout;
      c.overhead = 0.0;
      c.timeout = milliseconds(50);
      c.backoff = 1.0;
      c.timeout_cap = milliseconds(800);
      c.max_retries = 0;
      break;
  }
  return c;
}

void set_stream_config(Proc& p, const Comm& comm, StreamPreset preset,
                       const StreamConfig& config) {
  const auto require = [preset](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string(to_string(preset)) + ": " +
                                  what);
    }
  };
  require(config.k >= 1 && config.k <= 0xFFFF, "k must be in [1, 65535]");
  require(config.overhead >= 0.0 && config.overhead <= 2.0,
          "overhead must be in [0, 2]");
  require(config.overhead == 0.0 || config.k <= 255,
          "parity needs k <= 255 (generation + parity must fit GF(256))");
  require(config.timeout > kTimeZero, "timeout must be > 0");
  require(config.backoff >= 1.0, "backoff must be >= 1");
  require(config.timeout_cap >= config.timeout,
          "timeout_cap must be >= timeout");
  require(config.max_retries >= 0, "max_retries must be >= 0");
  require(config.aggregation_window >= kTimeZero,
          "aggregation_window must be >= 0");
  require(config.history_frames >= 1, "history_frames must be >= 1");
  state_of(p, comm).presets[slot(preset)].config = config;
}

const StreamConfig& stream_config(Proc& p, const Comm& comm,
                                  StreamPreset preset) {
  return state_of(p, comm).presets[slot(preset)].config;
}

const StreamStats& stream_stats(Proc& p, const Comm& comm) {
  return state_of(p, comm).stats;
}

StreamPlan stream_plan(std::size_t total, const StreamConfig& config,
                       std::size_t rcvbuf_bytes) {
  const int r = parity_rows(config.k, config.overhead);
  StreamPlan plan;
  plan.chunk_bytes = plan_chunk(total, config, r, rcvbuf_bytes);
  const std::uint32_t n = chunk_count(total, plan.chunk_bytes);
  plan.n_data = static_cast<int>(n);
  const auto k = static_cast<std::uint32_t>(config.k);
  plan.windows = static_cast<int>((n + k - 1) / k);
  plan.wire_bytes = total + static_cast<std::size_t>(n) * kFrameBytes +
                    static_cast<std::size_t>(plan.windows) *
                        static_cast<std::size_t>(r) *
                        (plan.chunk_bytes + kFrameBytes);
  return plan;
}

void bcast_stream(Proc& p, const Comm& comm, Buffer& buffer, int root,
                  StreamPreset preset) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  const std::span<const std::uint8_t> stream[] = {buffer};
  run_stream(p, comm, root, stream, preset, fill(buffer));
}

std::vector<Buffer> allgather_stream(Proc& p, const Comm& comm,
                                     std::span<const std::uint8_t> data,
                                     StreamPreset preset) {
  const int size = comm.size();
  std::vector<Buffer> blocks(static_cast<std::size_t>(size));
  blocks[static_cast<std::size_t>(comm.rank())].assign(data.begin(),
                                                       data.end());
  if (size == 1) {
    return blocks;
  }
  // N rounds in rank order, each a complete stream: with ack feedback and
  // scout readiness, round r+1's scouts cannot precede round r's final
  // acks, so rounds never overrun a lagging receiver.
  const std::span<const std::uint8_t> stream[] = {data};
  for (int r = 0; r < size; ++r) {
    run_stream(p, comm, r, stream, preset,
               fill(blocks[static_cast<std::size_t>(r)]));
  }
  return blocks;
}

Buffer scatter_stream(Proc& p, const Comm& comm,
                      const std::vector<Buffer>& chunks, int root,
                      StreamPreset preset) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  const int size = comm.size();
  if (size == 1) {
    MC_EXPECTS(chunks.size() == 1);
    return chunks[0];
  }
  const std::size_t table_bytes = scatter_table_bytes(size);

  if (comm.rank() == root) {
    MC_EXPECTS_MSG(chunks.size() == static_cast<std::size_t>(size),
                   "scatter needs comm.size() chunks at the root");
    Buffer table;
    ByteWriter w(table);
    w.u32(static_cast<std::uint32_t>(size));
    std::vector<std::span<const std::uint8_t>> stream(1);  // the table's slot
    std::size_t total = table_bytes;
    for (const Buffer& b : chunks) {
      w.u64(b.size());
      total += b.size();
      stream.push_back(b);
    }
    stream[0] = table;
    // Receivers locate their range from the table, so it must land whole
    // in the first chunk of the stream.
    const std::size_t chunk =
        stream_plan(total, stream_config(p, comm, preset),
                    p.mcast_recv_buffer())
            .chunk_bytes;
    MC_EXPECTS_MSG(chunk >= table.size(),
                   "chunk size below the scatter table — raise chunk_bytes");
    run_stream(p, comm, root, stream, preset, {});
    return chunks[static_cast<std::size_t>(root)];
  }

  Buffer table(table_bytes);
  Buffer own;
  bool located = false;
  std::size_t my_begin = 0;
  std::size_t my_end = 0;
  run_stream(p, comm, root, {}, preset, [&](std::size_t offset,
                                            std::size_t total,
                                            PayloadRef body) {
    const std::size_t length = body.size();
    if (offset < table_bytes) {
      const std::size_t n = std::min(table_bytes - offset, length);
      body.slice(0, n).copy_to(std::span(table).subspan(offset, n));
    }
    if (!located) {
      // The root guarantees the table fits chunk 0 (asserted above), so
      // the first delivery locates this rank's range.
      MC_ASSERT_MSG(offset + length >= table_bytes,
                    "first chunk did not cover the scatter table");
      ByteReader r(table);
      MC_ASSERT(r.u32() == static_cast<std::uint32_t>(size));
      std::size_t off = table_bytes;
      for (int i = 0; i < size; ++i) {
        const std::size_t len = static_cast<std::size_t>(r.u64());
        if (i == comm.rank()) {
          my_begin = off;
          my_end = off + len;
        }
        off += len;
      }
      MC_ASSERT_MSG(off == total, "scatter table does not match the stream");
      own.resize(my_end - my_begin);
      located = true;
    }
    // Keep only the overlap with this rank's block — everything else of
    // the shared stream is discarded without a copy.
    const std::size_t lo = std::max(offset, my_begin);
    const std::size_t hi = std::min(offset + length, my_end);
    if (lo < hi) {
      body.slice(lo - offset, hi - lo)
          .copy_to(std::span(own).subspan(lo - my_begin, hi - lo));
    }
  });
  return own;
}

}  // namespace mcmpi::coll
