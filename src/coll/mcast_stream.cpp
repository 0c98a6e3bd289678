#include "coll/mcast_stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
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
#include "sim/simulator.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

constexpr int kMaxLanes = mpi::CommInfo::kMaxMcastLanes;

/// Full framing of a stream datagram: the 16 B (context, root, seq)
/// multicast header followed by the 32 B chunk sub-header.
constexpr std::size_t kFrameBytes = kMcastFrameHeaderBytes + kChunkHeaderBytes;

/// Top bit of ChunkHeader::index marks a parity frame; the low bits are
/// then the parity row.  Data frames never set it (a stream is capped
/// below 2^31 chunks).
constexpr std::uint32_t kParityIndexBit = 0x80000000u;

/// Adaptive parity ratchet: the ceiling of the working overhead, the
/// recovery requests (since the root's previous operation) that raise it,
/// and the calm operations before it steps back down.
constexpr double kMaxAdaptiveOverhead = 0.5;
constexpr std::uint64_t kRaiseThreshold = 1;
constexpr int kCalmOps = 8;

/// One stream datagram's framing.  A data chunk's byte offset is
/// index × chunk; a parity frame's sequence slots follow its generation's
/// data slots on the lane.
struct ChunkHeader {
  std::uint32_t context = 0;
  std::int32_t root_world = 0;
  std::uint64_t seq = 0;      // per-lane channel sequence
  std::uint32_t index = 0;    // chunk number, or kParityIndexBit | row
  std::uint32_t count = 0;    // data chunks in the stream
  std::uint32_t chunk = 0;    // nominal chunk bytes
  std::uint32_t gen = 0;      // generation on the frame's lane
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

/// Data chunks a lane carries in a `count`-chunk stream.
std::uint32_t lane_chunks(std::uint32_t count, std::uint32_t lanes,
                          std::uint32_t lane) {
  return lane < count ? (count - lane + lanes - 1) / lanes : 0;
}

/// Data rows of generation `g` on a lane carrying `n` chunks.
std::uint32_t gen_rows(std::uint32_t n, std::uint32_t k, std::uint32_t g) {
  return std::min(k, n - g * k);
}

/// Lane-sequence distance of frame `h` (received on `lane`) from the first
/// frame of its operation on that lane: each generation occupies its data
/// rows, then its r parity slots.  h.seq minus this is the operation's
/// base sequence, so every frame names the operation it belongs to.
std::uint64_t op_offset(const ChunkHeader& h, std::uint32_t lanes,
                        std::uint32_t lane) {
  const std::uint64_t span = std::uint64_t{h.k} + h.r;
  if (!h.parity()) {
    const std::uint32_t j = h.index / lanes;
    return (j / h.k) * span + j % h.k;
  }
  return h.gen * span +
         gen_rows(lane_chunks(h.count, lanes, lane), h.k, h.gen) +
         static_cast<std::uint64_t>(h.row());
}

int parity_rows(int k, double overhead) {
  if (!(overhead > 0.0)) {
    return 0;
  }
  const auto want = static_cast<int>(std::ceil(k * overhead));
  return std::clamp(want, 1, gf256::max_parity(k));
}

/// Nominal chunk size of a `total`-byte stream carrying r parity frames
/// per generation.
std::size_t plan_chunk(std::size_t total, const StreamConfig& cfg, int r,
                       std::size_t rcvbuf_bytes) {
  const auto k = static_cast<std::size_t>(cfg.k);
  std::size_t chunk =
      cfg.chunk_bytes != 0 ? cfg.chunk_bytes : (total + k - 1) / k;
  // The framed chunk must clear the fragment-offset datagram ceiling…
  chunk = std::min(chunk, kMaxMcastDatagram - kFrameBytes);
  // …and fit the receive buffer: in ACK mode a full window of framed
  // chunks plus the generation's parity share one lane's buffer (or the
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

struct Ratchet {
  double working = -1.0;  // < 0: no adaptive operation yet
  std::uint64_t seen = 0;  // recovery requests at the previous operation
  int calm = 0;
};

using HistoryKey = std::pair<int, std::uint64_t>;  // (lane, seq)

/// What one preset keeps per communicator, so running or tuning it never
/// changes another preset: its configuration and ratchet and, root side,
/// its NACK history (oldest evicted first) and the recovery requests its
/// streams provoked (NACKs, ack timeouts) — the ratchet's only evidence.
struct PresetState {
  StreamConfig config;
  Ratchet ratchet;
  std::map<HistoryKey, Retained> history;
  std::deque<HistoryKey> history_order;
  std::uint64_t recovery_requests = 0;
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
  // Root side, NACK mode: the sink (installed by the first NACK-mode
  // stream this rank roots) and the channels it re-multicasts on.
  bool sink_installed = false;
  std::array<mpi::McastChannel*, kMaxLanes> channels{};
  // Receiver side: frames ahead of the cursor, per lane, kept across calls
  // (a NACK-mode root may start its next stream before a receiver has
  // finished this one).
  std::array<std::map<std::uint64_t, Stashed>, kMaxLanes> stash;
};

std::size_t slot(StreamPreset p) { return static_cast<std::size_t>(p); }

StreamState& state_of(Proc& p, const Comm& comm) {
  return p.coll_state<StreamState>(comm);
}

/// The parity ratio for the next root-side encode of preset `ps`.
/// Adaptive streams double it when the preset's streams provoked recovery
/// requests at this root since its previous operation and halve it back
/// toward the floor after kCalmOps quiet ones — evidence a real host has,
/// unlike the fault plane's ledger.
double working_overhead(PresetState& ps, StreamStats& stats) {
  const StreamConfig& cfg = ps.config;
  Ratchet& rt = ps.ratchet;
  const std::uint64_t requests = ps.recovery_requests;
  if (!cfg.adaptive) {
    return cfg.overhead;
  }
  if (rt.working < 0.0) {  // the first operation only seeds the ratchet
    rt.working = cfg.overhead;
    rt.seen = requests;
    return rt.working;
  }
  const std::uint64_t delta = requests - rt.seen;
  rt.seen = requests;
  if (delta >= kRaiseThreshold) {
    const double raised = std::min(rt.working * 2.0, kMaxAdaptiveOverhead);
    if (raised > rt.working) {
      ++stats.overhead_raises;
    }
    rt.working = raised;
    rt.calm = 0;
  } else if (++rt.calm >= kCalmOps) {
    rt.working = std::max(rt.working / 2.0, cfg.overhead);
    rt.calm = 0;
  }
  return rt.working;
}

/// Root-side NACK service: kernel-level (uncharged), alive for the
/// communicator's lifetime — it serves receivers after the root has left
/// the collective, which is what lets a NACK-mode root return at once.
void install_sink(Proc& p, const Comm& comm, StreamState& st) {
  if (st.sink_installed) {
    return;
  }
  st.sink_installed = true;
  StreamState* s = &st;
  // The sink always executes on the NACK's receiving rank — this rank — so
  // the shard captured here is the one whose counters it may touch.
  sim::Shard* shard = &p.self().shard();
  p.engine().set_sink(
      comm.context(), mpi::kTagChunkNack,
      [s, shard](mpi::Rank /*src*/, PayloadRef data) {
        ByteReader r(data);
        const int preset = r.u8();
        const int lane = r.u8();
        const int wanted = r.u16();
        if (preset >= kStreamPresets) {
          return;  // not a NACK this engine sent
        }
        PresetState& ps = s->presets[static_cast<std::size_t>(preset)];
        ++ps.recovery_requests;
        for (int i = 0; i < wanted; ++i) {
          const auto it = ps.history.find({lane, r.u64()});
          if (it == ps.history.end()) {
            ++s->stats.nacks_unserved;
            continue;
          }
          // Aggregation: a re-multicast inside the window is already on
          // the wire and serves every receiver that missed the frame.
          Retained& e = it->second;
          const SimTime now = shard->now();
          if (e.last_resend &&
              now - *e.last_resend < ps.config.aggregation_window) {
            ++s->stats.nacks_suppressed;
            ++shard->counters().nacks_suppressed;
            continue;
          }
          e.last_resend = now;
          ++s->stats.nacks_served;
          ++s->stats.retransmits;
          ++shard->counters().retransmits;
          s->channels[static_cast<std::size_t>(lane)]->send(
              e.frame, net::FrameKind::kData);
        }
      });
}

void retain(PresetState& ps, const HistoryKey& key, PayloadRef frame) {
  ps.history.emplace(key, Retained{std::move(frame), std::nullopt});
  ps.history_order.push_back(key);
  while (ps.history.size() > ps.config.history_frames) {
    ps.history.erase(ps.history_order.front());
    ps.history_order.pop_front();
  }
}

/// Root side: cuts the logical stream (a concatenation of spans) into
/// chunks, stripes them over the lanes, follows every lane generation with
/// its parity, and — in ACK mode — keeps at most k chunks in flight per
/// lane while collecting per-chunk acks and retransmitting on timeout.
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
  const int r = parity_rows(cfg.k, working_overhead(ps, st.stats));
  const std::size_t chunk_bytes =
      plan_chunk(total, cfg, r, p.mcast_recv_buffer());
  const std::uint32_t n_chunks = chunk_count(total, chunk_bytes);
  MC_EXPECTS_MSG(n_chunks < kParityIndexBit, "stream has too many chunks");
  const auto lanes = static_cast<std::uint32_t>(cfg.lanes);
  const auto k = static_cast<std::uint32_t>(cfg.k);
  sim::SchedCounters& counters = p.self().shard().counters();
  if (nack) {
    install_sink(p, comm, st);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      st.channels[lane] = &p.mcast_channel(comm, static_cast<int>(lane));
    }
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
    std::uint64_t seq = 0;  // lane sequence of the FIRST transmission
    int lane = 0;
    int acks = 0;
    bool retired = false;
  };
  std::vector<ChunkState> chunks(n_chunks);
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    chunks[i].offset = static_cast<std::size_t>(i) * chunk_bytes;
    chunks[i].length = std::min(chunk_bytes, total - chunks[i].offset);
    chunks[i].lane = static_cast<int>(i % lanes);
  }

  std::vector<int> in_flight(lanes, 0);
  std::uint32_t sent = 0;
  std::uint32_t retired_count = 0;
  std::uint64_t live = 0;  // sent, not yet retired — across all lanes
  const std::uint64_t total_acks =
      std::uint64_t{n_chunks} * static_cast<std::uint64_t>(receivers);
  std::uint64_t acks_consumed = 0;
  std::shared_ptr<mpi::RecvRequest> request;

  std::vector<std::span<const std::uint8_t>> parts;
  const auto transmit = [&](std::uint32_t i, bool first) {
    ChunkState& c = chunks[i];
    mpi::McastChannel& ch = p.mcast_channel(comm, c.lane);
    if (first) {
      c.seq = ch.expected_seq();
    }
    // A retransmission reuses the original lane sequence, so receivers
    // that already consumed the chunk skip it as a stale duplicate.
    ChunkHeader h = proto;
    h.seq = c.seq;
    h.index = i;
    h.gen = (i / lanes) / k;
    h.length = static_cast<std::uint32_t>(c.length);
    p.self().delay(p.costs().send_overhead(
        static_cast<std::int64_t>(c.length), mpi::CostTier::kMcastData));
    parts.clear();
    if (nack) {
      collect_chunk_parts(stream, c.offset, c.length, parts);
      PooledBuffer out = acquire_payload_buffer(kFrameBytes + c.length);
      ByteWriter w(out.bytes);
      write_header(w, h);
      for (const auto& part : parts) {
        w.bytes(part);
      }
      PayloadRef framed = PayloadRef::adopt(std::move(out));
      retain(ps, {c.lane, c.seq}, framed);
      ch.send(std::move(framed), net::FrameKind::kData);
    } else {
      Buffer header;
      header.reserve(kFrameBytes);
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
      ++in_flight[static_cast<std::size_t>(c.lane)];
      ++live;
      counters.chunk_peak_window = std::max(counters.chunk_peak_window, live);
    }
  };

  // After the last first transmission of a lane generation (k chunks, or
  // the lane's partial tail), multicast its r parity frames.  Parity is
  // fire-and-forget: it consumes lane sequence numbers (receivers account
  // for the slots) but is never acked, retained, or retransmitted — a lost
  // parity frame costs nothing beyond falling back to the feedback loop.
  const auto send_parity = [&](std::uint32_t i) {
    const int lane = chunks[i].lane;
    const std::uint32_t j = i / lanes;
    const std::uint32_t g = j / k;
    const std::uint32_t k0 = g * k * lanes + static_cast<std::uint32_t>(lane);
    const std::uint32_t rows = j - g * k + 1;
    const std::size_t plen = chunks[k0].length;  // the generation's longest row
    mpi::McastChannel& ch = p.mcast_channel(comm, lane);
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
        const ChunkState& c = chunks[k0 + q * lanes];
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
          --in_flight[static_cast<std::size_t>(c.lane)];
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
      ++ps.recovery_requests;
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
    // Sliding window: stall only when THIS chunk's lane is saturated; acks
    // consumed here retire earlier chunks while later ones are in flight.
    while (!nack &&
           in_flight[static_cast<std::size_t>(chunks[i].lane)] >= cfg.k) {
      consume_one_ack();
    }
    transmit(i, true);
    ++sent;
    if (r > 0 && ((i / lanes + 1) % k == 0 || i + lanes >= n_chunks)) {
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

/// Receiver side: consumes chunks 0..count-1 in index order (chunk i on
/// lane i mod lanes) and hands each to `sink`.  All geometry comes from
/// the frame headers.  ACK mode acks every consumed chunk to the root;
/// NACK mode requests the cursor generation's missing chunks after
/// `timeout` of silence, backing off, until max_retries rounds in a row
/// make no progress.
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
  const auto lanes = static_cast<std::uint32_t>(cfg.lanes);
  sim::SchedCounters& counters = p.self().shard().counters();
  const auto channel = [&](std::uint32_t lane) -> mpi::McastChannel& {
    return p.mcast_channel(comm, static_cast<int>(lane));
  };
  const auto pay = [&p](std::size_t bytes) {
    p.self().delay(p.costs().recv_overhead(static_cast<std::int64_t>(bytes),
                                           mpi::CostTier::kMcastData));
  };

  // Each lane's sequence at entry is this operation's base on that lane;
  // a frame whose own base is later belongs to a later operation.
  std::array<std::uint64_t, kMaxLanes> op_base{};
  bool known = false;
  ChunkHeader geo;  // the operation's geometry, from its first header
  const auto frame_base = [&](const ChunkHeader& h, std::uint32_t lane) {
    return h.seq - op_offset(h, lanes, lane);
  };
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    op_base[lane] = channel(lane).expected_seq();
    auto& stash = st.stash[lane];
    stash.erase(stash.begin(), stash.lower_bound(op_base[lane]));
  }
  // Only lane 0 teaches the geometry: it carries chunk 0 of every stream,
  // while a lane this stream leaves empty may already hold a later
  // stream's frames at the same base.
  for (const auto& [seq, e] : st.stash[0]) {
    if (frame_base(e.h, 0) == op_base[0]) {
      geo = e.h;
      known = true;
      break;
    }
  }

  // Per-lane state of the cursor's generation (streams with parity).
  struct GenState {
    std::int64_t gen = -1;
    std::uint64_t base = 0;  // lane sequence of the generation's row 0
    std::vector<PayloadRef> rows;  // consumed rows, by position
    std::vector<std::pair<int, PayloadRef>> parity;  // (row, bytes)
  };
  std::vector<GenState> gens(lanes);
  const auto rows_of = [&](std::uint32_t lane, std::uint32_t g) {
    return gen_rows(lane_chunks(geo.count, lanes, lane), geo.k, g);
  };
  // Moves the lane's generation state to the cursor's generation: skips
  // the previous generation's parity slots (parity is fire-and-forget, so
  // waiting on them could deadlock) and pays for the stashed frames that
  // now advance the current generation.
  const auto enter_gen = [&](std::uint32_t i) {
    const std::uint32_t lane = i % lanes;
    const std::uint32_t g = (i / lanes) / geo.k;
    GenState& gs = gens[lane];
    if (gs.gen == static_cast<std::int64_t>(g)) {
      return;
    }
    mpi::McastChannel& ch = channel(lane);
    if (gs.gen >= 0) {
      for (int s = 0; s < geo.r; ++s) {
        ch.advance_seq();
      }
    }
    gs.gen = g;
    gs.base = ch.expected_seq();
    gs.rows.assign(geo.k, PayloadRef{});
    gs.parity.clear();
    auto& stash = st.stash[lane];
    const std::uint64_t end = gs.base + rows_of(lane, g) + geo.r;
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
  // Whether a frame arriving on `lane` while the cursor waits on chunk i
  // advances the cursor (see the charging rule above).  Evaluated in the
  // socket wake and again on processing, against the same state.
  const auto advances = [&](const ChunkHeader& h, std::uint32_t lane,
                            std::uint32_t i) {
    const std::uint64_t expected = channel(lane).expected_seq();
    if (h.r == 0 || h.seq == expected) {
      return h.seq == expected;
    }
    if (h.seq < expected || frame_base(h, lane) != op_base[lane]) {
      return false;
    }
    const std::uint32_t g = (i / lanes) / h.k;
    if (h.parity()) {
      const GenState& gs = gens[lane];
      const bool held = std::any_of(
          gs.parity.begin(), gs.parity.end(),
          [&h](const auto& e) { return e.first == h.row(); });
      return h.gen == g && !(gs.gen == static_cast<std::int64_t>(g) && held);
    }
    return (h.index / lanes) / h.k == g && !st.stash[lane].contains(h.seq);
  };

  const auto consume = [&](const ChunkHeader& h, PayloadRef body,
                           mpi::McastChannel& ch, std::uint32_t i) {
    MC_ASSERT_MSG(h.context == comm.context(), "context mismatch");
    MC_ASSERT_MSG(h.root_world == comm.world_rank_of(root),
                  "stream root mismatch");
    MC_ASSERT_MSG(h.index == i, "chunk index out of stream order");
    MC_ASSERT_MSG(h.count >= 1 && h.index < h.count, "bad chunk count");
    MC_ASSERT_MSG(body.size() == h.length, "chunk length mismatch");
    MC_ASSERT_MSG(h.count == geo.count && h.total == geo.total,
                  "stream geometry changed mid-stream");
    if (geo.r > 0) {
      gens[i % lanes].rows[(i / lanes) % geo.k] = body;
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
  const auto try_reconstruct = [&](std::uint32_t i, mpi::McastChannel& ch) {
    const std::uint32_t lane = i % lanes;
    GenState& gs = gens[lane];
    if (gs.parity.empty()) {
      return false;
    }
    auto& stash = st.stash[lane];
    const std::uint32_t g = (i / lanes) / geo.k;
    const std::uint32_t pos = (i / lanes) % geo.k;
    const std::uint32_t rows = rows_of(lane, g);
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
    std::vector<std::span<std::uint8_t>> outs(missing.size());
    for (std::size_t t = 0; t < missing.size(); ++t) {
      prows.push_back({gs.parity[t].first, gs.parity[t].second.view()});
      ChunkHeader& hh = hs[t];
      const auto q = static_cast<std::uint32_t>(missing[t]);
      hh.seq = gs.base + q;
      hh.index = (g * geo.k + q) * lanes + lane;
      hh.gen = g;
      hh.length = static_cast<std::uint32_t>(
          std::min<std::size_t>(geo.chunk, geo.total - hh.offset()));
      rebuilt[t].resize(hh.length);
      outs[t] = rebuilt[t];
    }
    if (geo.total > 0) {  // an empty stream's lone row needs no decode
      gf256::decode(dspans, prows, missing, outs);
      ++counters.fec_decodes;
      counters.parity_used += missing.size();
    }
    for (std::size_t t = 0; t < missing.size(); ++t) {
      PayloadRef body{std::move(rebuilt[t])};
      if (static_cast<std::uint32_t>(missing[t]) == pos) {
        consume(hs[t], std::move(body), ch, i);
      } else {
        stash.try_emplace(hs[t].seq, Stashed{hs[t], std::move(body), true});
      }
    }
    return static_cast<std::uint32_t>(missing.front()) == pos;
  };

  const SimTime start = p.self().now();
  SimTime timeout = cfg.timeout;
  int retries = 0;
  // NACK round for the cursor's chunk and, once the geometry is known,
  // every other missing data row of its generation.
  const auto request_missing = [&](std::uint32_t i, mpi::McastChannel& ch) {
    const std::uint32_t lane = i % lanes;
    const std::uint64_t expected = ch.expected_seq();
    if (cfg.max_retries > 0 && retries >= cfg.max_retries) {
      std::ostringstream os;
      os << to_string(preset) << ": rank " << comm.rank()
         << " gave up on chunk " << i << " (lane " << lane << ", seq "
         << expected << ") from root " << root << " after " << retries
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
      const std::uint32_t pos = (i / lanes) % geo.k;
      const std::uint32_t rows = rows_of(lane, (i / lanes) / geo.k);
      for (std::uint32_t q = pos + 1; q < rows; ++q) {
        if (!st.stash[lane].contains(expected + (q - pos))) {
          want.push_back(expected + (q - pos));
        }
      }
    }
    Buffer nack_msg;
    ByteWriter w(nack_msg);
    w.u8(static_cast<std::uint8_t>(preset));  // whose history serves it
    w.u8(static_cast<std::uint8_t>(lane));
    w.u16(static_cast<std::uint16_t>(want.size()));
    for (const std::uint64_t seq : want) {
      w.u64(seq);
    }
    p.send(comm, root, mpi::kTagChunkNack, nack_msg, net::FrameKind::kControl,
           mpi::CostTier::kRaw);
    const auto scaled = static_cast<std::int64_t>(
        static_cast<double>(timeout.count()) * cfg.backoff);
    timeout = std::min(SimTime{scaled}, cfg.timeout_cap);
  };

  for (std::uint32_t i = 0; i < (known ? geo.count : 1); ++i) {
    const std::uint32_t lane = i % lanes;
    mpi::McastChannel& ch = channel(lane);
    auto& stash = st.stash[lane];
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
        consume(e.h, std::move(e.body), ch, i);
        break;
      }
      if (known && geo.r > 0 && try_reconstruct(i, ch)) {
        break;
      }
      const auto price = [&](const inet::UdpDatagram& dg) -> SimTime {
        const auto h = stream_header(dg.data);
        if (!h || !advances(*h, lane, i)) {
          return kTimeZero;  // stale, duplicate, or not yet useful: unpaid
        }
        return p.costs().recv_overhead(
            static_cast<std::int64_t>(dg.data.size() - kMcastFrameHeaderBytes),
            mpi::CostTier::kMcastData);
      };
      // Only NACK receivers time out; ACK receivers wait for the root.
      const auto got = ch.socket().recv_until_charged(
          p.self(), nack ? p.self().now() + timeout : kTimeInfinity, price);
      if (!got.has_value()) {
        request_missing(i, ch);
        continue;
      }
      const auto header = stream_header(got->datagram.data);
      if (!header) {
        continue;  // foreign traffic on the channel
      }
      const ChunkHeader& h = *header;
      const bool useful = advances(h, lane, i);
      // Any frame of the cursor's generation (its data rows, then its
      // parity slots) — even a duplicate another receiver's NACK provoked —
      // shows the root serving it: reset the recovery clock.  Only progress
      // resets the retry count.
      const GenState& gs = gens[lane];
      if (useful ||
          (gs.gen >= 0 && h.seq >= gs.base &&
           h.seq < gs.base + geo.r +
                       rows_of(lane, static_cast<std::uint32_t>(gs.gen)))) {
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
      const std::uint64_t base = frame_base(h, lane);
      if (base < op_base[lane]) {
        continue;  // not a frame of this or a later stream
      }
      if (base > op_base[lane]) {
        stash.try_emplace(h.seq, Stashed{h, std::move(body), false});
        continue;  // a later operation's frame
      }
      if (!known) {
        geo = h;
        known = true;
        if (geo.r > 0) {
          enter_gen(i);
        }
      }
      if (h.parity()) {
        if (useful) {
          gens[lane].parity.emplace_back(h.row(), std::move(body));
        } else if (static_cast<std::int64_t>(h.gen) != gens[lane].gen) {
          stash.try_emplace(h.seq, Stashed{h, std::move(body), false});
        }
        continue;
      }
      if (h.seq > ch.expected_seq()) {
        stash.try_emplace(h.seq, Stashed{h, std::move(body), useful});
        continue;
      }
      consume(h, std::move(body), ch, i);
      break;
    }
  }
  // The cursor never crosses the final generation's parity slots; skip
  // them so every lane's sequence matches the root for the next stream.
  for (std::uint32_t lane = 0; lane < lanes && lane < geo.count; ++lane) {
    for (int s = 0; s < geo.r; ++s) {
      channel(lane).advance_seq();
    }
  }
}

/// Readiness: every rank creates ALL lane channels (joins every group it
/// may hear), then — for scout readiness — announces it with the binomial
/// scout gather toward the stream root, so no chunk can beat a join.
void get_ready(Proc& p, const Comm& comm, int root, const StreamConfig& cfg) {
  for (int lane = 0; lane < cfg.lanes; ++lane) {
    (void)p.mcast_channel(comm, lane);
  }
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
  require(config.lanes >= 1 && config.lanes <= kMaxLanes,
          "lanes out of range");
  require(config.overhead >= 0.0 && config.overhead <= 2.0,
          "overhead must be in [0, 2]");
  require(config.overhead == 0.0 || config.k <= 255,
          "parity needs k <= 255 (generation + parity must fit GF(256))");
  require(!config.adaptive || (config.overhead > 0.0 &&
                               config.overhead <= kMaxAdaptiveOverhead),
          "adaptive parity needs overhead in (0, 0.5]");
  require(config.timeout > kTimeZero, "timeout must be > 0");
  require(config.backoff >= 1.0, "backoff must be >= 1");
  require(config.timeout_cap >= config.timeout,
          "timeout_cap must be >= timeout");
  require(config.max_retries >= 0, "max_retries must be >= 0");
  require(config.aggregation_window >= kTimeZero,
          "aggregation_window must be >= 0");
  require(config.history_frames >= 1, "history_frames must be >= 1");
  PresetState& ps = state_of(p, comm).presets[slot(preset)];
  ps.config = config;
  ps.ratchet = Ratchet{};  // re-seed from the new floor
}

const StreamConfig& stream_config(Proc& p, const Comm& comm,
                                  StreamPreset preset) {
  return state_of(p, comm).presets[slot(preset)].config;
}

const StreamStats& stream_stats(Proc& p, const Comm& comm) {
  return state_of(p, comm).stats;
}

double stream_working_overhead(Proc& p, const Comm& comm,
                               StreamPreset preset) {
  const PresetState& ps = state_of(p, comm).presets[slot(preset)];
  return ps.ratchet.working < 0.0 ? ps.config.overhead : ps.ratchet.working;
}

StreamPlan stream_plan(std::size_t total, const StreamConfig& config,
                       std::size_t rcvbuf_bytes) {
  const double worst = config.adaptive
                           ? std::max(config.overhead, kMaxAdaptiveOverhead)
                           : config.overhead;
  const int r = parity_rows(config.k, worst);
  StreamPlan plan;
  plan.chunk_bytes = plan_chunk(total, config, r, rcvbuf_bytes);
  const std::uint32_t n = chunk_count(total, plan.chunk_bytes);
  plan.n_data = static_cast<int>(n);
  const auto lanes = static_cast<std::uint32_t>(config.lanes);
  const auto k = static_cast<std::uint32_t>(config.k);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    plan.windows += static_cast<int>((lane_chunks(n, lanes, lane) + k - 1) / k);
  }
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
