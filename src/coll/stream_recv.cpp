// The stream engine's receive unit: the Receiver class.

#include "coll/gf256.hpp"
#include "coll/stream_engine.hpp"
#include "common/assert.hpp"
#include "inet/udp.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll::engine {
namespace {

/// Receiver side of one stream: consumes chunks 0..count-1 in index order
/// and hands each to the sink, taking all geometry from the frame headers.
/// ACK mode acks every consumed chunk; NACK mode requests what the cursor's
/// generation lacks.  Its states, each a group of members below:
///   * wait for the first frame — the geometry and, for NACK streams with
///     parity, the first deadline scaled by this rank's distance to the root;
///   * receive — a frame pays its receive overhead when it advances the
///     cursor (`advances`): it is the chunk the cursor waits for or, with
///     parity, a new row of the cursor's generation.  Any other frame is
///     stashed unpaid and pays when its generation becomes current;
///   * decode — `try_reconstruct` rebuilds the generation's missing rows
///     once enough survive, a pure function of the delivered-chunk set;
///   * recovery round n — `request_missing`, on silence or, once the final
///     slot has arrived, at once (the gap NACK, once per stream).
class Receiver {
 public:
  Receiver(Proc& p, const Comm& comm, int root, StreamPreset preset,
           StreamState& st, const ChunkSink& sink)
      : p_(p), comm_(comm), root_(root), preset_(preset), st_(st),
        cfg_(st.presets[slot(preset)].config), sink_(sink),
        nack_(cfg_.feedback == Feedback::kNack),
        ch_(p.mcast_channel(comm)), op_base_(ch_.expected_seq()),
        start_(p.self().now()), clock_(cfg_),
        distance_scaled_(nack_ && cfg_.overhead > 0.0), first_due_(start_) {
    // Stream frames an earlier receive held on the channel join the stash,
    // unpaid, as if this call had read them ahead.
    for (auto& [seq, data] : ch_.take_all_held()) {
      if (const auto h = stream_header(data)) {
        stash_.try_emplace(seq, Stashed{*h, data.slice(kFrameBytes), false});
      }
    }
    stash_.erase(stash_.begin(), stash_.lower_bound(op_base_));
    if (nack_) {
      install_sink(p, comm, st);
      chain_ = join_chain(p, comm, root);
    }
    // A frame stashed before entry may already teach the geometry.
    const auto early = std::find_if(stash_.begin(), stash_.end(), [&](auto& e) {
      return e.second.h.base() == op_base_;
    });
    known_ = early != stash_.end();
    if (known_) {
      geo_ = early->second.h;
    }
    if (const auto it = st.first_frame_distance.find(root);
        distance_scaled_ && it != st.first_frame_distance.end()) {
      first_due_ += it->second;
    }
    if (distance_scaled_ && known_) {
      learn_distance(start_);
    }
  }

  void run() {
    for (std::uint32_t i = 0; i < (known_ ? geo_.count : 1); ++i) {
      while (!step(i)) {
      }
    }
    // Skip the final parity slots; the root's next stream starts past them.
    for (int s = 0; s < geo_.r; ++s) {
      ch_.advance_seq();
    }
  }

 private:
  /// Wait for the first frame: its distance is an EWMA with gain 1/8 (RFC
  /// 6298's SRTT), seeded by its first sample (0 if stashed before entry).
  void learn_distance(SimTime heard) {
    const SimTime sample = heard - start_;
    const auto [it, fresh] =
        st_.first_frame_distance.try_emplace(root_, sample);
    if (!fresh) {
      it->second += (sample - it->second) / 8;
    }
  }

  /// Only NACK receivers time out.  A distance-scaled stream's first
  /// silence wait starts no earlier than the first frame is due.
  SimTime deadline() {
    if (!nack_) {
      return kTimeInfinity;
    }
    const SimTime now = p_.self().now();
    const bool first_wait = distance_scaled_ && !known_ && clock_.rounds() == 0;
    return clock_.restart(first_wait ? std::max(now, first_due_) : now);
  }

  /// Receive: one pass of the cursor on chunk i — from the stash, by
  /// decoding, or off the wire.  True once chunk i is consumed.
  bool step(std::uint32_t i) {
    if (known_ && geo_.r > 0) {
      enter_gen(i);
    }
    stash_.erase(stash_.begin(), stash_.lower_bound(ch_.expected_seq()));
    if (const auto it = stash_.find(ch_.expected_seq()); it != stash_.end()) {
      Stashed e = std::move(it->second);
      stash_.erase(it);
      if (!e.charged) {
        pay(kChunkHeaderBytes + e.h.length);
      }
      consume(e.h, std::move(e.body), i);
      return true;
    }
    if (known_ && geo_.r > 0 && try_reconstruct(i)) {
      return true;
    }
    if (nack_ && known_ && !gap_nacked_ && tail_heard()) {
      gap_nacked_ = true;
      request_missing(i);
    }
    return receive(i);
  }

  /// Takes one datagram off the channel, or times out into a recovery
  /// round, and files it: consumed, stashed, kept as parity, or dropped.
  bool receive(std::uint32_t i) {
    const auto price = [&](const inet::UdpDatagram& dg) -> SimTime {
      const auto h = stream_header(dg.data);
      if (!h || !advances(*h, i)) {
        return kTimeZero;  // stale, duplicate, or not yet useful: unpaid
      }
      return p_.costs().recv_overhead(
          static_cast<std::int64_t>(dg.data.size() - kMcastFrameHeaderBytes),
          mpi::CostTier::kMcastData);
    };
    const auto got =
        ch_.socket().recv_until_charged(p_.self(), deadline(), price);
    if (!got.has_value()) {
      request_missing(i);
      return false;
    }
    const SimTime heard = p_.self().now();
    const auto header = stream_header(got->datagram.data);
    if (!header) {
      return false;  // foreign traffic on the channel
    }
    const ChunkHeader& h = *header;
    const bool useful = advances(h, i);
    // Any frame of the cursor's generation, even a duplicate another
    // receiver's NACK provoked, shows the root serving it.
    if (useful) {
      clock_.progress();
    } else if (gs_.gen >= 0 && h.seq >= gs_.base &&
               h.seq < gs_.base + geo_.r +
                           rows_of(static_cast<std::uint32_t>(gs_.gen))) {
      clock_.rearm();
    }
    if (h.seq < ch_.expected_seq()) {
      return false;  // stale duplicate (a retransmission of a consumed chunk)
    }
    PayloadRef body = got->datagram.data.slice(kFrameBytes);
    if (useful && !got->charge_absorbed) {
      pay(got->datagram.data.size() - kMcastFrameHeaderBytes);
    }
    const std::uint64_t base = h.base();
    if (base != op_base_) {
      if (base > op_base_) {
        stash(h, std::move(body), false);  // a later operation's frame
      }
      return false;
    }
    if (!known_) {  // the first frame of this operation
      if (distance_scaled_) {
        learn_distance(heard);
      }
      geo_ = h;
      known_ = true;
      if (geo_.r > 0) {
        enter_gen(i);
      }
    }
    if (h.parity()) {
      if (useful) {
        gs_.parity.emplace_back(h.row(), std::move(body));
      } else if (static_cast<std::int64_t>(h.gen) != gs_.gen) {
        stash(h, std::move(body), false);
      }
      return false;
    }
    if (chain_.keep != nullptr) {
      chain_.keep->put(h.seq, got->datagram.data, cfg_.history_frames);
    }
    if (h.seq > ch_.expected_seq()) {
      stash(h, std::move(body), useful);
      return false;
    }
    consume(h, std::move(body), i);
    return true;
  }

  /// The charging rule, evaluated in the socket wake and again on
  /// processing, against the same state.
  bool advances(const ChunkHeader& h, std::uint32_t i) const {
    const std::uint64_t expected = ch_.expected_seq();
    if (h.r == 0 || h.seq == expected) {
      return h.seq == expected;
    }
    if (h.seq < expected || h.base() != op_base_) {
      return false;
    }
    const std::uint32_t g = i / h.k;
    if (h.parity()) {
      const bool held = std::any_of(
          gs_.parity.begin(), gs_.parity.end(),
          [&h](const auto& e) { return e.first == h.row(); });
      return h.gen == g && !(gs_.gen == static_cast<std::int64_t>(g) && held);
    }
    return h.index / h.k == g && !stash_.contains(h.seq);
  }

  void pay(std::size_t bytes) {
    p_.self().delay(p_.costs().recv_overhead(static_cast<std::int64_t>(bytes),
                                             mpi::CostTier::kMcastData));
  }
  void stash(const ChunkHeader& h, PayloadRef body, bool charged) {
    stash_.try_emplace(h.seq, Stashed{h, std::move(body), charged});
  }
  std::uint32_t rows_of(std::uint32_t g) const {
    return gen_rows(geo_.count, geo_.k, g);
  }

  /// Moves to the cursor's generation: skips the previous one's parity
  /// slots (fire-and-forget, so waiting on them could deadlock) and pays
  /// for the stashed frames that now advance the cursor.
  void enter_gen(std::uint32_t i) {
    const std::uint32_t g = i / geo_.k;
    if (gs_.gen == static_cast<std::int64_t>(g)) {
      return;
    }
    if (gs_.gen >= 0) {
      for (int s = 0; s < geo_.r; ++s) {
        ch_.advance_seq();
      }
    }
    gs_.gen = g;
    gs_.base = ch_.expected_seq();
    gs_.rows.assign(geo_.k, PayloadRef{});
    gs_.parity.clear();
    const std::uint64_t end = gs_.base + rows_of(g) + geo_.r;
    for (auto it = stash_.lower_bound(gs_.base);
         it != stash_.end() && it->first < end;) {
      Stashed& e = it->second;
      if (!e.charged) {
        pay(kChunkHeaderBytes + e.h.length);
        e.charged = true;
      }
      if (e.h.parity()) {
        gs_.parity.emplace_back(e.h.row(), std::move(e.body));
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void consume(const ChunkHeader& h, PayloadRef body, std::uint32_t i) {
    MC_ASSERT_MSG(h.context == comm_.context(), "context mismatch");
    MC_ASSERT_MSG(h.root_world == comm_.world_rank_of(root_),
                  "stream root mismatch");
    MC_ASSERT_MSG(h.index == i, "chunk index out of stream order");
    MC_ASSERT_MSG(h.count >= 1 && h.index < h.count, "bad chunk count");
    MC_ASSERT_MSG(body.size() == h.length, "chunk length mismatch");
    MC_ASSERT_MSG(h.count == geo_.count && h.total == geo_.total,
                  "stream geometry changed mid-stream");
    if (geo_.r > 0) {
      gs_.rows[i % geo_.k] = body;
    }
    sink_(h.offset(), h.total, std::move(body));
    ch_.advance_seq();
    if (!nack_) {
      // Per-chunk ack over the raw path (the ORNL discipline, per chunk).
      Buffer ack;
      ByteWriter w(ack);
      w.u32(h.index);
      p_.send(comm_, root_, mpi::kTagChunkAck, ack, net::FrameKind::kControl,
              mpi::CostTier::kRaw);
    }
  }

  /// Decode: once consumed + stashed + parity rows reach the generation's
  /// size, rebuilds every missing row; the cursor's chunk is delivered at
  /// once, later ones are stashed under their original sequences.
  bool try_reconstruct(std::uint32_t i) {
    if (gs_.parity.empty()) {
      return false;
    }
    const std::uint32_t g = i / geo_.k;
    const std::uint32_t pos = i % geo_.k;
    const std::uint32_t rows = rows_of(g);
    std::vector<std::span<const std::uint8_t>> dspans(rows);
    std::vector<int> missing;
    for (std::uint32_t q = 0; q < rows; ++q) {
      if (q < pos) {
        dspans[q] = gs_.rows[q].view();
      } else if (const auto it = stash_.find(gs_.base + q);
                 it != stash_.end()) {
        dspans[q] = it->second.body.view();
      } else {
        missing.push_back(static_cast<int>(q));
      }
    }
    if (missing.empty() || gs_.parity.size() < missing.size()) {
      return false;  // cursor chunk stashed, or not enough survivors yet
    }
    // Ascending row order keeps the decode a pure function of the
    // delivered-chunk SET, not of arrival order.
    std::sort(gs_.parity.begin(), gs_.parity.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<gf256::ParityRow> prows;
    std::vector<ChunkHeader> hs(missing.size(), geo_);
    std::vector<Buffer> rebuilt(missing.size());
    // A repairer decodes straight into framed buffers its sink can
    // re-multicast as they are.
    const bool repairer = chain_.keep != nullptr;
    std::vector<PooledBuffer> framed(repairer ? missing.size() : 0);
    std::vector<std::span<std::uint8_t>> outs(missing.size());
    for (std::size_t t = 0; t < missing.size(); ++t) {
      prows.push_back({gs_.parity[t].first, gs_.parity[t].second.view()});
      ChunkHeader& hh = hs[t];
      const auto q = static_cast<std::uint32_t>(missing[t]);
      hh.seq = gs_.base + q;
      hh.index = g * geo_.k + q;
      hh.gen = g;
      hh.length = static_cast<std::uint32_t>(
          std::min<std::size_t>(geo_.chunk, geo_.total - hh.offset()));
      if (repairer) {
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
    if (geo_.total > 0) {  // an empty stream's lone row needs no decode
      gf256::decode(dspans, prows, missing, outs);
      ++p_.self().shard().counters().fec_decodes;
      p_.self().shard().counters().parity_used += missing.size();
    }
    for (std::size_t t = 0; t < missing.size(); ++t) {
      PayloadRef body;
      if (repairer) {
        PayloadRef frame = PayloadRef::adopt(std::move(framed[t]));
        body = frame.slice(kFrameBytes);
        chain_.keep->put(hs[t].seq, std::move(frame), cfg_.history_frames);
      } else {
        body = PayloadRef{std::move(rebuilt[t])};
      }
      if (static_cast<std::uint32_t>(missing[t]) == pos) {
        consume(hs[t], std::move(body), i);
      } else {
        stash(hs[t], std::move(body), true);
      }
    }
    return static_cast<std::uint32_t>(missing.front()) == pos;
  }

  /// Recovery round n: whether the stream's final slot (its last parity
  /// frame, or its last data row when r = 0) has arrived, so that what the
  /// cursor lacks is lost, not late.
  bool tail_heard() const {
    const std::uint32_t g = (geo_.count - 1) / geo_.k;
    const std::uint64_t last = op_base_ +
                               std::uint64_t{g} * (geo_.k + geo_.r) +
                               rows_of(g) + geo_.r - 1;
    if (stash_.contains(last)) {
      return true;
    }
    return geo_.r > 0 && gs_.gen == static_cast<std::int64_t>(g) &&
           std::any_of(gs_.parity.begin(), gs_.parity.end(),
                       [&](const auto& e) { return e.first == geo_.r - 1; });
  }

  /// A NACK round for the cursor's chunk and, once the geometry is known,
  /// every other missing data row of its generation.
  void request_missing(std::uint32_t i) {
    const std::uint64_t expected = ch_.expected_seq();
    clock_.fruitless([&](std::ostream& os, int rounds) {
      os << to_string(preset_) << ": rank " << comm_.rank()
         << " gave up on chunk " << i << " (seq " << expected
         << ") from root " << root_ << " after " << rounds
         << " NACK rounds over " << to_microseconds(p_.self().now() - start_)
         << " us — the root is unreachable or loss exceeds what NACK "
            "recovery can absorb; raise max_retries, timeout_cap or "
            "history_frames";
    });
    sim::SchedCounters& counters = p_.self().shard().counters();
    ++st_.stats.nacks_sent;
    ++counters.nacks_sent;
    if (cfg_.overhead > 0.0) {
      ++counters.fec_fallbacks;
    }
    std::vector<std::uint64_t> want = {expected};
    for (std::uint64_t seq = expected + 1;
         known_ && seq < expected + rows_of(i / geo_.k) - i % geo_.k; ++seq) {
      if (!stash_.contains(seq)) {
        want.push_back(seq);
      }
    }
    p_.send(comm_, chain_.nack_to, mpi::kTagChunkNack,
            nack_message(static_cast<int>(preset_),
                         chain_.nack_to == root_ ? -1 : root_, want),
            net::FrameKind::kControl, mpi::CostTier::kRaw);
  }

  Proc& p_;
  const Comm& comm_;
  const int root_;
  const StreamPreset preset_;
  StreamState& st_;
  const StreamConfig& cfg_;
  const ChunkSink& sink_;
  const bool nack_;
  mpi::McastChannel& ch_;
  std::map<std::uint64_t, Stashed>& stash_ = st_.stash;
  // The channel's sequence at entry is this operation's base; a frame
  // whose own base is later belongs to a later operation.
  const std::uint64_t op_base_;
  Chain chain_{root_, nullptr};
  bool known_ = false;
  ChunkHeader geo_;  // the operation's geometry, from its first header
  struct {  // the cursor's generation (streams with parity)
    std::int64_t gen = -1;
    std::uint64_t base = 0;  // sequence of the generation's row 0
    std::vector<PayloadRef> rows;  // consumed rows, by position
    std::vector<std::pair<int, PayloadRef>> parity;  // (row, bytes)
  } gs_;
  const SimTime start_;
  RecoveryClock clock_;
  // With parity, silence before the first frame is evidence of distance,
  // not of loss (SRM's request timer); without it, the plain timer.
  const bool distance_scaled_;
  SimTime first_due_;
  bool gap_nacked_ = false;
};

}  // namespace

void recv_stream(Proc& p, const Comm& comm, int root, StreamPreset preset,
                 StreamState& st, const ChunkSink& sink) {
  Receiver(p, comm, root, preset, st, sink).run();
}

}  // namespace mcmpi::coll::engine
