// The stream engine's send unit: the Sender class.

#include "coll/gf256.hpp"
#include "coll/stream_engine.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll::engine {
namespace {

/// Root side of one stream; its states are transmit (a first transmission
/// or an ACK-mode retransmission), parity, and the ack window (ACK mode).
class Sender {
 public:
  Sender(Proc& p, const Comm& comm, int root,
         std::span<const std::uint8_t> stream, StreamPreset preset,
         StreamState& st)
      : p_(p), comm_(comm), root_(root), stream_(stream), preset_(preset),
        st_(st), ps_(st.presets[slot(preset)]),
        nack_(ps_.config.feedback == Feedback::kNack),
        r_(parity_rows(ps_.config.k, ps_.config.overhead)),
        k_(static_cast<std::uint32_t>(ps_.config.k)),
        counters_(p.self().shard().counters()), ch_(p.mcast_channel(comm)),
        clock_(ps_.config) {
    MC_EXPECTS(comm.size() > 1);
    const std::size_t total = stream.size();
    const StreamPlan plan =
        stream_plan(total, ps_.config, p.mcast_recv_buffer());
    const auto n_chunks = static_cast<std::uint32_t>(plan.n_data);
    MC_EXPECTS_MSG(n_chunks < kParityIndexBit, "stream has too many chunks");
    if (nack_) {
      install_sink(p, comm, st);
    }
    proto_ = {.context = comm.context(),
              .root_world = comm.world_rank_of(root),
              .count = n_chunks,
              .chunk = static_cast<std::uint32_t>(plan.chunk_bytes),
              .k = static_cast<std::uint16_t>(k_),
              .r = static_cast<std::uint16_t>(r_),
              .total = total};
    chunks_.resize(n_chunks);
    for (std::uint32_t i = 0; i < n_chunks; ++i) {
      chunks_[i].offset = std::size_t{i} * plan.chunk_bytes;
      chunks_[i].length = std::min(plan.chunk_bytes, total - chunks_[i].offset);
    }
    header_.reserve(kFrameBytes);
  }

  /// Returns once every chunk is acked (ACK) or sent (NACK).
  void run() {
    const std::uint32_t n = proto_.count;
    for (std::uint32_t i = 0; i < n; ++i) {
      // Sliding window: stall only when k chunks are in flight; acks
      // consumed here retire earlier chunks while later ones are in flight.
      while (!nack_ && live_ >= k_) {
        await_ack();
      }
      transmit(i, true);
      ++sent_;
      if (r_ > 0 && ((i + 1) % k_ == 0 || i + 1 >= n)) {
        send_parity(i);
      }
      if (!nack_ && request_ == nullptr) {
        request_ = p_.irecv(comm_, mpi::kAnySource, mpi::kTagChunkAck);
      }
      clock_.restart(p_.self().now());
    }
    // NACK mode does not wait: the sink serves any recovery from here on.
    while (!nack_ && retired_ < n) {
      await_ack();
    }
  }

 private:
  struct ChunkState {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t seq = 0;  // channel sequence of the FIRST transmission
    int acks = 0;
    bool retired = false;
  };

  /// ACK mode gather-frames the chunk straight into the wire datagram.
  /// NACK mode frames it once into storage shared by the wire and the
  /// history: the preset's slab, or with parity a pooled buffer of its own.
  void transmit(std::uint32_t i, bool first) {
    ChunkState& c = chunks_[i];
    if (first) {
      c.seq = ch_.expected_seq();
    }
    // A retransmission reuses the original sequence, so receivers that
    // already consumed the chunk skip it as a stale duplicate.
    ChunkHeader h = proto_;
    h.seq = c.seq;
    h.index = i;
    h.gen = i / k_;
    h.length = static_cast<std::uint32_t>(c.length);
    p_.self().delay(p_.costs().send_overhead(h.length,
                                             mpi::CostTier::kMcastData));
    parts_.clear();
    const bool pooled = nack_ && r_ > 0;
    if (!pooled) {
      header_.clear();
      ByteWriter w(header_);
      write_header(w, h);
      parts_.push_back(header_);
    }
    // Gather-framing: the chunk goes out as a view of the stream, with no
    // assembly copy.
    if (c.length > 0) {
      parts_.push_back(stream_.subspan(c.offset, c.length));
    }
    if (!nack_) {
      ch_.send_parts(parts_, net::FrameKind::kData);
    } else {
      PayloadRef frame;
      if (pooled) {
        PooledBuffer out = acquire_payload_buffer(kFrameBytes + h.length);
        ByteWriter w(out.bytes);
        write_header(w, h);
        for (const auto& part : parts_) {
          w.bytes(part);
        }
        frame = PayloadRef::adopt(std::move(out));
      } else {
        frame = ps_.slab.carve(parts_);
      }
      ps_.history.put(c.seq, frame, ps_.config.history_frames);
      ch_.send(std::move(frame), net::FrameKind::kData);
    }
    if (!first) {
      ++counters_.chunk_retried;
      ++counters_.retransmits;
      ++st_.stats.retransmits;
      return;
    }
    ch_.advance_seq();
    if (!nack_) {
      ++counters_.chunk_sent;
      ++live_;
      counters_.chunk_peak_window =
          std::max(counters_.chunk_peak_window, live_);
    }
  }

  /// The r parity frames of generation i / k, after its last chunk.  They
  /// take sequence slots but are never acked, retained or resent: a lost
  /// one costs nothing beyond falling back to the feedback loop.
  void send_parity(std::uint32_t i) {
    const std::uint32_t g = i / k_;
    const std::uint32_t k0 = g * k_;
    const std::uint32_t rows = i - k0 + 1;
    const std::size_t plen = chunks_[k0].length;  // the longest row
    ChunkHeader h = proto_;
    h.gen = g;
    h.length = static_cast<std::uint32_t>(plen);
    for (int pr = 0; pr < r_; ++pr) {
      h.seq = ch_.expected_seq();
      h.index = kParityIndexBit | static_cast<std::uint32_t>(pr);
      // Encoded straight into its framed wire buffer from the payload pool.
      PooledBuffer out = acquire_payload_buffer(kFrameBytes + plen);
      ByteWriter w(out.bytes);
      write_header(w, h);
      out.bytes.resize(kFrameBytes + plen, 0);
      const std::span<std::uint8_t> acc =
          std::span(out.bytes).subspan(kFrameBytes);
      for (std::uint32_t q = 0; q < rows; ++q) {
        const std::uint8_t coef = gf256::parity_coef(
            pr, static_cast<int>(q), static_cast<int>(rows));
        const ChunkState& row = chunks_[k0 + q];
        gf256::mul_acc(acc, stream_.subspan(row.offset, row.length), coef);
      }
      p_.self().delay(p_.costs().send_overhead(
          static_cast<std::int64_t>(plen), mpi::CostTier::kMcastData));
      ch_.send(PayloadRef::adopt(std::move(out)), net::FrameKind::kData);
      ch_.advance_seq();
      ++counters_.parity_sent;
    }
  }

  /// Consumes one ack, recovering on the way.  With a window (k > 1) every
  /// ack is progress and every wait runs `timeout` from its start (the
  /// ORNL discipline).  In lockstep (k = 1) the deadline runs from the last
  /// (re)transmission and only a retired chunk is progress (the paper's
  /// ACK protocol; see StreamConfig::k).
  void await_ack() {
    const bool lockstep = k_ == 1;
    const int receivers = comm_.size() - 1;
    for (;;) {
      if (!lockstep) {
        clock_.restart(p_.self().now());
      }
      const auto ack = p_.wait_until(request_, clock_.deadline(), nullptr,
                                     mpi::CostTier::kRaw);
      if (ack.has_value()) {
        if (!lockstep) {
          clock_.progress();
        }
        ByteReader rd(*ack);
        const std::uint32_t index = rd.u32();
        MC_ASSERT_MSG(index < proto_.count, "ack for an unknown chunk");
        ChunkState& c = chunks_[index];
        MC_ASSERT_MSG(!c.retired, "ack for an already-retired chunk");
        ++counters_.chunk_acked;
        if (++c.acks == receivers) {
          c.retired = true;
          ++retired_;
          --live_;
          clock_.progress();
        }
        if (retired_ < proto_.count) {
          request_ = p_.irecv(comm_, mpi::kAnySource, mpi::kTagChunkAck);
        }
        return;
      }
      // Timeout: somebody missed a chunk (drop, slow drain, or not ready) —
      // resend the oldest unretired one, backing the deadline off.
      clock_.fruitless([this](std::ostream& os, int rounds) {
        os << to_string(preset_) << ": root rank " << root_
           << " gave up after " << rounds << " consecutive ack-less timeouts ("
           << retired_ << " of " << proto_.count
           << " chunks retired) — loss rate exceeds what the ACK window can "
              "absorb; raise max_retries or timeout_cap";
      });
      for (std::uint32_t i = 0; i < sent_; ++i) {
        if (!chunks_[i].retired) {
          transmit(i, false);
          break;
        }
      }
      clock_.restart(p_.self().now());
    }
  }

  Proc& p_;
  const Comm& comm_;
  const int root_;
  const std::span<const std::uint8_t> stream_;
  const StreamPreset preset_;
  StreamState& st_;
  PresetState& ps_;
  const bool nack_;
  const int r_;
  const std::uint32_t k_;
  sim::SchedCounters& counters_;
  mpi::McastChannel& ch_;
  RecoveryClock clock_;
  ChunkHeader proto_;
  std::vector<ChunkState> chunks_;
  std::uint32_t sent_ = 0;
  std::uint32_t retired_ = 0;
  std::uint64_t live_ = 0;  // sent, not yet retired
  std::shared_ptr<mpi::RecvRequest> request_;
  std::vector<std::span<const std::uint8_t>> parts_;
  Buffer header_;
};

}  // namespace

void send_stream(Proc& p, const Comm& comm, int root,
                 std::span<const std::uint8_t> stream, StreamPreset preset,
                 StreamState& st) {
  Sender(p, comm, root, stream, preset, st).run();
}

}  // namespace mcmpi::coll::engine
