#pragma once
/// \file stream_engine.hpp
/// Internals of the reliable-multicast engine (mcast_stream.hpp), shared by
/// its four units: the wire format (here) and plan (mcast_stream.cpp), the
/// sender (stream_send.cpp), the Receiver (stream_recv.cpp), and
/// segment-local repair with the NACK sink (stream_repair.cpp).

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "coll/mcast.hpp"
#include "coll/mcast_stream.hpp"

namespace mcmpi::coll::engine {

using mpi::Comm;
using mpi::Proc;

/// Full framing of a stream datagram: 16 B multicast header + sub-header.
inline constexpr std::size_t kFrameBytes =
    kMcastFrameHeaderBytes + kChunkHeaderBytes;

/// Top bit of ChunkHeader::index: a parity frame, whose low bits are its
/// row (a stream is capped below 2^31 chunks).
inline constexpr std::uint32_t kParityIndexBit = 0x80000000u;

/// A sink re-multicasts, and a repairer forwards, a frame at most once
/// per window: the first re-multicast serves every receiver that missed it.
inline constexpr SimTime kAggregationWindow = microseconds(500);

/// Data rows of generation `g` in a stream of `n` chunks.
inline std::uint32_t gen_rows(std::uint32_t n, std::uint32_t k,
                              std::uint32_t g) {
  return std::min(k, n - g * k);
}

/// One stream datagram's framing.  A data chunk's byte offset is index ×
/// chunk; parity sequence slots follow their generation's data slots.
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
  /// The sequence of its operation's first frame (each generation takes
  /// its data rows, then r parity slots): every frame names its operation.
  std::uint64_t base() const {
    const std::uint64_t span = std::uint64_t{k} + r;
    return seq - (parity() ? gen * span + gen_rows(count, k, gen) +
                                 static_cast<std::uint64_t>(row())
                           : (index / k) * span + index % k);
  }
};

inline void write_header(ByteWriter& w, const ChunkHeader& h) {
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
inline std::optional<ChunkHeader> stream_header(const PayloadRef& data) {
  if (data.size() < kFrameBytes) {
    return std::nullopt;
  }
  ByteReader r(data);
  // Braced initializers are evaluated in order: the fields as on the wire.
  const ChunkHeader h{.context = r.u32(), .root_world = r.i32(),
                      .seq = r.u64(), .index = r.u32(), .count = r.u32(),
                      .chunk = r.u32(), .gen = r.u32(), .length = r.u32(),
                      .k = r.u16(), .r = r.u16(), .total = r.u64()};
  if (h.k == 0) {
    return std::nullopt;
  }
  return h;
}

int parity_rows(int k, double overhead);

/// Frames kept for re-multicast by sequence, with their last re-multicast
/// time: the root's history and a repairer's frames of its stream.  Past
/// `cap` frames the smallest sequence goes (a root's oldest: its sequences
/// rise).  One vector, its evicted front compacted once per `cap` frames:
/// no heap node per frame.
class FrameHistory {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    PayloadRef frame;
    std::optional<SimTime> last_resend;  // unset until first re-multicast
  };
  /// Keeps `frame` under `seq` unless that sequence is kept already.
  void put(std::uint64_t seq, PayloadRef frame, std::size_t cap) {
    const auto it = lower_bound(seq);
    if (it != frames_.end() && it->seq == seq) {
      return;
    }
    frames_.insert(it, Entry{seq, std::move(frame), std::nullopt});
    while (frames_.size() - head_ > cap) {
      frames_[head_++] = {};  // evict the smallest sequence, released here
    }
    if (head_ >= cap) {
      frames_.erase(frames_.begin(), kept());
      head_ = 0;
    }
  }
  Entry* find(std::uint64_t seq) {
    const auto it = lower_bound(seq);
    return it != frames_.end() && it->seq == seq ? &*it : nullptr;
  }
  void clear() {
    frames_.clear();
    head_ = 0;
  }

 private:
  std::vector<Entry>::iterator kept() {
    return frames_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  std::vector<Entry>::iterator lower_bound(std::uint64_t seq) {
    return std::lower_bound(kept(), frames_.end(), seq, [](auto& e, auto s) {
      return e.seq < s;
    });
  }
  std::vector<Entry> frames_;  // [head_, end) kept, ascending by seq
  std::size_t head_ = 0;       // [0, head_) evicted, awaiting compaction
};

/// The recovery clock of one stream end: the ACK root's and the NACK
/// receiver's.  Each fruitless round multiplies the timeout by `backoff`
/// up to `timeout_cap`; after max_retries rounds in a row without progress
/// (0 = never) the next one is the stream's give-up error instead.
class RecoveryClock {
 public:
  explicit RecoveryClock(const StreamConfig& cfg)
      : cfg_(cfg), timeout_(cfg.timeout) {}
  /// The next silence ends `timeout` after `from`.
  SimTime restart(SimTime from) { return deadline_ = from + timeout_; }
  SimTime deadline() const { return deadline_; }
  int rounds() const { return rounds_; }
  /// The peer is being served: the timeout starts over.
  void rearm() { timeout_ = cfg_.timeout; }
  /// Progress: the timeout and the count of fruitless rounds start over.
  void progress() {
    rearm();
    rounds_ = 0;
  }
  /// One fruitless round; `describe(os, rounds)` words the give-up error.
  template <class Describe>
  void fruitless(const Describe& describe) {
    if (cfg_.max_retries > 0 && rounds_ >= cfg_.max_retries) {
      std::ostringstream os;
      describe(os, rounds_);
      throw std::runtime_error(os.str());
    }
    ++rounds_;
    const auto scaled = static_cast<std::int64_t>(
        static_cast<double>(timeout_.count()) * cfg_.backoff);
    timeout_ = std::min(SimTime{scaled}, cfg_.timeout_cap);
  }

 private:
  const StreamConfig& cfg_;
  SimTime timeout_;
  SimTime deadline_{};
  int rounds_ = 0;
};

struct Stashed {
  ChunkHeader h;
  PayloadRef body;
  bool charged = false;  // receive overhead already paid
};

/// Per (communicator, preset), so one preset never changes another: the
/// configuration, the root's NACK history and its parity-free frame slab.
struct PresetState {
  StreamConfig config;
  FrameHistory history;
  PayloadSlab slab{32 * 1024};
};

struct StreamState {
  StreamState() {
    for (std::size_t i = 0; i < presets.size(); ++i) {
      presets[i].config = preset_config(static_cast<StreamPreset>(i));
    }
  }
  std::array<PresetState, kStreamPresets> presets;
  StreamStats stats;
  bool sink_installed = false;  // by the first NACK stream, either end
  // Receiver side: frames ahead of the cursor, by sequence, kept across
  // calls (a NACK-mode root may start its next stream early).
  std::map<std::uint64_t, Stashed> stash;
  // Receiver side, parity streams in NACK mode: per root (comm rank), an
  // EWMA of the time from this rank's receive entry to the first frame.
  std::map<int, SimTime> first_frame_distance;
};

inline std::size_t slot(StreamPreset p) { return static_cast<std::size_t>(p); }
inline StreamState& state_of(Proc& p, const Comm& comm) {
  return p.coll_state<StreamState>(comm);
}

/// This rank's place in the repair chain of a root's NACK streams.
struct Chain {
  int nack_to = 0;               // where this rank's own NACKs go
  FrameHistory* keep = nullptr;  // a repairer (m0, m1): its stream's frames
};
/// A NACK receiver's entry into `root`'s chain: what the previous stream
/// left in the repair state is dropped, and this rank placed.
Chain join_chain(Proc& p, const Comm& comm, int root);

/// A NACK for `seqs`; one sent to a repairer carries the root (>= 0).
Buffer nack_message(int preset, int root, std::span<const std::uint64_t> seqs);
void install_sink(Proc& p, const Comm& comm, StreamState& st);

/// Delivery of one chunk: (stream offset, stream total, bytes).
using ChunkSink = std::function<void(std::size_t, std::size_t, PayloadRef)>;
void send_stream(Proc& p, const Comm& comm, int root,
                 std::span<const std::uint8_t> stream, StreamPreset preset,
                 StreamState& st);
void recv_stream(Proc& p, const Comm& comm, int root,
                 StreamPreset preset, StreamState& st, const ChunkSink& sink);

}  // namespace mcmpi::coll::engine
