#pragma once
/// \file mcast_stream.hpp
/// The reliable-multicast engine: one windowed chunk stream, four presets.
///
/// The paper's design is one mechanism — get receivers ready, multicast
/// the payload once — plus, here, a recovery loop.  The engine runs it on
/// the communicator's one multicast group, and the registry's reliable
/// broadcasts are presets of it:
///
///   preset            chunking         k   feedback parity readiness
///   ack-mcast         whole            1   ack      0      none
///   nack-mcast        whole            1   nack     0      none
///   fec-mcast         total / min(k,   8   nack     1/8    none
///                     frames filled)
///   mcast-segmented   64 KiB           4   ack      0      scout gather
///
/// The registry's `sequencer` hands its payload to comm rank 0 for a
/// nack-mcast.  Every k chunks form a generation, followed by r
/// Reed–Solomon parity frames (gf256.hpp).  ACK feedback keeps at most k
/// chunks unacked (k = 1 is the paper's ACK protocol); under NACK feedback
/// the root blasts and returns, and a sink serves what receivers request.
///
/// The engine is four units over one internal header (stream_engine.hpp):
/// the wire format (in that header) and plan with the entry points
/// (mcast_stream.cpp), the sender (stream_send.cpp), the Receiver
/// (stream_recv.cpp: wait for the first frame, receive, decode, recovery
/// round n), and repair (stream_repair.cpp: the repair chain and the NACK
/// sink).  The ACK root and the NACK receiver share one RecoveryClock: it
/// backs the timer off after every fruitless round and raises the named
/// give-up error after max_retries rounds in a row without progress (0 =
/// never), so silence never hangs a rank.  The root's history and a
/// repairer's frames are one FrameHistory type, bounded by history_frames,
/// with no heap node per frame; a sink re-multicasts a frame at most once
/// per 500 us aggregation window (kAggregationWindow).  The protocol and
/// its measurements are in docs/COLLECTIVES.md.

#include <cstddef>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Wire size of the per-chunk sub-header (u32 index, u32 count, u32 chunk,
/// u32 gen, u32 length, u16 k, u16 r, u64 total) that follows the 16 B
/// multicast framing header on every stream datagram.
inline constexpr std::size_t kChunkHeaderBytes = 32;

/// Who drives recovery: the root collecting per-chunk acks, or receivers
/// requesting what they miss.
enum class Feedback { kAck, kNack };

/// What the stream waits for before the first chunk: nothing (receivers
/// that are late recover through feedback), or the paper's binomial scout
/// gather toward the root.
enum class Readiness { kNone, kScout };

/// The registry's reliable-multicast entries, each a preset of the engine.
enum class StreamPreset { kAck, kNack, kFec, kSegmented };
inline constexpr int kStreamPresets = 4;

/// Registry name of `preset` ("ack-mcast", ...), used in error messages.
const char* to_string(StreamPreset preset);

/// The engine's only configuration.  The defaults are the fec-mcast
/// preset; preset_config gives the others.  Stored per (communicator,
/// preset) and must be identical on every rank of the communicator — it is
/// protocol policy, like a datatype.
struct StreamConfig {
  /// Requested chunk payload bytes; 0 splits the payload into
  /// min(k, Ethernet frames it fills) chunks.  Clamped to the datagram
  /// ceiling and the receive buffer (ACK: a window of frames; NACK: one).
  std::size_t chunk_bytes = 0;
  /// Chunks per generation, and in ACK mode the window of unacked chunks
  /// (1 = lockstep: the recovery clock runs from the last transmission and
  /// only a retired chunk resets it; with a window every ack does).
  int k = 8;
  Feedback feedback = Feedback::kNack;
  Readiness readiness = Readiness::kNone;
  /// Parity ratio: every generation carries r = max(1, ceil(k * overhead))
  /// parity frames (capped so k + r <= 256); 0 sends no parity.
  double overhead = 0.125;
  /// Silence before the first recovery round: the root's ack deadline in
  /// ACK mode, a receiver's NACK timer in NACK mode (with parity, its first
  /// wait starts when the first frame is due; see docs/COLLECTIVES.md).
  SimTime timeout = milliseconds(2);
  /// Timer multiplier after every fruitless round (reset by progress).
  double backoff = 2.0;
  /// Backed-off timer ceiling.
  SimTime timeout_cap = milliseconds(50);
  /// Consecutive recovery rounds without progress before the stream gives
  /// up with a hard error (0 = retry forever).
  int max_retries = 30;
  /// NACK mode: framed chunks the root retains for retransmission (oldest
  /// evicted first), and the most of its current stream a repairer keeps.
  std::size_t history_frames = 256;
};

/// The defaults of `preset` (see the table above).
StreamConfig preset_config(StreamPreset preset);

/// Installs `config` for `preset` on `comm` (per-rank call; keep it
/// communicator-uniform).  Other presets on the communicator keep their
/// own configuration.  Throws std::invalid_argument on out-of-range values.
void set_stream_config(mpi::Proc& p, const mpi::Comm& comm,
                       StreamPreset preset, const StreamConfig& config);
/// The configuration `preset` runs with on `comm` (defaults until set).
const StreamConfig& stream_config(mpi::Proc& p, const mpi::Comm& comm,
                                  StreamPreset preset);

/// Cumulative per-communicator protocol statistics on this rank (all
/// presets together).
struct StreamStats {
  std::uint64_t retransmits = 0;       // ack timeouts + NACK resends (root
                                       // and repairer sinks)
  std::uint64_t nacks_sent = 0;        // receiver: NACK rounds
  std::uint64_t nacks_served = 0;      // root sink: frames re-multicast
  std::uint64_t nacks_suppressed = 0;  // sink: inside the window
  std::uint64_t nacks_unserved = 0;    // root sink: history miss
  std::uint64_t repairs_served = 0;    // repairer sink: frames re-multicast
  std::uint64_t nacks_forwarded = 0;   // repairer sink: NACKs to the root
};
const StreamStats& stream_stats(mpi::Proc& p, const mpi::Comm& comm);

/// Stream geometry for a `total`-byte payload — exposed so the registry
/// predicates and the tests agree with the engine about what fits.
/// wire_bytes is the worst case a receiver's socket buffer must absorb if
/// it consumes nothing mid-stream: every data and parity frame including
/// all framing headers.
struct StreamPlan {
  std::size_t chunk_bytes = 0;  ///< nominal full chunk length
  int n_data = 0;               ///< data chunks in the stream
  int windows = 0;              ///< generations
  std::size_t wire_bytes = 0;   ///< worst-case on-the-wire total
};
StreamPlan stream_plan(std::size_t total, const StreamConfig& config,
                       std::size_t rcvbuf_bytes);

/// Broadcast: any payload size, any topology with multicast.  `buffer` is
/// input at the root, output elsewhere.  Throws std::runtime_error when
/// recovery exhausts max_retries.
void bcast_stream(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root, StreamPreset preset);

/// Allgather: N sequential streams in rank order (block r crosses the wire
/// once, whatever its size).
std::vector<Buffer> allgather_stream(mpi::Proc& p, const mpi::Comm& comm,
                                     std::span<const std::uint8_t> data,
                                     StreamPreset preset);

}  // namespace mcmpi::coll
