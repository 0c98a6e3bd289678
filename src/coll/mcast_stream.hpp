#pragma once
/// \file mcast_stream.hpp
/// The reliable-multicast engine: one windowed chunk stream, four presets.
///
/// The paper's design is one mechanism — get receivers ready, multicast
/// the payload once — and every reliable multicast in this repo is that
/// mechanism plus a recovery loop.  This engine runs the loop once, on the
/// communicator's one multicast group, with two parameters (a window and a
/// recovery policy), and the registry's reliable broadcasts are presets of
/// it:
///
///   preset            chunking         k   feedback parity readiness
///   ack-mcast         whole            1   ack      0      none
///   nack-mcast        whole            1   nack     0      none
///   fec-mcast         total / min(k,   8   nack     1/8    none
///                     frames filled)
///   mcast-segmented   64 KiB           4   ack      0      scout gather
///
/// The registry's `sequencer` (Orca-style) is no preset of its own: the root
/// hands its payload over point-to-point to comm rank 0, which broadcasts
/// it as nack-mcast (same configuration, history and stats).
///
///   * CHUNK — the payload is cut into chunks (chunk_bytes, or
///     total / min(k, frames filled) when chunk_bytes is 0: a chunk below
///     one Ethernet frame adds no loss independence but pays a whole
///     per-message cost), each multicast with a 32 B sub-header after
///     the usual 16 B (context, root, seq) framing.  Every header carries
///     the stream geometry (chunk count, nominal chunk size, generation,
///     k, r, total), so a receiver takes ALL geometry from the wire, never
///     from its own configuration or socket buffer.
///
///   * GENERATIONS — every k consecutive chunks form a
///     generation.  With a parity overhead > 0 the root follows each
///     generation with r Reed–Solomon parity frames (gf256.hpp); a receiver
///     holding any generation-size subset of data + parity rebuilds the
///     missing chunks in-window, with zero recovery round trips.
///
///   * FEEDBACK — ACK: every receiver acks every chunk over the raw path,
///     the root keeps at most k chunks in flight (k is the
///     sliding window) and re-multicasts the oldest unretired chunk when
///     acks stop arriving (the ORNL discipline; in lockstep, k = 1, the
///     deadline runs from the chunk's last transmission, as in the
///     paper's ACK protocol).  NACK: the root blasts every chunk once
///     and returns; receivers that hear silence request the missing
///     chunks of their current generation, and an engine sink that
///     outlives the call re-multicasts them, suppressing repeats inside
///     an aggregation window (SRM style).  With parity, receivers NACK on
///     evidence, not on a LAN timer: (1) each keeps, per root, an EWMA
///     (gain 1/8) of the time from its own call entry to the operation's
///     first frame, and its first silence wait ends at entry + that
///     distance + timeout (as SRM scales request timers by distance) —
///     without parity a lost whole-payload datagram is total silence, so
///     nack-mcast keeps the plain timer; (2) once the stream's final slot
///     (the last parity frame) has arrived, a cursor still blocked after
///     decoding NACKs its gap at once, once per stream.  On 16 hosts
///     behind a 2 ms trunk at 1% loss this cut NACKs from 8.7 to 1.3 per
///     bcast and wire frames by 45%.
///
///   * SEGMENT-LOCAL REPAIR — NACKs stay in the segment, after RMTP's
///     designated receivers.  In each segment that does not hold the
///     root, the members (comm ranks ascending, root excluded) elect a
///     leader m0 and a deputy m1 without wire traffic, as hier does.  A
///     receiver in the root's segment NACKs the root's bounded history; a
///     remote receiver NACKs m0, and m0 NACKs m1 (the root when the
///     segment has no m1).  m0 and m1 keep the frames of the stream they
///     are receiving until their next NACK-stream receive entry; their
///     sinks re-multicast what they hold and forward what they lack to the
///     root, each frame at most once per aggregation window.  A NACK not
///     addressed to the root carries the root.  A single-segment
///     communicator never enters the chain.  On the same 16 hosts this cut
///     p99 latency by 18%, NACKs from 1.28 to 1.04 per bcast and
///     retransmits from 1.10 to 0.79.
///
/// Both feedback modes back their timer off after every fruitless round
/// and give up with a named hard error after max_retries consecutive
/// rounds without progress (0 = never) — silence never hangs a rank.
///
/// The ACK-mode hot path is zero-copy: chunks are sub-spans of the user
/// buffer gather-framed straight into the wire datagram.  NACK mode frames
/// each chunk once into storage shared by the wire and the retransmission
/// history (the root returns before anyone has it): a parity-free frame
/// is carved from the preset's slab (common/bytes.hpp PayloadSlab), a
/// parity stream's frame gets a pooled buffer of its own.  The history is
/// one ring of history_frames entries per (communicator, preset), so a
/// retained frame costs no heap object of its own.

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
  /// min(k, Ethernet frames it fills) chunks, so a payload below k frames
  /// costs one datagram per frame, not k sub-frame datagrams.
  /// The engine clamps it to the datagram ceiling and to the receive
  /// buffer (ACK mode: a window of frames; NACK mode: one frame).
  std::size_t chunk_bytes = 0;
  /// Chunks per generation, and in ACK mode also the sliding window of
  /// unacked chunks (1 = lockstep send-then-ack: the recovery
  /// clock runs from the last transmission and only a retired chunk resets
  /// it; with a window every ack restarts it).
  int k = 8;
  Feedback feedback = Feedback::kNack;
  Readiness readiness = Readiness::kNone;
  /// Parity ratio: every generation carries r = max(1, ceil(k * overhead))
  /// parity frames (capped so k + r <= 256); 0 sends no parity.
  double overhead = 0.125;
  /// Silence before the first recovery round: the root's ack deadline in
  /// ACK mode, a receiver's NACK timer in NACK mode.  With parity a NACK
  /// receiver starts its first wait only when the first frame is due (its
  /// learned distance to the root), and NACKs a gap without waiting once
  /// the stream's final slot has arrived; see FEEDBACK above.
  SimTime timeout = milliseconds(2);
  /// Timer multiplier after every fruitless round (reset by progress).
  double backoff = 2.0;
  /// Backed-off timer ceiling.
  SimTime timeout_cap = milliseconds(50);
  /// Consecutive recovery rounds without progress before the stream gives
  /// up with a hard error (0 = retry forever).
  int max_retries = 30;
  /// NACK mode, root and repairer sinks: repeats of a frame requested
  /// within this window are suppressed (the first re-multicast serves them
  /// all), and a repairer forwards each frame to the root at most once per
  /// window.
  SimTime aggregation_window = microseconds(500);
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

/// Scatter: the [chunk table ‖ concatenated blocks] stream of
/// mcast_scatter.hpp, freed from the single-datagram ceiling.  Receivers
/// keep only the table and their own range.
Buffer scatter_stream(mpi::Proc& p, const mpi::Comm& comm,
                      const std::vector<Buffer>& chunks, int root,
                      StreamPreset preset);

}  // namespace mcmpi::coll
