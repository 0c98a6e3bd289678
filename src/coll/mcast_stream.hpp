#pragma once
/// \file mcast_stream.hpp
/// The reliable-multicast engine: one windowed chunk stream, four presets.
///
/// The paper's design is one mechanism — get receivers ready, multicast
/// the payload once — and every reliable multicast in this repo is that
/// mechanism plus a recovery loop.  This engine runs the loop once, with
/// three parameters (a window, lanes, and a recovery policy), and the
/// registry's reliable broadcasts are presets of it:
///
///   preset            chunking    k   lanes feedback parity readiness
///   ack-mcast         whole       1   1     ack      0      none
///   nack-mcast        whole       1   1     nack     0      none
///   fec-mcast         total / k   8   1     nack     1/8    none
///   mcast-segmented   64 KiB      4   1     ack      0      scout gather
///
///   * CHUNK — the payload is cut into chunks (chunk_bytes, or total / k
///     when chunk_bytes is 0), each multicast with a 32 B sub-header after
///     the usual 16 B (context, root, seq) framing.  Every header carries
///     the stream geometry (chunk count, nominal chunk size, generation,
///     k, r, total), so a receiver takes ALL geometry from the wire, never
///     from its own configuration or socket buffer.
///
///   * LANES — chunks are striped round-robin over `lanes` multicast
///     groups of the same communicator (CommInfo::mcast_port(l)); each
///     lane has its own sequence numbers and receive buffer (Träff's
///     multi-lane decomposition of one collective into parallel streams).
///
///   * GENERATIONS — every k consecutive chunks of a lane form a
///     generation.  With a parity overhead > 0 the root follows each
///     generation with r Reed–Solomon parity frames (gf256.hpp); a receiver
///     holding any generation-size subset of data + parity rebuilds the
///     missing chunks in-window, with zero recovery round trips.
///
///   * FEEDBACK — ACK: every receiver acks every chunk over the raw path,
///     the root keeps at most k chunks in flight per lane (k is the
///     sliding window) and re-multicasts the oldest unretired chunk when
///     acks stop arriving (the ORNL discipline; in lockstep, k = 1, the
///     deadline runs from the chunk's last transmission, as in the
///     paper's ACK protocol).  NACK: the root blasts
///     every chunk once and returns; receivers that hear silence request
///     the missing chunks of their current generation from the root's
///     bounded retransmission history, served by an engine sink that
///     outlives the call and suppresses repeats inside an aggregation
///     window (SRM style).
///
/// Both feedback modes back their timer off after every fruitless round
/// and give up with a named hard error after max_retries consecutive
/// rounds without progress (0 = never) — silence never hangs a rank.
///
/// The ACK-mode hot path is zero-copy: chunks are sub-spans of the user
/// buffer gather-framed straight into the wire datagram.  NACK mode frames
/// each chunk into one pooled allocation shared by the wire and the
/// retransmission history (the root returns before anyone has it).

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
  /// Requested chunk payload bytes; 0 splits the payload into k chunks.
  /// The engine clamps it to the datagram ceiling and to the receive
  /// buffer (ACK mode: a window of frames per lane; NACK mode: one frame).
  std::size_t chunk_bytes = 0;
  /// Chunks per generation, and in ACK mode also the sliding window of
  /// unacked chunks per lane (1 = lockstep send-then-ack: the recovery
  /// clock runs from the last transmission and only a retired chunk resets
  /// it; with a window every ack restarts it).
  int k = 8;
  /// Multicast groups striped round-robin (1..CommInfo::kMaxMcastLanes).
  int lanes = 1;
  Feedback feedback = Feedback::kNack;
  Readiness readiness = Readiness::kNone;
  /// Parity ratio: every generation carries r = max(1, ceil(k * overhead))
  /// parity frames (capped so k + r <= 256); 0 sends no parity.
  double overhead = 0.125;
  /// Ratchet the root's working overhead from the recovery requests its
  /// own sink receives (doubling up to 1/2, halving back toward
  /// `overhead` after 8 calm operations).
  bool adaptive = false;
  /// Silence before the first recovery round: the root's ack deadline in
  /// ACK mode, a receiver's NACK timer in NACK mode.
  SimTime timeout = milliseconds(2);
  /// Timer multiplier after every fruitless round (reset by progress).
  double backoff = 2.0;
  /// Backed-off timer ceiling.
  SimTime timeout_cap = milliseconds(50);
  /// Consecutive recovery rounds without progress before the stream gives
  /// up with a hard error (0 = retry forever).
  int max_retries = 30;
  /// NACK mode, root side: repeats of a frame requested within this
  /// window are suppressed (the first re-multicast serves them all).
  SimTime aggregation_window = microseconds(500);
  /// NACK mode, root side: framed chunks retained for retransmission.
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
  std::uint64_t retransmits = 0;       // root: ack timeouts + NACK resends
  std::uint64_t nacks_sent = 0;        // receiver: NACK rounds
  std::uint64_t nacks_served = 0;      // root sink: frames re-multicast
  std::uint64_t nacks_suppressed = 0;  // root sink: inside the window
  std::uint64_t nacks_unserved = 0;    // root sink: history miss
  std::uint64_t overhead_raises = 0;   // root: adaptive ratchet up-steps
};
const StreamStats& stream_stats(mpi::Proc& p, const mpi::Comm& comm);

/// The parity ratio the NEXT operation of `preset` rooted here will encode
/// with (the configured overhead until the adaptive ratchet moves it).
double stream_working_overhead(mpi::Proc& p, const mpi::Comm& comm,
                               StreamPreset preset);

/// Stream geometry for a `total`-byte payload — exposed so the registry
/// predicates and the tests agree with the engine about what fits.
/// wire_bytes is the worst case a receiver's socket buffer must absorb if
/// it consumes nothing mid-stream: every data and parity frame (at the
/// adaptive ceiling when adaptive) including all framing headers.
struct StreamPlan {
  std::size_t chunk_bytes = 0;  ///< nominal full chunk length
  int n_data = 0;               ///< data chunks in the stream
  int windows = 0;              ///< generations, summed over lanes
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
