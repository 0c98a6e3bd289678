#include "coll/mcast_stream.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "coll/gf256.hpp"
#include "coll/limits.hpp"
#include "coll/mcast.hpp"
#include "coll/stream_engine.hpp"
#include "common/assert.hpp"
#include "inet/udp.hpp"

// The stream engine's plan unit (its wire format is inline in
// stream_engine.hpp), with the engine's entry points: the presets, their
// configuration, and the two collectives.

namespace mcmpi::coll {
namespace engine {

int parity_rows(int k, double overhead) {
  if (!(overhead > 0.0)) {
    return 0;
  }
  const auto want = static_cast<int>(std::ceil(k * overhead));
  return std::clamp(want, 1, gf256::max_parity(k));
}

}  // namespace engine

using namespace engine;
namespace {

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

/// One stream from `root`.  Every rank joins the group first; scout
/// readiness then gathers scouts toward the root, so no chunk beats a join.
void run_stream(Proc& p, const Comm& comm, int root,
                std::span<const std::uint8_t> stream, StreamPreset preset,
                const ChunkSink& sink) {
  StreamState& st = state_of(p, comm);
  (void)p.mcast_channel(comm);
  if (st.presets[slot(preset)].config.readiness == Readiness::kScout) {
    scout_gather_binary(p, comm, root);
  }
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
    // The delivery copy, straight into place: no reassembly staging.
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
  switch (preset) {
    case StreamPreset::kAck:
      return {.k = 1, .feedback = Feedback::kAck, .overhead = 0.0,
              .timeout = milliseconds(5), .backoff = 1.0,
              .timeout_cap = milliseconds(200), .max_retries = 0,
              .history_frames = 64};
    case StreamPreset::kNack:
      return {.k = 1, .overhead = 0.0, .history_frames = 64};
    case StreamPreset::kSegmented:
      return {.chunk_bytes = 64 * 1024, .k = 4, .feedback = Feedback::kAck,
              .readiness = Readiness::kScout, .overhead = 0.0,
              .timeout = milliseconds(50), .backoff = 1.0,
              .timeout_cap = milliseconds(800), .max_retries = 0};
    case StreamPreset::kFec:
      break;
  }
  return {};  // the defaults are fec-mcast's
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
  const std::uint32_t n =
      total == 0 ? 1
                 : static_cast<std::uint32_t>((total + plan.chunk_bytes - 1) /
                                              plan.chunk_bytes);
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
  run_stream(p, comm, root, buffer, preset, fill(buffer));
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
  // N complete streams in rank order: with ack feedback and scout
  // readiness, round r+1's scouts cannot precede round r's final acks.
  for (int r = 0; r < size; ++r) {
    run_stream(p, comm, r, data, preset,
               fill(blocks[static_cast<std::size_t>(r)]));
  }
  return blocks;
}

}  // namespace mcmpi::coll
