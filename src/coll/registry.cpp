#include "coll/registry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "coll/hier.hpp"
#include "coll/mcast.hpp"
#include "coll/mcast_allgather.hpp"
#include "coll/mcast_alltoall.hpp"
#include "coll/mcast_reduce.hpp"
#include "coll/mcast_scatter.hpp"
#include "coll/mcast_stream.hpp"
#include "coll/mpich.hpp"
#include "coll/scatter_allgather.hpp"
#include "coll/sequencer.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

std::string to_string(CollOp op) {
  switch (op) {
    case CollOp::kBcast:
      return "bcast";
    case CollOp::kBarrier:
      return "barrier";
    case CollOp::kAllreduce:
      return "allreduce";
    case CollOp::kAllgather:
      return "allgather";
    case CollOp::kReduce:
      return "reduce";
    case CollOp::kGather:
      return "gather";
    case CollOp::kScatter:
      return "scatter";
    case CollOp::kScan:
      return "scan";
    case CollOp::kAlltoall:
      return "alltoall";
  }
  return "?";
}

namespace {

/// Frames needed for an M-byte payload at T = 1472 payload bytes per frame
/// (the paper's floor(M/T) + 1).
double frames(std::size_t bytes) {
  return std::floor(static_cast<double>(bytes) / 1472.0) + 1.0;
}

double log2n(int ranks) {
  return ranks > 1 ? std::ceil(std::log2(static_cast<double>(ranks))) : 0.0;
}

bool always(const mpi::Comm&, std::size_t) { return true; }

/// The scout-combining protocols ship blocks as fire-and-forget eager
/// sends: the framed payload (+8 B operation sequence) must stay on the
/// engine's eager path.
bool fits_eager(const mpi::Comm& comm, std::size_t bytes) {
  return comm.proc() == nullptr ||
         static_cast<std::int64_t>(bytes) + 8 <=
             comm.proc()->engine().eager_threshold();
}

/// One framed multicast datagram (16 B header) must clear both the IP
/// fragment-offset ceiling and the receivers' multicast socket buffer — a
/// datagram larger than the buffer can never be enqueued, so it would be
/// dropped even into an empty socket.
///
/// Per-rank limits (the eager threshold here and below, the socket buffer)
/// are read from the LOCAL proc: like kAuto selection itself, these
/// predicates assume the limits are configured uniformly across ranks
/// (Cluster applies one ClusterConfig to every proc).  Heterogeneous
/// per-proc overrides would make ranks resolve different algorithms and
/// desynchronize the collective.
bool fits_mcast_datagram(const mpi::Comm& comm, std::size_t payload) {
  if (payload + kMcastFrameHeaderBytes > kMaxMcastDatagram) {
    return false;
  }
  return comm.proc() == nullptr ||
         payload + kMcastFrameHeaderBytes <= comm.proc()->mcast_recv_buffer();
}

/// The FEC blast is windowed but unacked: a receiver that consumes nothing
/// mid-blast must absorb the whole stream — data, parity at the worst-case
/// ratio, and framing — in its multicast socket buffer.  stream_plan is
/// the single source of truth for that geometry, so the predicate and the
/// engine can never disagree about what fits.
bool fits_fec_blast(const mpi::Comm& comm, std::size_t payload) {
  if (comm.proc() == nullptr) {
    return true;  // same convention as the socket-buffer checks above
  }
  mpi::Proc& p = *comm.proc();
  const StreamConfig& cfg = stream_config(p, comm, StreamPreset::kFec);
  return stream_plan(payload, cfg, p.mcast_recv_buffer()).wire_bytes <=
         p.mcast_recv_buffer();
}

/// The broadcast entry of a reliable-multicast stream preset.
template <StreamPreset kPreset>
void bcast_preset(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) {
  bcast_stream(p, comm, buffer, root, kPreset);
}

/// ~64 KiB chunks of the segmented pipeline for an M-byte stream — the
/// per-chunk overheads (ack collection) scale with this.
double chunk_count(std::size_t bytes) {
  return std::floor(static_cast<double>(bytes) / 65536.0) + 1.0;
}

void register_builtins(Registry& r) {
  // ----------------------------------------------------------- broadcast
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kBcast,
      .description = "MPICH binomial tree over point-to-point (Fig. 2)",
      .applicable = always,
      // Paper §3.1: every tree edge carries a full copy.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mpich(p, comm, buffer, root); }});
  r.add(CollAlgorithm{
      .name = "mcast-binary",
      .op = CollOp::kBcast,
      .description = "binomial scout gather, then one IP multicast (Fig. 3)",
      .applicable = fits_mcast_datagram,
      // (N-1) scouts in log2 N pipelined steps + the payload once.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return log2n(ranks) + frames(bytes); },
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mcast_binary(p, comm, buffer, root); }});
  r.add(CollAlgorithm{
      .name = "mcast-linear",
      .op = CollOp::kBcast,
      .description = "linear scout gather, then one IP multicast (Fig. 4)",
      .applicable = fits_mcast_datagram,
      // N-1 sequential scout receives at the root + the payload once.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return (ranks - 1) + frames(bytes); },
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mcast_linear(p, comm, buffer, root); }});
  r.add(CollAlgorithm{
      .name = "ack-mcast",
      .op = CollOp::kBcast,
      .description =
          "multicast first, resend until all ACK (ORNL/PVM negative result)",
      .applicable = fits_mcast_datagram,
      // Payload once + N-1 serial ACKs; unready receivers cost whole-payload
      // retransmissions, folded in as a constant penalty.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            return 1.5 * frames(bytes) + (ranks - 1);
          },
      .loss_tolerant = true,  // resends until every receiver ACKs
      .bcast = bcast_preset<StreamPreset::kAck>});
  r.add(CollAlgorithm{
      .name = "sequencer",
      .op = CollOp::kBcast,
      .description =
          "sequencer-ordered multicast with NACK recovery (Orca-style)",
      .applicable = fits_mcast_datagram,
      // One handoff to the sequencer + the payload once; no readiness
      // handshake (receiver lag is detected only by NACK timeout).
      .cost_hint = [](std::size_t bytes,
                      int ranks [[maybe_unused]]) { return 1 + frames(bytes); },
      .loss_tolerant = true,  // gap detection + NACK to the sequencer
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_sequencer(p, comm, buffer, root); }});
  r.add(CollAlgorithm{
      .name = "nack-mcast",
      .op = CollOp::kBcast,
      .description = "receiver-driven NACK multicast: blast the payload, "
                     "receivers NACK gaps, sender retransmits with "
                     "aggregation/suppression (SRM-style)",
      .applicable = fits_mcast_datagram,
      // The payload once with no readiness handshake and no per-receiver
      // ACKs: on a clean wire it is the cheapest reliable multicast; the
      // constant folds in the root's sink installation handshake.
      .cost_hint = [](std::size_t bytes,
                      int ranks [[maybe_unused]]) {
        return 1.5 + frames(bytes);
      },
      .loss_tolerant = true,  // the point: NACK-driven retransmission
      .bcast = bcast_preset<StreamPreset::kNack>});
  r.add(CollAlgorithm{
      .name = "fec-mcast",
      .op = CollOp::kBcast,
      .description = "FEC-coded multicast: k data + r Reed–Solomon parity "
                     "chunks per window, any k of k+r reconstruct — zero "
                     "recovery round trips up to r losses, NACK fallback "
                     "beyond (adaptive parity under observed loss)",
      .applicable = fits_fec_blast,
      // The payload once PLUS its parity ratio (default 1/8) with no
      // readiness handshake: strictly dearer than nack-mcast on a clean
      // wire — by design, that is the premium for zero-RTT recovery — so
      // kAuto only reaches it through a lossy-gated tuning rule.
      .cost_hint = [](std::size_t bytes,
                      int ranks [[maybe_unused]]) {
        return 1.5 + 1.125 * frames(bytes);
      },
      .loss_tolerant = true,  // the point: in-window erasure recovery
      .bcast = bcast_preset<StreamPreset::kFec>});
  r.add(CollAlgorithm{
      .name = "scatter-allgather",
      .op = CollOp::kBcast,
      .description =
          "scatter + ring allgather for long messages (van de Geijn)",
      .applicable = always,
      // Every byte crosses each link at most ~2x; the ring runs on N
      // disjoint links in parallel — critical path ~2 payload images.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return 2.0 * frames(bytes) + (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .bcast =
          [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer, int root) {
            bcast_scatter_allgather(p, comm, buffer, root);
          }});
  r.add(CollAlgorithm{
      .name = "mcast-segmented",
      .op = CollOp::kBcast,
      .description = "segmented pipelined multicast: chunked stream, sliding "
                     "ack window, optional multi-lane striping — no payload "
                     "size ceiling",
      .applicable = always,
      // Scout sync + the payload once on the wire, plus per-chunk ack
      // collection — strictly dearer than a single-shot multicast below
      // the datagram ceiling, the only multicast option above it.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            return log2n(ranks) + frames(bytes) +
                   chunk_count(bytes) * (ranks - 1);
          },
      .loss_tolerant = true,  // per-chunk acks + timeout retransmission
      .bcast = bcast_preset<StreamPreset::kSegmented>});
  r.add(CollAlgorithm{
      .name = "hier-mcast",
      .op = CollOp::kBcast,
      .description = "hierarchical: root -> segment leaders over the trunks "
                     "once, then per-segment multicast (MagPIe-style)",
      .applicable = [](const mpi::Comm& comm,
                       std::size_t) { return hier_applicable(comm); },
      // One trunk image per remote segment (overlapped, so ~one trunk cost
      // on the critical path) + the intra phase at segment size.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            const int segs = hier_segments_hint();
            return hier_trunk_cost_hint() * frames(bytes) +
                   log2n(std::max(ranks / segs, 2)) + frames(bytes);
          },
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_hier(p, comm, buffer, root); }});

  // ------------------------------------------------------------- barrier
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kBarrier,
      .description = "MPICH three-phase point-to-point barrier (Fig. 5)",
      .applicable = always,
      .cost_hint =
          [](std::size_t, int ranks) {
            const double k = std::pow(2.0, std::floor(std::log2(
                                                std::max(ranks, 1))));
            return 2.0 * (ranks - k) + k * std::log2(k);
          },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_mpich(p, comm); }});
  r.add(CollAlgorithm{
      .name = "mcast",
      .op = CollOp::kBarrier,
      .description = "scout reduction + one multicast release (§3.2)",
      .applicable = always,
      .cost_hint = [](std::size_t, int ranks) { return ranks - 1 + 1.0; },
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_mcast(p, comm); }});
  r.add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kBarrier,
      .description = "hierarchical: intra fold to segment leaders, two flat "
                     "trunk rounds among leaders, intra release",
      .applicable = [](const mpi::Comm& comm,
                       std::size_t) { return hier_applicable(comm); },
      // Two binomial intra phases + exactly two trunk crossings,
      // independent of the segment count.
      .cost_hint =
          [](std::size_t, int ranks) {
            const int segs = hier_segments_hint();
            return 2.0 * hier_trunk_cost_hint() +
                   2.0 * log2n(std::max(ranks / segs, 2));
          },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_hier(p, comm); }});

  // ----------------------------------------------------------- allreduce
  // MPICH-1.x shape: binomial reduce to rank 0, then broadcast — with the
  // broadcast stage selectable, so the multicast win compounds (the
  // paper's anticipated extension).  One entry per broadcast stage.
  for (const char* stage : {"mpich", "mcast-binary", "mcast-linear"}) {
    r.add(CollAlgorithm{
        .name = stage,
        .op = CollOp::kAllreduce,
        .description = std::string("binomial reduce to rank 0, then ") +
                       stage + " broadcast",
        // The broadcast stage's own limits apply: the multicast stages are
        // single-shot and cannot carry a jumbo result vector.
        .applicable =
            [stage](const mpi::Comm& comm, std::size_t bytes) {
              return std::string_view(stage) == "mpich" ||
                     fits_mcast_datagram(comm, bytes);
            },
        .cost_hint =
            [stage](std::size_t bytes, int ranks) {
              const double reduce = frames(bytes) * log2n(ranks);
              return reduce + Registry::instance()
                                  .get(CollOp::kBcast, stage)
                                  .cost_hint(bytes, ranks);
            },
        // Tolerant exactly when the broadcast stage is (the reduce stage is
        // always p2p over the reliable transport).
        .loss_tolerant = std::string_view(stage) == "mpich",
        .allreduce =
            [stage](mpi::Proc& p, const mpi::Comm& comm,
                    std::span<const std::uint8_t> data, mpi::Op op,
                    mpi::Datatype type) {
              Buffer result = reduce_mpich(p, comm, data, op, type, /*root=*/0);
              if (comm.rank() != 0) {
                result.clear();
              }
              Registry::instance()
                  .get(CollOp::kBcast, stage)
                  .bcast(p, comm, result, /*root=*/0);
              return result;
            }});
  }
  r.add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kAllreduce,
      .description = "hierarchical: intra reduce to segment leaders, leader "
                     "combine over the trunks, intra release broadcast",
      // Contiguous segment blocks keep the leader combine in comm rank
      // order — required for non-commutative custom ops.
      .applicable =
          [](const mpi::Comm& comm, std::size_t) {
            return hier_applicable_contiguous(comm);
          },
      // Intra reduce + ~2 overlapped trunk images + intra broadcast.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            const int segs = hier_segments_hint();
            const double intra = log2n(std::max(ranks / segs, 2));
            return frames(bytes) * intra + 2.0 * hier_trunk_cost_hint() *
                                               frames(bytes) +
                   intra + frames(bytes);
          },
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .allreduce = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data, mpi::Op op,
                      mpi::Datatype type) {
        return allreduce_hier(p, comm, data, op, type);
      }});

  // ----------------------------------------------------------- allgather
  r.add(CollAlgorithm{
      .name = "ring",
      .op = CollOp::kAllgather,
      .description = "point-to-point ring allgather (N-1 shift steps)",
      .applicable = always,
      // N(N-1) block-hops in total, N-1 steps on the critical path.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mpich(p, comm, data);
      }});
  r.add(CollAlgorithm{
      .name = "mcast-lockstep",
      .op = CollOp::kAllgather,
      .description =
          "each block multicast once, in rank order behind one barrier",
      .applicable = fits_mcast_datagram,
      // Every block crosses the wire exactly once, serialized by rounds.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * ranks + ranks; },
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mcast(p, comm, data, AllgatherMode::kLockstep).blocks;
      }});
  r.add(CollAlgorithm{
      .name = "mcast-blast",
      .op = CollOp::kAllgather,
      .description = "every rank multicasts at once — fastest pacing, may "
                     "drop blocks to receiver overrun (§2/§5 hazard)",
      .applicable = fits_mcast_datagram,
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) + 2.0 * ranks; },
      .lossy = true,
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mcast(p, comm, data, AllgatherMode::kBlast).blocks;
      }});
  r.add(CollAlgorithm{
      .name = "mcast-segmented",
      .op = CollOp::kAllgather,
      .description = "N rank-ordered segmented pipelined multicast streams — "
                     "no block size ceiling",
      .applicable = always,
      // N fully acked streams: each pays scout sync + its block once +
      // per-chunk ack collection.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            return static_cast<double>(ranks) *
                   (log2n(ranks) + frames(bytes) +
                    chunk_count(bytes) * (ranks - 1));
          },
      .loss_tolerant = true,  // per-chunk acks + timeout retransmission
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_stream(p, comm, data, StreamPreset::kSegmented);
      }});
  r.add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kAllgather,
      .description = "hierarchical: intra gather to segment leaders, leader "
                     "bundle exchange over the trunks (each byte crosses "
                     "each trunk once), intra release broadcast",
      .applicable = [](const mpi::Comm& comm,
                       std::size_t) { return hier_applicable(comm); },
      // Intra gather of one block + the full result over the trunk once +
      // the assembled bundle broadcast intra.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            const int segs = hier_segments_hint();
            const int per_seg = std::max(ranks / segs, 2);
            const double result_frames =
                frames(bytes) * static_cast<double>(ranks);
            return frames(bytes) * (per_seg - 1) +
                   hier_trunk_cost_hint() * result_frames + result_frames;
          },
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_hier(p, comm, data);
      }});

  // -------------------------------------------------------------- reduce
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kReduce,
      .description = "binomial-tree reduction over point-to-point",
      .applicable = always,
      // log2 N combining rounds, a full payload per tree edge on the
      // critical path.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * log2n(ranks); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .reduce = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data, mpi::Op op,
                   mpi::Datatype type,
                   int root) { return reduce_mpich(p, comm, data, op, type,
                                                   root); }});
  r.add(CollAlgorithm{
      .name = "mcast-scout",
      .op = CollOp::kReduce,
      .description = "lockstep multicast of operands, slice-combining on "
                     "every rank, scout-gathered partials to root",
      .applicable =
          [](const mpi::Comm& comm, std::size_t bytes) {
            return fits_eager(comm, bytes) && fits_mcast_datagram(comm, bytes);
          },
      // N lockstep multicasts + the partial slices (~one payload image in
      // total) scouted to the root.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            return frames(bytes) * ranks + (ranks - 1) +
                   frames(bytes / static_cast<std::size_t>(
                                      std::max(ranks, 1)));
          },
      .reduce = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data, mpi::Op op,
                   mpi::Datatype type, int root) {
        return reduce_mcast_scout(p, comm, data, op, type, root);
      }});

  // -------------------------------------------------------------- gather
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kGather,
      .description = "linear gather over blocking point-to-point sends",
      .applicable = always,
      // N-1 serial receives at the root, plus the senders' blocking send
      // overheads.
      .cost_hint = [](std::size_t bytes,
                      int ranks) {
        return (frames(bytes) + 1.0) * (ranks - 1);
      },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .gather = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data,
                   int root) { return gather_mpich(p, comm, data, root); }});
  r.add(CollAlgorithm{
      .name = "scout-combining",
      .op = CollOp::kGather,
      .description = "fire-and-forget data scouts, aggregate charged "
                     "collection at the root",
      .applicable = fits_eager,
      // The same N-1 serial receive charges, but senders never block and
      // the root wakes once.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * (ranks - 1); },
      .gather = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data, int root) {
        return gather_scout_combining(p, comm, data, root);
      }});

  // ------------------------------------------------------------- scatter
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kScatter,
      .description = "linear scatter over blocking point-to-point sends",
      .applicable = always,
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scatter = [](mpi::Proc& p, const mpi::Comm& comm,
                    const std::vector<Buffer>& chunks,
                    int root) { return scatter_mpich(p, comm, chunks,
                                                     root); }});
  r.add(CollAlgorithm{
      .name = "mcast-slice",
      .op = CollOp::kScatter,
      .description = "one multicast of the concatenated payload, each rank "
                     "slices its chunk (Zhou et al. bandwidth saving)",
      // bytes is the per-rank chunk size; the concatenated datagram must
      // fit the fragment-offset ceiling and the receivers' socket buffer.
      .applicable =
          [](const mpi::Comm& comm, std::size_t bytes) {
            return fits_mcast_datagram(
                comm, bytes * static_cast<std::size_t>(comm.size()) +
                          scatter_table_bytes(comm.size()));
          },
      // Scout synchronization + the whole payload once.
      .cost_hint = [](std::size_t bytes,
                      int ranks) {
        return log2n(ranks) +
               frames(bytes * static_cast<std::size_t>(std::max(ranks, 1)));
      },
      .scatter = [](mpi::Proc& p, const mpi::Comm& comm,
                    const std::vector<Buffer>& chunks, int root) {
        return scatter_mcast_slice(p, comm, chunks, root);
      }});
  r.add(CollAlgorithm{
      .name = "mcast-segmented",
      .op = CollOp::kScatter,
      .description = "segmented pipelined multicast of [table ‖ blocks]; "
                     "receivers keep their range — no payload size ceiling",
      .applicable = always,
      // Scout sync + the concatenated stream once + per-chunk acks;
      // `bytes` is the per-rank chunk size, as for mcast-slice.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            const std::size_t total =
                bytes * static_cast<std::size_t>(std::max(ranks, 1)) +
                scatter_table_bytes(ranks);
            return log2n(ranks) + frames(total) +
                   chunk_count(total) * (ranks - 1);
          },
      .scatter = [](mpi::Proc& p, const mpi::Comm& comm,
                    const std::vector<Buffer>& chunks, int root) {
        return scatter_stream(p, comm, chunks, root,
                              StreamPreset::kSegmented);
      }});

  // ------------------------------------------------------------ alltoall
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kAlltoall,
      .description = "pairwise-shift alltoall over point-to-point sendrecv",
      .applicable = always,
      // N-1 exchange steps on the critical path, one block each way per
      // step; `bytes` is the per-destination block size throughout.
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return 2.0 * frames(bytes) * (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .alltoall = [](mpi::Proc& p, const mpi::Comm& comm,
                     const std::vector<Buffer>& to_each) {
        return alltoall_mpich(p, comm, to_each);
      }});
  r.add(CollAlgorithm{
      .name = "mcast-rr",
      .op = CollOp::kAlltoall,
      .description = "round-robin lockstep: each rank multicasts its whole "
                     "personalized vector once, receivers slice their block",
      // The concatenated vector (+ table) must fit one multicast datagram
      // and the receivers' socket buffer.
      .applicable =
          [](const mpi::Comm& comm, std::size_t bytes) {
            return fits_mcast_datagram(
                comm, bytes * static_cast<std::size_t>(comm.size()) +
                          alltoall_table_bytes(comm.size()));
          },
      // Barrier + N serialized rounds, each one datagram of N blocks; the
      // per-rank saving is N-1 sends folded into one.
      .cost_hint =
          [](std::size_t bytes, int ranks) {
            return ranks +
                   frames(bytes * static_cast<std::size_t>(
                                      std::max(ranks, 1))) *
                       ranks;
          },
      .alltoall = [](mpi::Proc& p, const mpi::Comm& comm,
                     const std::vector<Buffer>& to_each) {
        return alltoall_mcast_rr(p, comm, to_each);
      }});

  // ---------------------------------------------------------------- scan
  r.add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kScan,
      .description = "linear-chain inclusive prefix (MPICH 1.x)",
      .applicable = always,
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * (ranks - 1); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scan = [](mpi::Proc& p, const mpi::Comm& comm,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type) { return scan_mpich(p, comm, data, op,
                                                         type); }});
  r.add(CollAlgorithm{
      .name = "binomial",
      .op = CollOp::kScan,
      .description =
          "recursive-doubling prefix over binomial segments (log2 N rounds)",
      .applicable = always,
      .cost_hint = [](std::size_t bytes,
                      int ranks) { return frames(bytes) * log2n(ranks); },
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scan = [](mpi::Proc& p, const mpi::Comm& comm,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type) {
        return scan_doubling(p, comm, data, op, type);
      }});
}

}  // namespace

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(CollAlgorithm algo) {
  if (algo.name.empty()) {
    throw std::invalid_argument("collective algorithm needs a name");
  }
  const bool has_run = [&] {
    switch (algo.op) {
      case CollOp::kBcast:
        return static_cast<bool>(algo.bcast);
      case CollOp::kBarrier:
        return static_cast<bool>(algo.barrier);
      case CollOp::kAllreduce:
        return static_cast<bool>(algo.allreduce);
      case CollOp::kAllgather:
        return static_cast<bool>(algo.allgather);
      case CollOp::kReduce:
        return static_cast<bool>(algo.reduce);
      case CollOp::kGather:
        return static_cast<bool>(algo.gather);
      case CollOp::kScatter:
        return static_cast<bool>(algo.scatter);
      case CollOp::kScan:
        return static_cast<bool>(algo.scan);
      case CollOp::kAlltoall:
        return static_cast<bool>(algo.alltoall);
    }
    return false;
  }();
  if (!has_run) {
    throw std::invalid_argument("algorithm '" + algo.name +
                                "' lacks a run function for op " +
                                to_string(algo.op));
  }
  if (find(algo.op, algo.name) != nullptr) {
    throw std::invalid_argument("duplicate collective algorithm: " +
                                to_string(algo.op) + "/" + algo.name);
  }
  entries_.push_back(std::move(algo));
}

bool Registry::remove(CollOp op, const std::string& name) {
  return std::erase_if(entries_, [&](const CollAlgorithm& a) {
           return a.op == op && a.name == name;
         }) > 0;
}

const CollAlgorithm* Registry::find(CollOp op, const std::string& name) const {
  for (const CollAlgorithm& a : entries_) {
    if (a.op == op && a.name == name) {
      return &a;
    }
  }
  return nullptr;
}

const CollAlgorithm& Registry::get(CollOp op, const std::string& name) const {
  const CollAlgorithm* found = find(op, name);
  if (found == nullptr) {
    std::ostringstream os;
    os << "unknown " << to_string(op) << " algorithm: '" << name
       << "' (registered:";
    for (const std::string& n : names(op)) {
      os << ' ' << n;
    }
    os << ")";
    throw std::invalid_argument(os.str());
  }
  return *found;
}

std::vector<std::string> Registry::names(CollOp op) const {
  std::vector<std::string> out;
  for (const CollAlgorithm& a : entries_) {
    if (a.op == op) {
      out.push_back(a.name);
    }
  }
  return out;
}

std::vector<std::string> Registry::applicable_names(CollOp op,
                                                    const mpi::Comm& comm,
                                                    std::size_t bytes) const {
  std::vector<std::string> out;
  for (const CollAlgorithm& a : entries_) {
    if (a.op == op && (!a.applicable || a.applicable(comm, bytes))) {
      out.push_back(a.name);
    }
  }
  return out;
}

}  // namespace mcmpi::coll
