#include "coll/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "coll/hier.hpp"
#include "coll/limits.hpp"
#include "coll/mcast.hpp"
#include "coll/mcast_allgather.hpp"
#include "coll/mcast_reduce.hpp"
#include "coll/mcast_stream.hpp"
#include "coll/mpich.hpp"
#include "coll/scatter_allgather.hpp"
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

bool always(const mpi::Comm&, std::size_t) { return true; }

/// The hierarchical algorithms serve communicators across segments; on one
/// segment they would recurse into themselves.
bool spans_segments(const mpi::Comm& comm, std::size_t) {
  return comm.layout().span() >= 2;
}

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

}  // namespace

Registry::Registry() {
  // ----------------------------------------------------------- broadcast
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kBcast,
      .description = "MPICH binomial tree over point-to-point (Fig. 2)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mpich(p, comm, buffer, root); }});
  add(CollAlgorithm{
      .name = "mcast-binary",
      .op = CollOp::kBcast,
      .description = "binomial scout gather, then one IP multicast (Fig. 3)",
      .applicable = fits_mcast_datagram,
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mcast_binary(p, comm, buffer, root); }});
  add(CollAlgorithm{
      .name = "mcast-linear",
      .op = CollOp::kBcast,
      .description = "linear scout gather, then one IP multicast (Fig. 4)",
      .applicable = fits_mcast_datagram,
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_mcast_linear(p, comm, buffer, root); }});
  add(CollAlgorithm{
      .name = "ack-mcast",
      .op = CollOp::kBcast,
      .description =
          "multicast first, resend until all ACK (ORNL/PVM negative result)",
      .applicable = fits_mcast_datagram,
      .loss_tolerant = true,  // resends until every receiver ACKs
      .bcast = bcast_preset<StreamPreset::kAck>});
  add(CollAlgorithm{
      .name = "sequencer",
      .op = CollOp::kBcast,
      .description = "sequencer-ordered multicast (Orca-style): hand off "
                     "to rank 0, which orders it as nack-mcast",
      .applicable = fits_mcast_datagram,
      .loss_tolerant = true,  // nack-mcast recovery from the sequencer
      // The root hands its payload to the sequencer (comm rank 0) over
      // point-to-point; the sequencer multicasts it as nack-mcast, and the
      // root takes its own broadcast back as an ordinary receiver (the Orca
      // "commit": the order is only fixed once it comes back).
      .bcast =
          [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer, int root) {
            if (root != 0 && comm.rank() == root) {
              p.send(comm, 0, mpi::kTagSequencer, buffer,
                     net::FrameKind::kData, mpi::CostTier::kRaw);
            } else if (root != 0 && comm.rank() == 0) {
              buffer = p.recv(comm, root, mpi::kTagSequencer, nullptr,
                              mpi::CostTier::kRaw);
            }
            bcast_stream(p, comm, buffer, /*root=*/0, StreamPreset::kNack);
          }});
  add(CollAlgorithm{
      .name = "nack-mcast",
      .op = CollOp::kBcast,
      .description = "receiver-driven NACK multicast: blast the payload, "
                     "receivers NACK gaps, sender retransmits with "
                     "aggregation/suppression (SRM-style)",
      .applicable = fits_mcast_datagram,
      .loss_tolerant = true,  // the point: NACK-driven retransmission
      .bcast = bcast_preset<StreamPreset::kNack>});
  add(CollAlgorithm{
      .name = "fec-mcast",
      .op = CollOp::kBcast,
      .description = "FEC-coded multicast: k data + r Reed–Solomon parity "
                     "chunks per window, any k of k+r reconstruct — zero "
                     "recovery round trips up to r losses, NACK fallback "
                     "beyond",
      .applicable = fits_fec_blast,
      .loss_tolerant = true,  // the point: in-window erasure recovery
      .bcast = bcast_preset<StreamPreset::kFec>});
  add(CollAlgorithm{
      .name = "scatter-allgather",
      .op = CollOp::kBcast,
      .description =
          "scatter + ring allgather for long messages (van de Geijn)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .bcast =
          [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer, int root) {
            bcast_scatter_allgather(p, comm, buffer, root);
          }});
  add(CollAlgorithm{
      .name = "mcast-segmented",
      .op = CollOp::kBcast,
      .description = "segmented pipelined multicast: chunked stream on the "
                     "communicator's one group, sliding ack window — no "
                     "payload size ceiling",
      .applicable = always,
      .loss_tolerant = true,  // per-chunk acks + timeout retransmission
      .bcast = bcast_preset<StreamPreset::kSegmented>});
  add(CollAlgorithm{
      .name = "hier-mcast",
      .op = CollOp::kBcast,
      .description = "hierarchical: root -> segment leaders over the trunks "
                     "once, then per-segment multicast (MagPIe-style)",
      .applicable = spans_segments,
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .bcast = [](mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                  int root) { bcast_hier(p, comm, buffer, root); }});

  // ------------------------------------------------------------- barrier
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kBarrier,
      .description = "MPICH three-phase point-to-point barrier (Fig. 5)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_mpich(p, comm); }});
  add(CollAlgorithm{
      .name = "mcast",
      .op = CollOp::kBarrier,
      .description = "scout reduction + one multicast release (§3.2)",
      .applicable = always,
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_mcast(p, comm); }});
  add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kBarrier,
      .description = "hierarchical: intra fold to segment leaders, two flat "
                     "trunk rounds among leaders, intra release",
      .applicable = spans_segments,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .barrier = [](mpi::Proc& p,
                    const mpi::Comm& comm) { barrier_hier(p, comm); }});

  // ----------------------------------------------------------- allreduce
  // MPICH-1.x shape: binomial reduce to rank 0, then broadcast — with the
  // broadcast stage selectable, so the multicast win compounds (the
  // paper's anticipated extension).  One entry per broadcast stage.
  for (const char* stage : {"mpich", "mcast-binary", "mcast-linear"}) {
    add(CollAlgorithm{
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
  add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kAllreduce,
      .description = "hierarchical: intra reduce to segment leaders, leader "
                     "combine over the trunks, intra release broadcast",
      // Contiguous segment blocks keep the leader combine in comm rank
      // order — required for non-commutative custom ops.
      .applicable =
          [](const mpi::Comm& comm, std::size_t bytes) {
            return spans_segments(comm, bytes) && comm.layout().contiguous;
          },
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .allreduce = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data, mpi::Op op,
                      mpi::Datatype type) {
        return allreduce_hier(p, comm, data, op, type);
      }});

  // ----------------------------------------------------------- allgather
  add(CollAlgorithm{
      .name = "ring",
      .op = CollOp::kAllgather,
      .description = "point-to-point ring allgather (N-1 shift steps)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mpich(p, comm, data);
      }});
  add(CollAlgorithm{
      .name = "mcast-lockstep",
      .op = CollOp::kAllgather,
      .description =
          "each block multicast once, in rank order behind one barrier",
      .applicable = fits_mcast_datagram,
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mcast(p, comm, data, AllgatherMode::kLockstep).blocks;
      }});
  add(CollAlgorithm{
      .name = "mcast-blast",
      .op = CollOp::kAllgather,
      .description = "every rank multicasts at once — fastest pacing, may "
                     "drop blocks to receiver overrun (§2/§5 hazard)",
      .applicable = fits_mcast_datagram,
      .lossy = true,
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_mcast(p, comm, data, AllgatherMode::kBlast).blocks;
      }});
  add(CollAlgorithm{
      .name = "mcast-segmented",
      .op = CollOp::kAllgather,
      .description = "N rank-ordered segmented pipelined multicast streams — "
                     "no block size ceiling",
      .applicable = always,
      .loss_tolerant = true,  // per-chunk acks + timeout retransmission
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_stream(p, comm, data, StreamPreset::kSegmented);
      }});
  add(CollAlgorithm{
      .name = "hier",
      .op = CollOp::kAllgather,
      .description = "hierarchical: intra gather to segment leaders, leader "
                     "bundle exchange over the trunks (each byte crosses "
                     "each trunk once), intra release broadcast",
      .applicable = spans_segments,
      .loss_tolerant = true,  // reliable trunks; intra kAuto stays tolerant
      .allgather = [](mpi::Proc& p, const mpi::Comm& comm,
                      std::span<const std::uint8_t> data) {
        return allgather_hier(p, comm, data);
      }});

  // -------------------------------------------------------------- reduce
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kReduce,
      .description = "binomial-tree reduction over point-to-point",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .reduce = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data, mpi::Op op,
                   mpi::Datatype type,
                   int root) { return reduce_mpich(p, comm, data, op, type,
                                                   root); }});

  // -------------------------------------------------------------- gather
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kGather,
      .description = "linear gather over blocking point-to-point sends",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .gather = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data,
                   int root) { return gather_mpich(p, comm, data, root); }});
  add(CollAlgorithm{
      .name = "scout-combining",
      .op = CollOp::kGather,
      .description = "fire-and-forget data scouts, aggregate charged "
                     "collection at the root",
      .applicable = fits_eager,
      .gather = [](mpi::Proc& p, const mpi::Comm& comm,
                   std::span<const std::uint8_t> data, int root) {
        return gather_scout_combining(p, comm, data, root);
      }});

  // ------------------------------------------------------------- scatter
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kScatter,
      .description = "linear scatter over blocking point-to-point sends",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scatter = [](mpi::Proc& p, const mpi::Comm& comm,
                    const std::vector<Buffer>& chunks,
                    int root) { return scatter_mpich(p, comm, chunks,
                                                     root); }});

  // ------------------------------------------------------------ alltoall
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kAlltoall,
      .description = "pairwise-shift alltoall over point-to-point sendrecv",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .alltoall = [](mpi::Proc& p, const mpi::Comm& comm,
                     const std::vector<Buffer>& to_each) {
        return alltoall_mpich(p, comm, to_each);
      }});

  // ---------------------------------------------------------------- scan
  add(CollAlgorithm{
      .name = "mpich",
      .op = CollOp::kScan,
      .description = "linear-chain inclusive prefix (MPICH 1.x)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scan = [](mpi::Proc& p, const mpi::Comm& comm,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type) { return scan_mpich(p, comm, data, op,
                                                         type); }});
  add(CollAlgorithm{
      .name = "binomial",
      .op = CollOp::kScan,
      .description =
          "recursive-doubling prefix over binomial segments (log2 N rounds)",
      .applicable = always,
      .loss_tolerant = true,  // pure p2p over the reliable transport
      .scan = [](mpi::Proc& p, const mpi::Comm& comm,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type) {
        return scan_doubling(p, comm, data, op, type);
      }});
}

const Registry& Registry::instance() {
  static const Registry* registry = new Registry();
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
