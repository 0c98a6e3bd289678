#pragma once
/// \file types.hpp
/// Fundamental MPI-like types shared across the mini-MPI ("mcmpi") core.

#include <cstdint>

#include "common/time.hpp"

namespace mcmpi::mpi {

using Rank = int;
using Tag = std::int32_t;

inline constexpr Rank kAnySource = -1;
inline constexpr Tag kAnyTag = -1;

/// Tags below this value are reserved for internal protocols (collectives,
/// scout synchronization), mirroring how MPICH hides its internal traffic
/// from user tag space.
inline constexpr Tag kFirstInternalTag = -100;
inline constexpr Tag kTagScout = -101;      // multicast readiness scouts
inline constexpr Tag kTagBarrier = -102;    // MPICH barrier messages
inline constexpr Tag kTagCollective = -103; // tree collectives over p2p
inline constexpr Tag kTagSequencer = -105;  // Orca-style sequencer protocol
inline constexpr Tag kTagSeqNack = -106;    // sequencer retransmission NACKs
inline constexpr Tag kTagReducePartial = -107;  // mcast-scout reduce partials
inline constexpr Tag kTagGatherBlock = -108;    // scout-combining gather blocks
inline constexpr Tag kTagChunkAck = -109;       // stream engine chunk acks
inline constexpr Tag kTagChunkNack = -110;      // stream engine NACKs
inline constexpr Tag kTagHier = -111;           // hierarchical inter-leader phase

/// Returned by receive operations.
struct Status {
  Rank source = kAnySource;  // communicator rank of the sender
  Tag tag = kAnyTag;
  std::size_t count = 0;  // bytes received
};

/// Reduction operators (MPI_Op subset).  kCustom is the MPI_Op_create
/// analogue: a process-global user function registered via set_custom_op
/// (datatype.hpp); it is treated as non-commutative, so every reduction
/// algorithm must apply operands in communicator rank order for it.
enum class Op : std::uint8_t {
  kSum,
  kProd,
  kMax,
  kMin,
  kLand,
  kLor,
  kBand,
  kBor,
  kCustom,
};

/// Element types understood by the reduction engine (MPI_Datatype subset;
/// everything else moves as raw bytes).
enum class Datatype : std::uint8_t {
  kByte,
  kInt32,
  kInt64,
  kDouble,
};

/// Which software path a message takes.  The paper's implementation
/// "bypass[es] all the MPICH layers" (Fig. 1), so its control traffic is a
/// bare sendto/recvfrom, while the MPICH baseline pays the full
/// TCP + ADI + request-machinery cost per message, and the multicast *data*
/// path pays its own (heavier) per-message cost for buffer handling.
/// Reproducing Figs. 7-10 and Fig. 13 simultaneously requires these tiers:
/// with a single uniform cost they are mutually inconsistent (see
/// cluster/calibration.hpp).
enum class CostTier : std::uint8_t {
  kMpi,        // MPICH point-to-point path (TCP + MPI layers)
  kRaw,        // raw UDP control path (scouts, ACKs, NACKs, releases)
  kMcastData,  // multicast data path (group send/delivery of user buffers)
};

/// Host software cost model: what entering the kernel, copying and
/// processing a message costs on a given machine.  The cluster layer
/// provides a calibrated implementation (per-host CPU scaling + jitter);
/// correctness tests use ZeroCosts.
class SoftwareCosts {
 public:
  virtual ~SoftwareCosts() = default;
  virtual SimTime send_overhead(std::int64_t bytes, CostTier tier) = 0;
  virtual SimTime recv_overhead(std::int64_t bytes, CostTier tier) = 0;
};

class ZeroCosts final : public SoftwareCosts {
 public:
  SimTime send_overhead(std::int64_t, CostTier) override { return kTimeZero; }
  SimTime recv_overhead(std::int64_t, CostTier) override { return kTimeZero; }
};

}  // namespace mcmpi::mpi
