#pragma once
/// \file registry.hpp
/// String-keyed algorithm registry for the collective layer.
///
/// Every collective algorithm — the paper's mpich baseline and multicast
/// scout variants, the related-work ack-mcast protocol and sequencer (a
/// point-to-point handoff in front of nack-mcast), the van de Geijn
/// scatter-allgather extension, the multicast allgather pacing
/// disciplines — registers one uniform CollAlgorithm entry: a run function
/// per operation, an applicability predicate, and the lossy /
/// loss_tolerant flags.  Benches and tests sweep the registry instead of
/// hardcoded enum lists, so a newly registered algorithm is swept and
/// tested for free; the kAuto policy (tuning.hpp) picks among the same
/// entries, from one rule table.
///
/// The registry is built once, on first use (no static-initialization-order
/// games), and is read-only after that: entries never move, so the tuning
/// table and callers may hold pointers to them.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "mpi/datatype.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Collective operations the registry dispatches.
enum class CollOp {
  kBcast,
  kBarrier,
  kAllreduce,
  kAllgather,
  kReduce,
  kGather,
  kScatter,
  kScan,
  kAlltoall,
};

std::string to_string(CollOp op);

/// Every CollOp, in declaration order (sweep helpers, table checks).
inline constexpr CollOp kAllCollOps[] = {
    CollOp::kBcast,  CollOp::kBarrier, CollOp::kAllreduce, CollOp::kAllgather,
    CollOp::kReduce, CollOp::kGather,  CollOp::kScatter,   CollOp::kScan,
    CollOp::kAlltoall,
};

/// One registered algorithm.  Exactly one run function — the one matching
/// `op` — is set.
struct CollAlgorithm {
  std::string name;  ///< registry key, e.g. "mcast-binary"
  CollOp op = CollOp::kBcast;
  std::string description;

  /// May this algorithm serve (comm, payload bytes)?  Null means always.
  /// kAuto and the sweep helpers skip inapplicable entries; direct
  /// selection of an inapplicable algorithm is a precondition violation.
  std::function<bool(const mpi::Comm&, std::size_t bytes)> applicable;

  /// Algorithms that may drop payload under load (blast allgather) are
  /// never picked by kAuto — building a TuningTable rejects a rule naming
  /// one — and are only correctness-checked on the blocks they deliver.
  bool lossy = false;

  /// Recovers from dropped / reordered / duplicated frames (reliable p2p
  /// transport, or an explicit multicast recovery protocol).  On a lossy
  /// network (Proc::network_lossy()) kAuto skips everything else, and the
  /// fault conformance sweep checks exactly these entries.
  bool loss_tolerant = false;

  // --- run functions (one set, per op) ---
  std::function<void(mpi::Proc&, const mpi::Comm&, Buffer& buffer, int root)>
      bcast;
  std::function<void(mpi::Proc&, const mpi::Comm&)> barrier;
  std::function<Buffer(mpi::Proc&, const mpi::Comm&,
                       std::span<const std::uint8_t> data, mpi::Op op,
                       mpi::Datatype type)>
      allreduce;
  /// Returns comm.size() blocks, indexed by comm rank (lossy entries may
  /// leave blocks empty).
  std::function<std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                                    std::span<const std::uint8_t> data)>
      allgather;
  /// Returns the reduced vector at `root`, empty elsewhere.  Operands are
  /// combined in communicator rank order (observable for non-commutative
  /// custom ops).
  std::function<Buffer(mpi::Proc&, const mpi::Comm&,
                       std::span<const std::uint8_t> data, mpi::Op op,
                       mpi::Datatype type, int root)>
      reduce;
  /// Returns comm.size() blocks at `root` (indexed by comm rank), an empty
  /// vector elsewhere.
  std::function<std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                                    std::span<const std::uint8_t> data,
                                    int root)>
      gather;
  /// `chunks` is root-only input (comm.size() entries, ignored elsewhere);
  /// returns this rank's chunk.
  std::function<Buffer(mpi::Proc&, const mpi::Comm&,
                       const std::vector<Buffer>& chunks, int root)>
      scatter;
  /// Inclusive prefix reduction: rank r returns op over ranks 0..r.
  std::function<Buffer(mpi::Proc&, const mpi::Comm&,
                       std::span<const std::uint8_t> data, mpi::Op op,
                       mpi::Datatype type)>
      scan;
  /// Personalized all-to-all: `to_each[i]` goes to comm rank i (comm.size()
  /// entries); returns comm.size() blocks, block r being what rank r sent
  /// to this rank.
  std::function<std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                                    const std::vector<Buffer>& to_each)>
      alltoall;
};

/// Process-wide algorithm registry: the built-in set, immutable once built
/// (so every shard's thread may read it).
class Registry {
 public:
  /// The registry, with the built-in algorithm set registered.
  static const Registry& instance();

  /// Lookup; throws std::invalid_argument listing the registered names
  /// when (op, name) is unknown.
  const CollAlgorithm& get(CollOp op, const std::string& name) const;
  const CollAlgorithm* find(CollOp op, const std::string& name) const;

  /// Registered names for `op`, in registration order.
  std::vector<std::string> names(CollOp op) const;

  /// Names for `op` whose predicate accepts (comm, bytes).
  std::vector<std::string> applicable_names(CollOp op, const mpi::Comm& comm,
                                            std::size_t bytes) const;

  /// All entries (every op), in registration order.
  const std::vector<CollAlgorithm>& entries() const { return entries_; }

 private:
  Registry();  // registers the built-in set

  /// Registers `algo`; throws std::invalid_argument on a duplicate
  /// (op, name) or a missing/mismatched run function.
  void add(CollAlgorithm algo);

  std::vector<CollAlgorithm> entries_;
};

}  // namespace mcmpi::coll
