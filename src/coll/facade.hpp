#pragma once
/// \file facade.hpp
/// Coll — the communicator-scoped collective facade.
///
/// The one entry point application code programs against:
///
///     comm.coll().bcast(data, /*root=*/0);            // tuned auto pick
///     comm.coll().bcast(data, 0, "mcast-binary");     // explicit algorithm
///     comm.coll().barrier();
///     auto sum = comm.coll().allreduce(bytes, mpi::Op::kSum,
///                                      mpi::Datatype::kInt64);
///     auto req = comm.coll().ibcast(data, 0);         // nonblocking
///     ...compute...
///     p.wait(req);
///
/// Algorithms are resolved by name through coll::Registry; the default
/// (kAuto) consults the tuning table (TuningTable::defaults()), which
/// encodes the paper's message-size × group-size crossover points.  The
/// facade carries the full collective surface: bcast / barrier / allreduce
/// / allgather / reduce / gather / scatter / scan, with nonblocking
/// i-variants.  The per-algorithm headers (mcast.hpp, mpich.hpp, ...)
/// remain the implementation layer for primitives and custom protocol
/// knobs.

#include <memory>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "coll/request.hpp"
#include "coll/tuning.hpp"

namespace mcmpi::coll {

class Coll {
 public:
  /// Usually obtained as comm.coll(); constructible directly for callers
  /// holding a Proc.
  Coll(mpi::Proc& p, mpi::Comm comm);

  // ------------------------------------------------------------ blocking
  /// Broadcast `buffer` (input at root, output elsewhere).
  void bcast(Buffer& buffer, int root, const std::string& algo = kAuto);

  /// Synchronize all ranks.
  void barrier(const std::string& algo = kAuto);

  /// Returns the reduced vector on every rank.  `data` holds elements of
  /// `type`.
  Buffer allreduce(std::span<const std::uint8_t> data, mpi::Op op,
                   mpi::Datatype type, const std::string& algo = kAuto);

  /// Returns comm.size() blocks indexed by comm rank (blocks[r] is rank
  /// r's contribution).  A lossy algorithm (mcast-blast) may leave blocks
  /// it failed to receive empty.
  std::vector<Buffer> allgather(std::span<const std::uint8_t> data,
                                const std::string& algo = kAuto);

  /// Returns the reduced vector at `root` (empty elsewhere).  Operands are
  /// combined in communicator rank order, so non-commutative custom ops
  /// (mpi::Op::kCustom) see MPI's canonical reduction order on every
  /// algorithm.
  Buffer reduce(std::span<const std::uint8_t> data, mpi::Op op,
                mpi::Datatype type, int root, const std::string& algo = kAuto);

  /// Returns comm.size() blocks at `root` (indexed by comm rank), an empty
  /// vector elsewhere.  Under kAuto every rank must pass equal-sized data
  /// (MPI's matching-count rule; the kAuto size rule above).
  std::vector<Buffer> gather(std::span<const std::uint8_t> data, int root,
                             const std::string& algo = kAuto);

  /// Scatters `chunks` (root-only input, comm.size() entries; ignored
  /// elsewhere) and returns this rank's chunk.  `chunk_bytes` is the
  /// per-rank chunk size every rank agrees on — the MPI recvcount analogue
  /// and the size kAuto keys on; explicitly named algorithms may pass 0.
  Buffer scatter(const std::vector<Buffer>& chunks, int root,
                 std::size_t chunk_bytes = 0, const std::string& algo = kAuto);

  /// Inclusive prefix reduction (MPI_Scan): rank r gets op over ranks 0..r.
  Buffer scan(std::span<const std::uint8_t> data, mpi::Op op,
              mpi::Datatype type, const std::string& algo = kAuto);

  /// Personalized all-to-all (MPI_Alltoall): `to_each[i]` goes to comm rank
  /// i (comm.size() entries); returns comm.size() blocks, block r being
  /// what rank r sent to this rank.  `block_bytes` is the per-destination
  /// block size every rank agrees on — the MPI sendcount analogue and the
  /// size kAuto keys on; explicitly named algorithms may pass 0.
  std::vector<Buffer> alltoall(const std::vector<Buffer>& to_each,
                               std::size_t block_bytes = 0,
                               const std::string& algo = kAuto);

  // --------------------------------------------------------- nonblocking
  /// Starts the broadcast on a helper fiber and returns immediately (in
  /// virtual time).  `buffer` must stay alive and untouched until the
  /// returned request completes via Proc::wait.  Until then the caller
  /// must not run conflicting traffic on this communicator (the collective
  /// uses the communicator's context, as MPI's ordering rules assume).
  std::shared_ptr<CollRequest> ibcast(Buffer& buffer, int root,
                                      const std::string& algo = kAuto);

  std::shared_ptr<CollRequest> ibarrier(const std::string& algo = kAuto);

  /// Result delivered in request->result() (and returned by Proc::wait).
  /// `data` is copied at call time, so it need not outlive the call.
  std::shared_ptr<CollRequest> iallreduce(std::span<const std::uint8_t> data,
                                          mpi::Op op, mpi::Datatype type,
                                          const std::string& algo = kAuto);

  /// Root's result in request->result() (empty elsewhere); `data` is
  /// copied at call time.
  std::shared_ptr<CollRequest> ireduce(std::span<const std::uint8_t> data,
                                       mpi::Op op, mpi::Datatype type,
                                       int root,
                                       const std::string& algo = kAuto);

  /// Root's blocks in request->blocks() (empty elsewhere); `data` is
  /// copied at call time.
  std::shared_ptr<CollRequest> igather(std::span<const std::uint8_t> data,
                                       int root,
                                       const std::string& algo = kAuto);

  /// This rank's chunk in request->result(); `chunks` is copied at call
  /// time.
  std::shared_ptr<CollRequest> iscatter(const std::vector<Buffer>& chunks,
                                        int root, std::size_t chunk_bytes = 0,
                                        const std::string& algo = kAuto);

  /// Received blocks in request->blocks(); `to_each` is copied at call
  /// time.
  std::shared_ptr<CollRequest> ialltoall(const std::vector<Buffer>& to_each,
                                         std::size_t block_bytes = 0,
                                         const std::string& algo = kAuto);

  // ----------------------------------------------------------- selection
  /// The algorithm `algo` resolves to for a payload of `bytes` — kAuto goes
  /// through the tuning table, anything else is looked up in the registry
  /// (throws std::invalid_argument when unknown) and returned as-is.
  /// Exposed so tests and benches can assert on the tuned pick without
  /// running the collective.
  std::string resolve(CollOp op, std::size_t bytes,
                      const std::string& algo = kAuto) const;

 private:
  /// The entry `algo` names, or kAuto's pick.
  const CollAlgorithm& lookup(CollOp op, std::size_t bytes,
                              const std::string& algo) const;
  /// lookup(), which must be applicable to (comm, bytes).
  const CollAlgorithm& entry(CollOp op, std::size_t bytes,
                             const std::string& algo) const;
  std::shared_ptr<CollRequest> spawn_helper(
      const std::string& label,
      std::function<void(CollRequest&)> body);

  mpi::Proc& p_;
  mpi::Comm comm_;
};

}  // namespace mcmpi::coll
