#include "coll/facade.hpp"

#include <utility>

#include "common/assert.hpp"

namespace mcmpi::coll {

Coll::Coll(mpi::Proc& p, mpi::Comm comm) : p_(p), comm_(std::move(comm)) {
  MC_EXPECTS_MSG(comm_.valid(), "collective on an invalid communicator");
}

const CollAlgorithm& Coll::lookup(CollOp op, std::size_t bytes,
                                  const std::string& algo) const {
  return algo == kAuto ? TuningTable::defaults().select(op, bytes, comm_)
                       : Registry::instance().get(op, algo);
}

std::string Coll::resolve(CollOp op, std::size_t bytes,
                          const std::string& algo) const {
  return lookup(op, bytes, algo).name;
}

const CollAlgorithm& Coll::entry(CollOp op, std::size_t bytes,
                                 const std::string& algo) const {
  const CollAlgorithm& a = lookup(op, bytes, algo);
  MC_EXPECTS_MSG(!a.applicable || a.applicable(comm_, bytes),
                 "algorithm '" + a.name + "' is not applicable here");
  return a;
}

// NOTE on kAuto and broadcast sizes: selection keys on buffer.size(), and
// every rank must resolve to the SAME algorithm — so under kAuto all ranks
// must pass equal-sized buffers (receivers pre-size theirs), mirroring
// MPI's rule that the count argument of MPI_Bcast match on all ranks.
// Explicitly named algorithms have no such requirement.

void Coll::bcast(Buffer& buffer, int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  entry(CollOp::kBcast, buffer.size(), algo).bcast(p_, comm_, buffer, root);
}

void Coll::barrier(const std::string& algo) {
  entry(CollOp::kBarrier, 0, algo).barrier(p_, comm_);
}

Buffer Coll::allreduce(std::span<const std::uint8_t> data, mpi::Op op,
                       mpi::Datatype type, const std::string& algo) {
  return entry(CollOp::kAllreduce, data.size(), algo)
      .allreduce(p_, comm_, data, op, type);
}

std::vector<Buffer> Coll::allgather(std::span<const std::uint8_t> data,
                                    const std::string& algo) {
  return entry(CollOp::kAllgather, data.size(), algo)
      .allgather(p_, comm_, data);
}

Buffer Coll::reduce(std::span<const std::uint8_t> data, mpi::Op op,
                    mpi::Datatype type, int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kReduce, data.size(), algo)
      .reduce(p_, comm_, data, op, type, root);
}

std::vector<Buffer> Coll::gather(std::span<const std::uint8_t> data, int root,
                                 const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kGather, data.size(), algo)
      .gather(p_, comm_, data, root);
}

Buffer Coll::scatter(const std::vector<Buffer>& chunks, int root,
                     std::size_t chunk_bytes, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kScatter, chunk_bytes, algo)
      .scatter(p_, comm_, chunks, root);
}

Buffer Coll::scan(std::span<const std::uint8_t> data, mpi::Op op,
                  mpi::Datatype type, const std::string& algo) {
  return entry(CollOp::kScan, data.size(), algo)
      .scan(p_, comm_, data, op, type);
}

std::vector<Buffer> Coll::alltoall(const std::vector<Buffer>& to_each,
                                   std::size_t block_bytes,
                                   const std::string& algo) {
  return entry(CollOp::kAlltoall, block_bytes, algo)
      .alltoall(p_, comm_, to_each);
}

std::shared_ptr<CollRequest> Coll::spawn_helper(
    const std::string& label, std::function<void(CollRequest&)> body) {
  auto request = std::make_shared<CollRequest>();
  mpi::Proc* proc = &p_;
  // The helper starts at the current virtual instant and runs whenever the
  // rank's main fiber blocks or sleeps — overlap with compute for free.
  p_.self().simulator().spawn(
      "rank" + std::to_string(p_.rank()) + "/" + label,
      [proc, request, body = std::move(body)](sim::SimProcess& helper) {
        const mpi::Proc::HelperScope scope(*proc, helper);
        body(*request);
        request->finish(helper.now());
      });
  return request;
}

std::shared_ptr<CollRequest> Coll::ibcast(Buffer& buffer, int root,
                                          const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  // Resolve on the caller's fiber.
  auto run = entry(CollOp::kBcast, buffer.size(), algo).bcast;
  mpi::Proc* proc = &p_;
  return spawn_helper(
      "ibcast", [run = std::move(run), proc, comm = comm_, buf = &buffer,
                 root](CollRequest&) { run(*proc, comm, *buf, root); });
}

std::shared_ptr<CollRequest> Coll::ibarrier(const std::string& algo) {
  auto run = entry(CollOp::kBarrier, 0, algo).barrier;
  mpi::Proc* proc = &p_;
  return spawn_helper("ibarrier",
                      [run = std::move(run), proc,
                       comm = comm_](CollRequest&) { run(*proc, comm); });
}

std::shared_ptr<CollRequest> Coll::iallreduce(
    std::span<const std::uint8_t> data, mpi::Op op, mpi::Datatype type,
    const std::string& algo) {
  auto run = entry(CollOp::kAllreduce, data.size(), algo).allreduce;
  mpi::Proc* proc = &p_;
  Buffer copy(data.begin(), data.end());
  return spawn_helper(
      "iallreduce", [run = std::move(run), proc, comm = comm_,
                     copy = std::move(copy), op, type](CollRequest& request) {
        request.result() = run(*proc, comm, copy, op, type);
      });
}

std::shared_ptr<CollRequest> Coll::ireduce(std::span<const std::uint8_t> data,
                                           mpi::Op op, mpi::Datatype type,
                                           int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  auto run = entry(CollOp::kReduce, data.size(), algo).reduce;
  mpi::Proc* proc = &p_;
  Buffer copy(data.begin(), data.end());
  return spawn_helper("ireduce",
                      [run = std::move(run), proc, comm = comm_,
                       copy = std::move(copy), op, type,
                       root](CollRequest& request) {
                        request.result() = run(*proc, comm, copy, op, type,
                                               root);
                      });
}

std::shared_ptr<CollRequest> Coll::igather(std::span<const std::uint8_t> data,
                                           int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  auto run = entry(CollOp::kGather, data.size(), algo).gather;
  mpi::Proc* proc = &p_;
  Buffer copy(data.begin(), data.end());
  return spawn_helper("igather",
                      [run = std::move(run), proc, comm = comm_,
                       copy = std::move(copy), root](CollRequest& request) {
                        request.blocks() = run(*proc, comm, copy, root);
                      });
}

std::shared_ptr<CollRequest> Coll::iscatter(const std::vector<Buffer>& chunks,
                                            int root, std::size_t chunk_bytes,
                                            const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  auto run = entry(CollOp::kScatter, chunk_bytes, algo).scatter;
  mpi::Proc* proc = &p_;
  return spawn_helper("iscatter",
                      [run = std::move(run), proc, comm = comm_,
                       chunks = chunks, root](CollRequest& request) {
                        request.result() = run(*proc, comm, chunks, root);
                      });
}

std::shared_ptr<CollRequest> Coll::ialltoall(
    const std::vector<Buffer>& to_each, std::size_t block_bytes,
    const std::string& algo) {
  auto run = entry(CollOp::kAlltoall, block_bytes, algo).alltoall;
  mpi::Proc* proc = &p_;
  return spawn_helper("ialltoall",
                      [run = std::move(run), proc, comm = comm_,
                       to_each = to_each](CollRequest& request) {
                        request.blocks() = run(*proc, comm, to_each);
                      });
}

}  // namespace mcmpi::coll

namespace mcmpi::mpi {

coll::Coll Comm::coll() const {
  MC_EXPECTS_MSG(proc_ != nullptr,
                 "comm.coll() needs a Proc-bound communicator handle "
                 "(comm_world / dup / split)");
  return coll::Coll(*proc_, *this);
}

}  // namespace mcmpi::mpi
