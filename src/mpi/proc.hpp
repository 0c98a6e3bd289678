#pragma once
/// \file proc.hpp
/// Proc — the per-rank MPI process facade (what rank code programs against).
///
/// Blocking semantics are implemented by parking the rank's simulated
/// process on the request's wait queue; host software overheads (the
/// calibrated per-message syscall/stack costs) are charged here, on the
/// calling rank's virtual clock, exactly once per send and per receive.

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "mpi/comm.hpp"
#include "mpi/engine.hpp"
#include "mpi/mcast_channel.hpp"
#include "mpi/types.hpp"
#include "sim/completion.hpp"
#include "sim/wait.hpp"

namespace mcmpi::mpi {

class World;

class Proc {
 public:
  Proc(World& world, Rank world_rank, inet::UdpStack& udp,
       inet::RdpEndpoint& rdp, SoftwareCosts& costs);
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  Rank rank() const { return world_rank_; }
  int world_size() const;
  World& world() { return world_; }

  /// MPI_COMM_WORLD for this rank.  The handle is bound to this Proc, which
  /// enables the communicator-scoped collective facade (comm.coll()).
  Comm comm_world();

  /// The simulated process this rank's code is currently running on: the
  /// rank's main process, or — while a nonblocking-collective helper fiber
  /// is executing — that helper (valid inside World::run).  Exactly one
  /// context runs at a time, so the resolution is unambiguous.
  sim::SimProcess& self();

  /// RAII registration of a helper fiber serving this rank (nonblocking
  /// collectives): while registered and running, self() resolves to the
  /// helper, so blocking primitives park the helper instead of the rank.
  class HelperScope {
   public:
    HelperScope(Proc& p, sim::SimProcess& helper);
    ~HelperScope();
    HelperScope(const HelperScope&) = delete;
    HelperScope& operator=(const HelperScope&) = delete;

   private:
    Proc& p_;
    sim::SimProcess& helper_;
  };
  SoftwareCosts& costs() { return costs_; }
  inet::UdpStack& udp() { return udp_; }
  Engine& engine() { return *engine_; }

  // ------------------------------------------------------------- p2p
  /// `tier` selects the software-cost path (MPICH layers vs raw UDP); see
  /// CostTier.  It affects timing only, never semantics.
  void send(const Comm& comm, int dst, Tag tag,
            std::span<const std::uint8_t> bytes,
            net::FrameKind kind = net::FrameKind::kData,
            CostTier tier = CostTier::kMpi);

  Buffer recv(const Comm& comm, int src, Tag tag, Status* status = nullptr,
              CostTier tier = CostTier::kMpi);

  /// Fire-and-forget empty control send (bare sendto semantics, e.g. a
  /// scout): charges the send overhead and emits once it has elapsed,
  /// WITHOUT waking the caller in between — the caller's next blocking
  /// operation absorbs the interval.  Equivalent to send() of zero bytes
  /// whenever (a) the message takes the eager path (empty always does) and
  /// (b) the caller's next simulation-visible action is a blocking call —
  /// both asserted/true for the scout protocols that use this.
  void send_control_async(const Comm& comm, int dst, Tag tag,
                          net::FrameKind kind = net::FrameKind::kControl,
                          CostTier tier = CostTier::kRaw);

  /// Fire-and-forget data send (the data-carrying scout of the
  /// scout-combining gather and mcast-scout reduce): charges the send
  /// overhead and emits once it has elapsed without waking the caller, under
  /// the same two conditions as send_control_async — the payload must take
  /// the eager path (asserted against the engine threshold) and the caller's
  /// next simulation-visible action must be a blocking call.  `bytes` is
  /// copied at call time.
  void send_data_async(const Comm& comm, int dst, Tag tag,
                       std::span<const std::uint8_t> bytes,
                       net::FrameKind kind = net::FrameKind::kData,
                       CostTier tier = CostTier::kMpi);

  /// Nonblocking variants; complete with wait().
  std::shared_ptr<SendRequest> isend(
      const Comm& comm, int dst, Tag tag, std::span<const std::uint8_t> bytes,
      net::FrameKind kind = net::FrameKind::kData,
      CostTier tier = CostTier::kMpi);
  std::shared_ptr<RecvRequest> irecv(const Comm& comm, int src, Tag tag);
  void wait(const std::shared_ptr<SendRequest>& request);
  /// Returns the received payload; charges the receive overhead.
  Buffer wait(const std::shared_ptr<RecvRequest>& request,
              Status* status = nullptr, CostTier tier = CostTier::kMpi);
  /// Deadline-bounded wait; nullopt on timeout (the request stays posted and
  /// can be waited on again — used by retransmitting protocols).
  std::optional<Buffer> wait_until(const std::shared_ptr<RecvRequest>& request,
                                   SimTime deadline, Status* status = nullptr,
                                   CostTier tier = CostTier::kMpi);

  /// Completes work another process performs on this rank's behalf —
  /// notably a nonblocking collective's coll::CollRequest (ibcast /
  /// ibarrier / iallreduce): parks until finish()ed.  Returns the result
  /// buffer (iallreduce; empty otherwise).
  Buffer wait(const std::shared_ptr<sim::Completion>& request);

  /// Combined exchange (send and receive may proceed concurrently).
  Buffer sendrecv(const Comm& comm, int dst, Tag send_tag,
                  std::span<const std::uint8_t> bytes, int src, Tag recv_tag,
                  Status* status = nullptr, CostTier tier = CostTier::kMpi);

  /// Non-destructive message inspection (MPI_Iprobe): status of the first
  /// matching not-yet-received message, without consuming it.
  std::optional<Status> iprobe(const Comm& comm, int src, Tag tag);
  /// Blocking variant (MPI_Probe): parks until a matching message arrives.
  Status probe(const Comm& comm, int src, Tag tag);

  // Typed convenience (single values).
  template <typename T>
  void send_value(const Comm& comm, int dst, Tag tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    send(comm, dst, tag, bytes);
  }
  template <typename T>
  T recv_value(const Comm& comm, int src, Tag tag, Status* status = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Buffer bytes = recv(comm, src, tag, status);
    MC_EXPECTS_MSG(bytes.size() == sizeof(T), "typed recv size mismatch");
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  // ----------------------------------------------- communicator management
  /// Collective: duplicates `comm` into a new context (MPI_Comm_dup).
  Comm dup(const Comm& comm);
  /// Collective: partitions `comm` by `color`, ordering by (key, rank)
  /// (MPI_Comm_split).  color < 0 returns an invalid Comm (MPI_UNDEFINED).
  Comm split(const Comm& comm, int color, int key);

  // --------------------------------------------------------- multicast
  /// The rank's channel into `comm`'s multicast group, created on first use
  /// (and kept for the communicator's lifetime — receiver readiness).
  /// `lane` selects one of the communicator's striped groups
  /// (CommInfo::mcast_port(lane)); lane 0 is the classic single-group
  /// channel every non-striped collective uses.
  McastChannel& mcast_channel(const Comm& comm, int lane = 0);

  /// Receive-buffer size for channels created after this call (SO_RCVBUF
  /// analogue; bounds receiver lag before multicast loss).
  void set_mcast_recv_buffer(std::size_t bytes) { mcast_rcvbuf_ = bytes; }
  std::size_t mcast_recv_buffer() const { return mcast_rcvbuf_; }

  /// Set by the cluster when a fault plane with loss/reorder is attached:
  /// algorithm auto-selection must then skip anything not loss-tolerant.
  void set_network_lossy(bool lossy) { network_lossy_ = lossy; }
  bool network_lossy() const { return network_lossy_; }

  /// Per-communicator protocol state for collective implementations
  /// (e.g. the sequencer's history buffer).  One T per (communicator,
  /// type); default-constructed on first access.
  template <typename T>
  T& coll_state(const Comm& comm) {
    auto& slot = coll_state_[{comm.context(), std::type_index(typeid(T))}];
    if (!slot) {
      slot = std::make_shared<T>();
    }
    return *std::static_pointer_cast<T>(slot);
  }

 private:
  friend class World;
  void bind(sim::SimProcess& process) { process_ = &process; }

  World& world_;
  Rank world_rank_;
  inet::UdpStack& udp_;
  SoftwareCosts& costs_;
  std::unique_ptr<Engine> engine_;
  sim::SimProcess* process_ = nullptr;
  /// Live helper fibers (nonblocking collectives); see HelperScope.
  std::vector<sim::SimProcess*> helpers_;
  std::size_t mcast_rcvbuf_ = 256 * 1024;
  bool network_lossy_ = false;
  /// Keyed by (context id, lane): a striped collective holds several live
  /// channels per communicator, one per multicast group it stripes across.
  std::map<std::pair<std::uint32_t, int>, std::unique_ptr<McastChannel>>
      channels_;
  std::map<std::pair<std::uint32_t, std::type_index>, std::shared_ptr<void>>
      coll_state_;
};

}  // namespace mcmpi::mpi
