#pragma once
/// \file engine.hpp
/// Point-to-point message engine: envelope matching, eager and rendezvous
/// protocols (the Abstract-Device-Interface analogue of MPICH).
///
/// Every rank owns one Engine wired to its host's reliable transport.  The
/// engine runs entirely on simulator events (transport upcalls); blocking
/// happens above it, in Proc, which parks the rank process on the request's
/// wait queue.
///
/// Semantics guaranteed (and tested):
///   * matching on (context, source, tag) with MPI_ANY_SOURCE / MPI_ANY_TAG
///     wildcards;
///   * non-overtaking: messages between one (sender, receiver, context)
///     pair match posted receives in send order (the transport delivers
///     in order; posted and unexpected queues are FIFO);
///   * eager sends complete locally; messages above the eager threshold use
///     a rendezvous (RTS/CTS/DATA) exchange, so large sends complete only
///     once the receiver has posted a buffer.

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "inet/rdp.hpp"
#include "mpi/comm.hpp"
#include "mpi/types.hpp"
#include "sim/wait.hpp"

namespace mcmpi::mpi {

/// State of one receive operation.  Owned jointly by the poster (Proc) and
/// the engine while pending.
class RecvRequest {
 public:
  bool complete() const { return complete_; }
  const Status& status() const { return status_; }
  Buffer& data() { return data_; }
  sim::WaitQueue& wait_queue() { return wq_; }

 private:
  friend class Engine;
  std::shared_ptr<const CommInfo> comm_;
  int src_comm_ = kAnySource;  // wildcard-capable matching key
  Tag tag_ = kAnyTag;
  bool complete_ = false;
  bool in_rendezvous_ = false;
  Status status_;
  Buffer data_;
  sim::WaitQueue wq_;
};

/// State of one send operation.
class SendRequest {
 public:
  bool complete() const { return complete_; }
  sim::WaitQueue& wait_queue() { return wq_; }

 private:
  friend class Engine;
  bool complete_ = false;
  sim::WaitQueue wq_;
};

struct EngineStats {
  std::uint64_t eager_sends = 0;
  std::uint64_t rendezvous_sends = 0;
  std::uint64_t unexpected_messages = 0;
  std::uint64_t matched_from_unexpected = 0;
};

class Engine {
 public:
  /// `addr_of` maps world ranks to host addresses.
  Engine(Rank world_rank, inet::RdpEndpoint& rdp,
         std::function<inet::IpAddr(Rank)> addr_of);

  Rank world_rank() const { return world_rank_; }

  /// Messages with payloads larger than this use the rendezvous protocol.
  void set_eager_threshold(std::int64_t bytes) { eager_threshold_ = bytes; }
  std::int64_t eager_threshold() const { return eager_threshold_; }

  /// Starts a send on communicator `info` to comm-rank `dst`.
  std::shared_ptr<SendRequest> start_send(
      const std::shared_ptr<const CommInfo>& info, int dst_comm, Tag tag,
      std::span<const std::uint8_t> bytes, net::FrameKind kind);

  /// Posts a receive on communicator `info` from comm-rank `src` (or
  /// kAnySource) with `tag` (or kAnyTag).
  std::shared_ptr<RecvRequest> post_recv(
      const std::shared_ptr<const CommInfo>& info, int src_comm, Tag tag);

  /// Async sink: eager messages carrying internal tag `tag` (<
  /// kFirstInternalTag) on context `context` are handed to `handler` the
  /// moment they arrive, bypassing matching.  Used by protocols that must
  /// service requests while the owning rank is busy elsewhere (e.g. a
  /// nack-mcast root answering retransmission NACKs).  The payload is a
  /// zero-copy view of the transport message.
  using SinkHandler = std::function<void(Rank src_world, PayloadRef data)>;
  void set_sink(std::uint32_t context, Tag tag, SinkHandler handler);
  void clear_sink(std::uint32_t context, Tag tag);

  /// One message removed by drain_unexpected: its source and a zero-copy
  /// view of the transport payload (empty for bare scouts).
  struct DrainedEager {
    Rank src_world;
    PayloadRef data;
  };

  /// Removes every unexpected eager message carrying internal tag `tag` on
  /// `context` and returns them in arrival order.  Lets a newly installed
  /// sink absorb the backlog that arrived before it existed (the scout
  /// gather: scouts that beat the gathering rank to the engine; the
  /// data-carrying variants keep the payload views).
  std::vector<DrainedEager> drain_unexpected(std::uint32_t context, Tag tag);

  /// Non-destructive match against the unexpected queue (MPI_Iprobe): the
  /// Status of the first matching not-yet-received message, or nullopt.
  /// For rendezvous messages the count comes from the RTS length field.
  std::optional<Status> iprobe(const std::shared_ptr<const CommInfo>& info,
                               int src_comm, Tag tag) const;

  /// Wait queue notified whenever a new unexpected message arrives
  /// (blocking probe parks here between iprobe scans).
  sim::WaitQueue& arrivals() { return arrivals_; }

  const EngineStats& stats() const { return stats_; }

 private:
  enum class MsgType : std::uint8_t {
    kEager = 1,
    kRts = 2,
    kCts = 3,
    kRdata = 4,
  };

  struct Unexpected {
    MsgType type;
    std::uint32_t context;
    Rank src_world;
    Tag tag;
    std::uint64_t rdz_id;
    inet::IpAddr src_addr;
    PayloadRef data;  // view of the transport message, shared not copied
  };

  struct PendingSend {
    std::shared_ptr<SendRequest> request;
    inet::IpAddr dst_addr;
    PayloadRef payload;
    net::FrameKind kind;
    std::uint32_t context;
    Tag tag;
  };

  void on_message(inet::IpAddr src, PayloadRef message);
  bool matches(const RecvRequest& req, std::uint32_t context, Rank src_world,
               Tag tag) const;
  void complete_recv(const std::shared_ptr<RecvRequest>& req, Rank src_world,
                     Tag tag, const PayloadRef& data);
  void accept_rts(const std::shared_ptr<RecvRequest>& req,
                  const Unexpected& rts);
  PooledBuffer pack(MsgType type, std::uint32_t context, Tag tag,
                    std::uint64_t rdz_id,
                    std::span<const std::uint8_t> bytes) const;

  Rank world_rank_;
  inet::RdpEndpoint& rdp_;
  std::function<inet::IpAddr(Rank)> addr_of_;
  std::int64_t eager_threshold_ = 64 * 1024;

  std::list<std::shared_ptr<RecvRequest>> posted_;
  std::deque<Unexpected> unexpected_;
  std::map<std::pair<std::uint32_t, Tag>, SinkHandler> sinks_;
  sim::WaitQueue arrivals_;
  std::map<std::uint64_t, PendingSend> pending_sends_;
  std::map<std::uint64_t, std::shared_ptr<RecvRequest>> pending_rdz_recvs_;
  std::uint64_t next_rdz_id_ = 1;
  EngineStats stats_;
};

}  // namespace mcmpi::mpi
