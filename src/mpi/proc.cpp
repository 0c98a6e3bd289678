#include "mpi/proc.hpp"

#include <algorithm>
#include <tuple>

#include "common/assert.hpp"
#include "mpi/world.hpp"

namespace mcmpi::mpi {

Proc::Proc(World& world, Rank world_rank, inet::UdpStack& udp,
           inet::RdpEndpoint& rdp, SoftwareCosts& costs)
    : world_(world), world_rank_(world_rank), udp_(udp), costs_(costs) {
  engine_ = std::make_unique<Engine>(
      world_rank, rdp, [&world](Rank r) { return world.addr_of(r); });
}

int Proc::world_size() const { return world_.size(); }

Comm Proc::comm_world() {
  return Comm(world_.world_info(), world_rank_, this);
}

sim::SimProcess& Proc::self() {
  MC_EXPECTS_MSG(process_ != nullptr,
                 "Proc used outside World::run (no simulated process bound)");
  if (!helpers_.empty()) {
    sim::SimProcess* current = world_.simulator().current();
    for (sim::SimProcess* helper : helpers_) {
      if (helper == current) {
        return *current;
      }
    }
  }
  return *process_;
}

Proc::HelperScope::HelperScope(Proc& p, sim::SimProcess& helper)
    : p_(p), helper_(helper) {
  p_.helpers_.push_back(&helper_);
}

Proc::HelperScope::~HelperScope() {
  std::erase(p_.helpers_, &helper_);
}

void Proc::send(const Comm& comm, int dst, Tag tag,
                std::span<const std::uint8_t> bytes, net::FrameKind kind,
                CostTier tier) {
  self().delay(
      costs_.send_overhead(static_cast<std::int64_t>(bytes.size()), tier));
  auto request = engine_->start_send(comm.info(), dst, tag, bytes, kind);
  sim::wait_for(self(), request->wait_queue(),
                [&] { return request->complete(); });
}

Buffer Proc::recv(const Comm& comm, int src, Tag tag, Status* status,
                  CostTier tier) {
  auto request = engine_->post_recv(comm.info(), src, tag);
  return wait(request, status, tier);
}

std::shared_ptr<SendRequest> Proc::isend(const Comm& comm, int dst, Tag tag,
                                         std::span<const std::uint8_t> bytes,
                                         net::FrameKind kind, CostTier tier) {
  self().delay(
      costs_.send_overhead(static_cast<std::int64_t>(bytes.size()), tier));
  return engine_->start_send(comm.info(), dst, tag, bytes, kind);
}

void Proc::send_control_async(const Comm& comm, int dst, Tag tag,
                              net::FrameKind kind, CostTier tier) {
  const SimTime overhead = costs_.send_overhead(0, tier);
  // Emit from a timer event at now+overhead — exactly when a blocking
  // send() would have emitted — without resuming this process in between.
  Engine* engine = engine_.get();
  self().simulator().schedule_after(
      overhead, [engine, info = comm.info(), dst, tag, kind] {
        const auto request = engine->start_send(info, dst, tag, {}, kind);
        MC_ASSERT_MSG(request->complete(),
                      "send_control_async requires eager completion");
      });
}

void Proc::send_data_async(const Comm& comm, int dst, Tag tag,
                           std::span<const std::uint8_t> bytes,
                           net::FrameKind kind, CostTier tier) {
  MC_EXPECTS_MSG(
      static_cast<std::int64_t>(bytes.size()) <= engine_->eager_threshold(),
      "send_data_async requires the eager path");
  const SimTime overhead =
      costs_.send_overhead(static_cast<std::int64_t>(bytes.size()), tier);
  Engine* engine = engine_.get();
  self().simulator().schedule_after(
      overhead, [engine, info = comm.info(), dst, tag, kind,
                 copy = Buffer(bytes.begin(), bytes.end())] {
        const auto request = engine->start_send(info, dst, tag, copy, kind);
        MC_ASSERT_MSG(request->complete(),
                      "send_data_async requires eager completion");
      });
}

std::shared_ptr<RecvRequest> Proc::irecv(const Comm& comm, int src, Tag tag) {
  return engine_->post_recv(comm.info(), src, tag);
}

void Proc::wait(const std::shared_ptr<SendRequest>& request) {
  sim::wait_for(self(), request->wait_queue(),
                [&] { return request->complete(); });
}

Buffer Proc::wait(const std::shared_ptr<RecvRequest>& request, Status* status,
                  CostTier tier) {
  // Charged wait: if this rank parks for the message, the completion that
  // wakes it prices the receive overhead into the wake-up itself (one
  // handoff).  If the message was already in, the charge is slept here.
  const bool charged = sim::wait_for_charged(
      self(), request->wait_queue(), [&] { return request->complete(); },
      [&]() -> SimTime {
        return costs_.recv_overhead(
            static_cast<std::int64_t>(request->data().size()), tier);
      });
  if (!charged) {
    self().delay(costs_.recv_overhead(
        static_cast<std::int64_t>(request->data().size()), tier));
  }
  if (status != nullptr) {
    *status = request->status();
  }
  return std::move(request->data());
}

std::optional<Buffer> Proc::wait_until(
    const std::shared_ptr<RecvRequest>& request, SimTime deadline,
    Status* status, CostTier tier) {
  // Charged deadline wait: a completion that wakes the parked rank prices
  // the receive overhead into the wake-up (one handoff); a timeout wakes
  // uncharged, and a message already in costs the charge here.
  const auto charge = [&]() -> SimTime {
    return costs_.recv_overhead(
        static_cast<std::int64_t>(request->data().size()), tier);
  };
  const sim::ChargedWaitResult wait = sim::wait_for_until_charged(
      self(), request->wait_queue(), deadline,
      [&] { return request->complete(); }, charge);
  if (!wait.satisfied) {
    return std::nullopt;
  }
  if (!wait.absorbed) {
    self().delay(charge());
  }
  if (status != nullptr) {
    *status = request->status();
  }
  return std::move(request->data());
}

Buffer Proc::wait(const std::shared_ptr<sim::Completion>& request) {
  MC_EXPECTS(request != nullptr);
  // Virtual time is global, so the helper's completion notify is the whole
  // completion semantics: no clock adjustment or charge is owed here.
  sim::wait_for(self(), request->wait_queue(),
                [&] { return request->complete(); });
  return std::move(request->result());
}

Buffer Proc::sendrecv(const Comm& comm, int dst, Tag send_tag,
                      std::span<const std::uint8_t> bytes, int src,
                      Tag recv_tag, Status* status, CostTier tier) {
  auto rreq = irecv(comm, src, recv_tag);
  send(comm, dst, send_tag, bytes, net::FrameKind::kData, tier);
  return wait(rreq, status, tier);
}

std::optional<Status> Proc::iprobe(const Comm& comm, int src, Tag tag) {
  return engine_->iprobe(comm.info(), src, tag);
}

Status Proc::probe(const Comm& comm, int src, Tag tag) {
  for (;;) {
    if (auto status = engine_->iprobe(comm.info(), src, tag)) {
      return *status;
    }
    engine_->arrivals().wait(self());
  }
}

Comm Proc::dup(const Comm& comm) {
  MC_EXPECTS(comm.valid());
  CommInfo& info = *comm.info();
  const auto my = static_cast<std::size_t>(comm.rank());
  const auto seq = static_cast<std::size_t>(info.dup_calls[my]++);
  // First member to reach this dup creates the child; same-order calls on
  // every rank make the sequence number a safe meeting point.  The lock
  // serializes members arriving from different simulator shards.
  const std::lock_guard<std::mutex> lock(info.creation_mutex);
  if (seq >= info.dup_children.size()) {
    MC_ASSERT(seq == info.dup_children.size());
    info.dup_children.push_back(world_.create_comm(info.group));
  }
  return Comm(info.dup_children[seq], world_rank_, this);
}

Comm Proc::split(const Comm& comm, int color, int key) {
  MC_EXPECTS(comm.valid());
  CommInfo& info = *comm.info();
  const int my = comm.rank();
  const int seq = info.split_calls[static_cast<std::size_t>(my)]++;

  // Root (comm rank 0) gathers (color, key) from everyone, builds every
  // child communicator, then releases the members.  This mirrors the
  // allgather real MPI implementations perform.
  struct Entry {
    std::int32_t color;
    std::int32_t key;
    std::int32_t comm_rank;
  };
  if (my == 0) {
    std::vector<Entry> entries;
    entries.push_back({color, key, 0});
    for (int r = 1; r < comm.size(); ++r) {
      Status st;
      const Buffer b = recv(comm, r, kTagCollective, &st);
      ByteReader reader(b);
      entries.push_back({reader.i32(), reader.i32(), r});
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                                 const Entry& b) {
      return std::tie(a.color, a.key, a.comm_rank) <
             std::tie(b.color, b.key, b.comm_rank);
    });
    {
      // Members only read the registry after the release message below, so
      // the message chain already orders this write; the lock additionally
      // covers unrelated dup/split creation racing on other shards.  Scoped
      // tightly: it must never be held across a blocking call (send/recv
      // suspend the fiber with the mutex still owned by this thread).
      const std::lock_guard<std::mutex> lock(info.creation_mutex);
      auto& children = info.split_children[seq];
      for (std::size_t i = 0; i < entries.size();) {
        const int c = entries[i].color;
        std::vector<Rank> members;
        while (i < entries.size() && entries[i].color == c) {
          members.push_back(info.group.world_rank(entries[i].comm_rank));
          ++i;
        }
        if (c >= 0) {
          children.emplace(c, world_.create_comm(Group(members)));
        }
      }
    }
    for (int r = 1; r < comm.size(); ++r) {
      send(comm, r, kTagCollective, {}, net::FrameKind::kControl);
    }
  } else {
    Buffer b;
    ByteWriter w(b);
    w.i32(color);
    w.i32(key);
    send(comm, 0, kTagCollective, b, net::FrameKind::kControl);
    (void)recv(comm, 0, kTagCollective);  // release
  }

  if (color < 0) {
    return Comm{};
  }
  const auto& children = info.split_children.at(seq);
  return Comm(children.at(color), world_rank_, this);
}

McastChannel& Proc::mcast_channel(const Comm& comm) {
  MC_EXPECTS(comm.valid());
  auto [it, inserted] = channels_.try_emplace(comm.context());
  if (inserted) {
    it->second =
        std::make_unique<McastChannel>(udp_, *comm.info(), mcast_rcvbuf_);
  }
  return *it->second;
}

}  // namespace mcmpi::mpi
