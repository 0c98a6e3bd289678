#include "mpi/mcast_channel.hpp"

namespace mcmpi::mpi {

McastChannel::McastChannel(inet::UdpStack& udp, const CommInfo& info,
                           std::size_t rcvbuf_bytes)
    : group_(info.mcast_addr()), port_(info.mcast_port()) {
  socket_ = udp.open(port_);
  // The buffer bounds how far a receiver may lag before multicasts are
  // lost — the "fast senders overrun a single receiver" hazard of the
  // paper's §5, exercised by the many-to-many overrun experiments.
  socket_->set_recv_buffer(rcvbuf_bytes);
  socket_->join(group_);
}

std::optional<PayloadRef> McastChannel::take_held(std::uint64_t seq) {
  held_.erase(held_.begin(), held_.lower_bound(expected_seq_));
  const auto it = held_.lower_bound(seq);
  if (it == held_.end() || it->first != seq) {
    return std::nullopt;
  }
  PayloadRef datagram = std::move(it->second);
  held_.erase(it);
  return datagram;
}

}  // namespace mcmpi::mpi
