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

}  // namespace mcmpi::mpi
