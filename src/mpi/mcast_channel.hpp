#pragma once
/// \file mcast_channel.hpp
/// A rank's membership in a communicator's IP multicast group.
///
/// One channel per (rank, communicator): a UDP socket bound to the
/// communicator's well-known port, joined to its class-D group address.
/// Creating the channel is the "receiver readiness" the paper's scout
/// protocols are designed to guarantee: a datagram multicast to the group
/// before a rank's channel exists is silently lost (see inet/udp.hpp), which
/// is exactly the failure mode being engineered around.
///
/// The channel also tracks a per-communicator broadcast sequence number used
/// to assert the in-order delivery property argued in the paper's §4 (safe
/// MPI programs see broadcasts in program order), and holds the datagrams
/// that arrive ahead of it: a scout-free root returns as soon as it has
/// sent, so its next stream can reach a rank over the rank's own segment
/// before an earlier multicast arrives over the trunk.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "inet/udp.hpp"
#include "mpi/comm.hpp"

namespace mcmpi::mpi {

class McastChannel {
 public:
  McastChannel(inet::UdpStack& udp, const CommInfo& info,
               std::size_t rcvbuf_bytes);

  inet::IpAddr group() const { return group_; }
  std::uint16_t port() const { return port_; }
  inet::UdpSocket& socket() { return *socket_; }

  /// Multicasts `payload` to the group.  The network models do not loop a
  /// frame back to the sending NIC, so the sender's own socket does NOT see
  /// it (equivalent to IP_MULTICAST_LOOP disabled, which is how the paper's
  /// implementation avoids the root consuming its own broadcast).
  /// Re-sending a retained PayloadRef (NACK-mode history, ACK-mode
  /// retransmits) reuses the framed bytes instead of rebuilding them.
  void send(const PayloadRef& payload, net::FrameKind kind) {
    socket_->sendto(group_, port_, payload.view(), kind);
  }

  /// Gather variant: [header][payload] is assembled into the wire datagram
  /// in one pass — collective framing without re-buffering the payload.
  void send(std::span<const std::uint8_t> header,
            std::span<const std::uint8_t> payload, net::FrameKind kind) {
    socket_->sendto(group_, port_, header, payload, kind);
  }

  /// Scatter/gather variant: the wire datagram is the concatenation of
  /// `parts` — lets segmented collectives frame [header ‖ table ‖ chunk
  /// slices] with zero caller-side assembly copies.
  void send_parts(std::span<const std::span<const std::uint8_t>> parts,
                  net::FrameKind kind) {
    socket_->sendto_parts(group_, port_, parts, kind);
  }

  /// Sequence checks for the §4 ordering property.
  std::uint64_t expected_seq() const { return expected_seq_; }
  void advance_seq() { ++expected_seq_; }

  /// The hold: a receive path that reads a datagram of a later sequence
  /// keeps it here, unpaid, for the operation it belongs to — the only
  /// order evidence a real receiver has is the sequence on the wire.
  void hold(std::uint64_t seq, PayloadRef datagram) {
    held_.emplace(seq, std::move(datagram));
  }
  /// The earliest-held datagram of sequence `seq`, if any; held datagrams
  /// the channel has moved past are dropped on the way.
  std::optional<PayloadRef> take_held(std::uint64_t seq);
  /// Empties the hold: every datagram by sequence, in arrival order
  /// within one.
  std::multimap<std::uint64_t, PayloadRef> take_all_held() {
    return std::exchange(held_, {});
  }

 private:
  inet::IpAddr group_;
  std::uint16_t port_;
  std::unique_ptr<inet::UdpSocket> socket_;
  std::uint64_t expected_seq_ = 0;
  std::multimap<std::uint64_t, PayloadRef> held_;
};

}  // namespace mcmpi::mpi
