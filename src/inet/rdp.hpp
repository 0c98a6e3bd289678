#pragma once
/// \file rdp.hpp
/// RDP — a reliable, ordered, message-oriented transport over UDP.
///
/// Stands in for the TCP connections the MPICH ch_p4 device used between
/// rank pairs.  Design goals, in order: (1) identical frame pattern to TCP
/// on a loss-free LAN — one data frame per MTU of payload plus occasional
/// delayed cumulative ACKs (the paper ignores ACK traffic in its frame
/// counts, and so do our formula checks); (2) correct recovery under
/// injected loss (retransmission from a per-peer timer); (3) in-order
/// message delivery per sender, which the MPI point-to-point layer's
/// non-overtaking guarantee rests on.
///
/// One RdpEndpoint per host, bound to a well-known port; streams to each
/// peer are independent.  Delivery is by callback (handler-mode socket):
/// the "kernel" processes segments the moment they arrive.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "common/bytes.hpp"
#include "inet/udp.hpp"

namespace mcmpi::inet {

struct RdpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t send_failures = 0;  // retry budget exhausted
};

class RdpEndpoint {
 public:
  static constexpr std::uint16_t kDefaultPort = 5001;

  struct Params {
    SimTime rto = milliseconds(5);          // initial retransmit timeout
    SimTime rto_max = milliseconds(200);    // backoff cap
    SimTime ack_delay = microseconds(100);  // delayed cumulative ACK
    /// ACK immediately once this many segments are unacknowledged — TCP's
    /// ack-every-other-segment rule.  On the half-duplex hub these ACKs
    /// contend with data for the medium, which is part of why the paper's
    /// MPICH numbers degrade on the hub at large message sizes (Fig. 11).
    std::size_t ack_every = 2;
    std::size_t window_segments = 64;       // max unacked segments per peer
    /// Retransmissions of one segment before the peer counts as
    /// unreachable: the timer event then throws std::runtime_error, which
    /// ends the simulation run with the peer and the budget named.
    int max_retries = 25;
  };

  using MessageHandler = std::function<void(IpAddr src, PayloadRef message)>;

  RdpEndpoint(UdpStack& udp, std::uint16_t port, Params params);
  explicit RdpEndpoint(UdpStack& udp);

  /// Registers the upcall invoked once per completely received message.
  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }

  /// Queues `message` for reliable delivery to the endpoint at `dst`.
  /// Non-blocking: transmission, retransmission and windowing run on
  /// simulator events.  `kind` tags the frames for instrumentation.
  /// Segmentation is zero-copy: every segment (including the retransmit
  /// window and backlog) is a slice of `message`'s backing buffer.
  void send(IpAddr dst, PayloadRef message,
            net::FrameKind kind = net::FrameKind::kData);

  const RdpStats& stats() const { return stats_; }
  std::uint16_t port() const { return port_; }

  /// Max payload bytes per segment (one full Ethernet frame).
  static constexpr std::int64_t kSegmentPayload =
      UdpStack::kMaxPayloadPerFrame - 16;  // 16 B RDP header

 private:
  enum class Type : std::uint8_t { kData = 1, kAck = 2 };

  struct Segment {
    std::uint64_t seq = 0;
    bool last_of_message = false;
    net::FrameKind kind = net::FrameKind::kData;
    PayloadRef payload;  // slice of the original message (tx) / datagram (rx)
  };

  struct TxStream {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Segment> unacked;
    std::deque<Segment> backlog;  // beyond the window
    sim::EventId rto_event = sim::kInvalidEvent;
    SimTime current_rto{};
    int retries = 0;
  };

  struct RxStream {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Segment> out_of_order;
    Buffer partial;  // accumulating current message
    bool ack_scheduled = false;
    sim::EventId ack_event = sim::kInvalidEvent;
    std::uint64_t last_acked = 0;  // cumulative ack already sent
  };

  void on_datagram(UdpDatagram datagram);
  void on_data(IpAddr src, Segment segment);
  void on_ack(IpAddr src, std::uint64_t cumulative);
  void transmit(IpAddr dst, const Segment& segment);
  void arm_rto(IpAddr dst, TxStream& tx);
  void rto_fired(IpAddr dst);
  void schedule_ack(IpAddr src, RxStream& rx, bool immediate);
  void send_ack(IpAddr src, RxStream& rx);
  void pump_backlog(IpAddr dst, TxStream& tx);

  UdpStack& udp_;
  std::uint16_t port_;
  Params params_;
  std::unique_ptr<UdpSocket> socket_;
  MessageHandler handler_;
  std::map<IpAddr, TxStream> tx_;
  std::map<IpAddr, RxStream> rx_;
  RdpStats stats_;
};

}  // namespace mcmpi::inet
