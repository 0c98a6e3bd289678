#include "inet/rdp.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::inet {

namespace {
constexpr std::uint8_t kFlagLast = 0x1;
}

RdpEndpoint::RdpEndpoint(UdpStack& udp, std::uint16_t port, Params params)
    : udp_(udp), port_(port), params_(params), socket_(udp.open(port)) {
  socket_->set_handler(
      [this](UdpDatagram datagram) { on_datagram(std::move(datagram)); });
}

RdpEndpoint::RdpEndpoint(UdpStack& udp)
    : RdpEndpoint(udp, kDefaultPort, Params{}) {}

void RdpEndpoint::send(IpAddr dst, PayloadRef message, net::FrameKind kind) {
  MC_EXPECTS_MSG(!dst.is_multicast(), "RDP is point-to-point");
  ++stats_.messages_sent;
  TxStream& tx = tx_[dst];

  // Split into segments; an empty message still produces one (empty, last)
  // segment so zero-byte MPI messages work.  Segments are slices of the
  // message buffer: windowed retransmit state costs no payload copies.
  const auto total = static_cast<std::int64_t>(message.size());
  std::int64_t offset = 0;
  do {
    const std::int64_t chunk =
        std::min<std::int64_t>(kSegmentPayload, total - offset);
    Segment segment;
    segment.seq = tx.next_seq++;
    segment.last_of_message = offset + chunk == total;
    segment.kind = kind;
    segment.payload = message.slice(static_cast<std::size_t>(offset),
                                    static_cast<std::size_t>(chunk));
    if (tx.unacked.size() < params_.window_segments) {
      transmit(dst, segment);
      tx.unacked.emplace(segment.seq, std::move(segment));
      arm_rto(dst, tx);
    } else {
      tx.backlog.push_back(std::move(segment));
    }
    offset += chunk;
  } while (offset < total);
}

void RdpEndpoint::transmit(IpAddr dst, const Segment& segment) {
  // Gather-send: the 16 B RDP header goes down as a separate part; the UDP
  // layer assembles header+payload into the wire datagram in one pass.
  Buffer header;
  header.reserve(16);
  ByteWriter w(header);
  w.u8(static_cast<std::uint8_t>(Type::kData));
  w.u8(segment.last_of_message ? kFlagLast : 0);
  w.u16(0);  // reserved
  w.u64(segment.seq);
  w.u32(static_cast<std::uint32_t>(segment.payload.size()));
  ++stats_.segments_sent;
  socket_->sendto(dst, port_, header, segment.payload.view(), segment.kind);
}

void RdpEndpoint::arm_rto(IpAddr dst, TxStream& tx) {
  if (tx.rto_event != sim::kInvalidEvent || tx.unacked.empty()) {
    return;
  }
  if (tx.current_rto == SimTime{}) {
    tx.current_rto = params_.rto;
  }
  tx.rto_event = udp_.ip().simulator().schedule_after(
      tx.current_rto, [this, dst] { rto_fired(dst); });
}

void RdpEndpoint::rto_fired(IpAddr dst) {
  TxStream& tx = tx_[dst];
  tx.rto_event = sim::kInvalidEvent;
  if (tx.unacked.empty()) {
    return;
  }
  ++tx.retries;
  if (tx.retries > params_.max_retries) {
    // Dropping the unacked segments would leave a gap in the stream that no
    // later segment fills, so the peer's traffic would stall for good: end
    // the run with the cause instead.
    ++stats_.send_failures;
    throw std::runtime_error("rdp: peer " + dst.to_string() +
                             " unreachable after " +
                             std::to_string(params_.max_retries) + " retries");
  }
  ++stats_.retransmits;
  // Go-back-one recovery: resend the earliest unacked segment; the
  // cumulative ACK will advance past anything the receiver already has.
  transmit(dst, tx.unacked.begin()->second);
  tx.current_rto = std::min(tx.current_rto * 2, params_.rto_max);
  arm_rto(dst, tx);
}

void RdpEndpoint::on_datagram(UdpDatagram datagram) {
  ByteReader r(datagram.data);
  const auto type = static_cast<Type>(r.u8());
  const std::uint8_t flags = r.u8();
  (void)r.u16();
  const std::uint64_t seq = r.u64();
  if (type == Type::kAck) {
    on_ack(datagram.src_addr, seq);
    return;
  }
  const std::uint32_t length = r.u32();
  MC_ASSERT_MSG(r.remaining() == length, "RDP segment length mismatch");
  Segment segment;
  segment.seq = seq;
  segment.last_of_message = (flags & kFlagLast) != 0;
  // Keep the datagram's buffer alive through the view — no byte copy.
  segment.payload = datagram.data.slice(r.position(), length);
  ++stats_.segments_received;
  on_data(datagram.src_addr, std::move(segment));
}

void RdpEndpoint::on_data(IpAddr src, Segment segment) {
  RxStream& rx = rx_[src];
  if (segment.seq < rx.expected) {
    // Duplicate of something already delivered: re-ack immediately so the
    // sender stops retransmitting.
    ++stats_.duplicates;
    schedule_ack(src, rx, /*immediate=*/true);
    return;
  }
  rx.out_of_order.emplace(segment.seq, std::move(segment));
  while (!rx.out_of_order.empty() &&
         rx.out_of_order.begin()->first == rx.expected) {
    Segment next = std::move(rx.out_of_order.begin()->second);
    rx.out_of_order.erase(rx.out_of_order.begin());
    ++rx.expected;
    if (next.last_of_message && rx.partial.empty()) {
      // Single-segment message: deliver the datagram view directly.
      ++stats_.messages_delivered;
      if (handler_) {
        handler_(src, std::move(next.payload));
      }
      continue;
    }
    // Multi-segment message: segments arrive in distinct wire datagrams, so
    // concatenation is the one unavoidable copy of the receive path.
    rx.partial.insert(rx.partial.end(), next.payload.view().begin(),
                      next.payload.view().end());
    if (next.last_of_message) {
      Buffer message = std::move(rx.partial);
      rx.partial = Buffer{};
      ++stats_.messages_delivered;
      if (handler_) {
        handler_(src, PayloadRef(std::move(message)));
      }
    }
  }
  // TCP-style acking: every `ack_every` accumulated segments acks at once;
  // otherwise a short delayed ack picks up the tail.
  const bool immediate = rx.expected - rx.last_acked >= params_.ack_every;
  schedule_ack(src, rx, immediate);
}

void RdpEndpoint::schedule_ack(IpAddr src, RxStream& rx, bool immediate) {
  if (immediate) {
    if (rx.ack_scheduled) {
      udp_.ip().simulator().cancel(rx.ack_event);
      rx.ack_scheduled = false;
      rx.ack_event = sim::kInvalidEvent;
    }
    send_ack(src, rx);
    return;
  }
  if (rx.ack_scheduled) {
    return;
  }
  rx.ack_scheduled = true;
  rx.ack_event =
      udp_.ip().simulator().schedule_after(params_.ack_delay, [this, src] {
        RxStream& stream = rx_[src];
        stream.ack_scheduled = false;
        stream.ack_event = sim::kInvalidEvent;
        send_ack(src, stream);
      });
}

void RdpEndpoint::send_ack(IpAddr src, RxStream& rx) {
  Buffer bytes;
  ByteWriter w(bytes);
  w.u8(static_cast<std::uint8_t>(Type::kAck));
  w.u8(0);
  w.u16(0);
  w.u64(rx.expected);
  w.u32(0);
  ++stats_.acks_sent;
  rx.last_acked = rx.expected;
  socket_->sendto(src, port_, bytes, net::FrameKind::kAck);
}

void RdpEndpoint::on_ack(IpAddr src, std::uint64_t cumulative) {
  TxStream& tx = tx_[src];
  bool advanced = false;
  while (!tx.unacked.empty() && tx.unacked.begin()->first < cumulative) {
    tx.unacked.erase(tx.unacked.begin());
    advanced = true;
  }
  if (advanced) {
    tx.retries = 0;
    tx.current_rto = params_.rto;
    if (tx.rto_event != sim::kInvalidEvent) {
      udp_.ip().simulator().cancel(tx.rto_event);
      tx.rto_event = sim::kInvalidEvent;
    }
    pump_backlog(src, tx);
    arm_rto(src, tx);
  }
}

void RdpEndpoint::pump_backlog(IpAddr dst, TxStream& tx) {
  while (!tx.backlog.empty() &&
         tx.unacked.size() < params_.window_segments) {
    Segment segment = std::move(tx.backlog.front());
    tx.backlog.pop_front();
    transmit(dst, segment);
    tx.unacked.emplace(segment.seq, std::move(segment));
  }
}

}  // namespace mcmpi::inet
