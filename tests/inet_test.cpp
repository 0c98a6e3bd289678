// Unit tests for the IP/UDP/RDP stack: addressing, fragmentation and
// reassembly (including loss), UDP drop semantics (the paper's
// unreliability model), IGMP membership and reliable-transport recovery.
#include <gtest/gtest.h>

#include <iterator>
#include <span>
#include <stdexcept>
#include <string>

#include "inet/ip.hpp"
#include "inet/ip_addr.hpp"
#include "net/fault.hpp"
#include "inet/rdp.hpp"
#include "inet/udp.hpp"
#include "net/hub.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::inet {
namespace {

// --------------------------------------------------------------- ip_addr

TEST(IpAddr, ClassDDetection) {
  EXPECT_TRUE(IpAddr(224, 0, 0, 0).is_multicast());
  EXPECT_TRUE(IpAddr(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(IpAddr(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(IpAddr(240, 0, 0, 0).is_multicast());
  EXPECT_FALSE(IpAddr::host(0).is_multicast());
  EXPECT_TRUE(IpAddr::multicast_group(7).is_multicast());
}

TEST(IpAddr, ParseAndPrintRoundTrip) {
  for (const char* text : {"10.0.0.1", "239.1.2.3", "0.0.0.0",
                           "255.255.255.255"}) {
    EXPECT_EQ(IpAddr::parse(text).to_string(), text);
  }
}

TEST(IpAddr, ParseRejectsMalformed) {
  for (const char* text : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d",
                           "1..2.3", "1.2.3.4x"}) {
    EXPECT_THROW((void)IpAddr::parse(text), std::invalid_argument) << text;
  }
}

// ------------------------------------------------------- fixture: 2 hosts

struct StackFixture {
  sim::Simulator sim{3};
  net::Switch network{sim};
  ArpTable arp;
  struct HostStack {
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<IpStack> ip;
    std::unique_ptr<UdpStack> udp;
  };
  std::vector<HostStack> hosts;

  explicit StackFixture(int n, bool use_hub = false) {
    (void)use_hub;
    for (int i = 0; i < n; ++i) {
      arp.add(IpAddr::host(static_cast<std::uint32_t>(i)),
              net::MacAddr::host(static_cast<std::uint32_t>(i)));
    }
    for (int i = 0; i < n; ++i) {
      HostStack h;
      h.nic = std::make_unique<net::Nic>(
          sim, net::MacAddr::host(static_cast<std::uint32_t>(i)),
          "host" + std::to_string(i));
      h.nic->attach_to(network);
      h.ip = std::make_unique<IpStack>(
          sim, *h.nic, IpAddr::host(static_cast<std::uint32_t>(i)), arp);
      h.udp = std::make_unique<UdpStack>(*h.ip);
      hosts.push_back(std::move(h));
    }
  }
};

// -------------------------------------------------------- fragmentation

TEST(IpFragmentation, LargeDatagramRoundTrips) {
  StackFixture fx(2);
  Buffer received;
  fx.hosts[1].ip->register_protocol(
      99, [&](const IpPacketMeta&, PayloadRef data) { received = data.to_buffer(); });
  const Buffer payload = pattern_payload(1, 10'000);
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(payload), net::FrameKind::kData);
  fx.sim.run();
  EXPECT_EQ(received.size(), 10'000u);
  EXPECT_TRUE(check_pattern(1, received));
  // ceil(10000 / 1480) = 7 fragments.
  EXPECT_EQ(fx.hosts[0].ip->stats().fragments_sent, 7u);
  EXPECT_EQ(fx.hosts[1].ip->stats().datagrams_received, 1u);
}

TEST(IpFragmentation, ExactSingleFrameIsNotFragmented) {
  StackFixture fx(2);
  int datagrams = 0;
  fx.hosts[1].ip->register_protocol(
      99, [&](const IpPacketMeta&, PayloadRef) { ++datagrams; });
  fx.hosts[0].ip->send(IpAddr::host(1), 99,
                       PayloadRef(pattern_payload(2, 1480)), net::FrameKind::kData);
  fx.sim.run();
  EXPECT_EQ(fx.hosts[0].ip->stats().fragments_sent, 1u);
  EXPECT_EQ(datagrams, 1);
}

TEST(IpFragmentation, ZeroBytePayloadWorks) {
  StackFixture fx(2);
  bool got = false;
  fx.hosts[1].ip->register_protocol(99, [&](const IpPacketMeta&, PayloadRef data) {
    got = true;
    EXPECT_TRUE(data.empty());
  });
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef{}, net::FrameKind::kControl);
  fx.sim.run();
  EXPECT_TRUE(got);
}

TEST(IpFragmentation, LostFragmentTimesOutAndDiscards) {
  StackFixture fx(2);
  int datagrams = 0;
  fx.hosts[1].ip->register_protocol(
      99, [&](const IpPacketMeta&, PayloadRef) { ++datagrams; });
  // Drop the second fragment of the first datagram (offset units 185).
  int fragment_count = 0;
  fx.network.set_drop_hook([&](const net::Frame&, const net::Nic&) {
    return ++fragment_count == 2;
  });
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(pattern_payload(1, 3000)),
                       net::FrameKind::kData);
  fx.sim.run();  // drains the reassembly timeout too
  EXPECT_EQ(datagrams, 0);
  EXPECT_EQ(fx.hosts[1].ip->stats().reassembly_timeouts, 1u);

  // A later datagram is unaffected.
  fx.network.set_drop_hook(nullptr);
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(pattern_payload(2, 3000)),
                       net::FrameKind::kData);
  fx.sim.run();
  EXPECT_EQ(datagrams, 1);
}

TEST(IpFragmentation, InterleavedSendersReassembleIndependently) {
  StackFixture fx(3);
  std::vector<Buffer> received;
  fx.hosts[2].ip->register_protocol(99, [&](const IpPacketMeta&, PayloadRef d) {
    received.push_back(d.to_buffer());
  });
  fx.hosts[0].ip->send(IpAddr::host(2), 99, PayloadRef(pattern_payload(10, 4000)),
                       net::FrameKind::kData);
  fx.hosts[1].ip->send(IpAddr::host(2), 99, PayloadRef(pattern_payload(11, 4000)),
                       net::FrameKind::kData);
  fx.sim.run();
  ASSERT_EQ(received.size(), 2u);
  // Either order; identify by pattern.
  const bool first_is_10 = check_pattern(10, received[0]);
  EXPECT_TRUE(check_pattern(first_is_10 ? 11 : 10, received[1]));
}

TEST(IpFragmentation, DuplicatedFragmentsNeverSeedGhostReassembly) {
  StackFixture fx(2);
  // Duplicate every frame on the wire: repeats of fragments still inside
  // reassembly AND late repeats of already-completed datagrams.
  net::fault::FaultPlane plane{net::fault::FaultProfile{.duplicate = 1.0},
                               net::fault::FaultProfile{}, 42};
  fx.network.set_fault_plane(&plane);
  int datagrams = 0;
  fx.hosts[1].ip->register_protocol(
      99, [&](const IpPacketMeta&, PayloadRef) { ++datagrams; });

  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(pattern_payload(1, 3000)),
                       net::FrameKind::kData);
  fx.sim.run();
  // 3 fragments, each delivered twice.  The duplicate of the final
  // fragment arrives AFTER the datagram completed; without completed-key
  // tracking it would seed a ghost reassembly entry that only a timeout
  // could clear (and that could corrupt a later datagram reusing the
  // ident).  All three repeats must be recognized and dropped.
  EXPECT_EQ(datagrams, 1);
  EXPECT_EQ(fx.hosts[1].ip->stats().duplicate_fragments, 3u);
  EXPECT_EQ(fx.hosts[1].ip->stats().reassembly_timeouts, 0u);

  // Later fragmented datagrams are unaffected by the retained keys.
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(pattern_payload(2, 3000)),
                       net::FrameKind::kData);
  fx.sim.run();
  EXPECT_EQ(datagrams, 2);
  EXPECT_EQ(fx.hosts[1].ip->stats().reassembly_timeouts, 0u);

  // Duplicate UNFRAGMENTED datagrams are delivered twice, like real IP:
  // dedup is the transport's job (RDP / multicast sequence numbers).
  fx.hosts[0].ip->send(IpAddr::host(1), 99, PayloadRef(pattern_payload(3, 100)),
                       net::FrameKind::kData);
  fx.sim.run();
  EXPECT_EQ(datagrams, 4);
}

// ------------------------------------------------------------------- UDP

TEST(Udp, UnicastDelivery) {
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7000);
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(IpAddr::host(1), 7000, PayloadRef(pattern_payload(3, 100)));
  fx.sim.run();
  auto got = rx->try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(check_pattern(3, got->data));
  EXPECT_EQ(got->src_addr, IpAddr::host(0));
  EXPECT_EQ(got->dst_port, 7000);
}

TEST(Udp, NoSocketMeansSilentDrop) {
  StackFixture fx(2);
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(IpAddr::host(1), 7001, PayloadRef(pattern_payload(1, 10)));
  fx.sim.run();
  EXPECT_EQ(fx.hosts[1].udp->stats().no_socket_drops, 1u);
}

TEST(Udp, MulticastOnlyReachesJoinedSockets) {
  StackFixture fx(3);
  const IpAddr group = IpAddr::multicast_group(5);
  auto joined = fx.hosts[1].udp->open(7002);
  joined->join(group);
  auto not_joined = fx.hosts[2].udp->open(7002);  // same port, no join

  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(group, 7002, PayloadRef(pattern_payload(4, 64)));
  fx.sim.run();
  EXPECT_TRUE(joined->try_recv().has_value());
  EXPECT_FALSE(not_joined->try_recv().has_value());
}

TEST(Udp, LeaveStopsDelivery) {
  StackFixture fx(2);
  const IpAddr group = IpAddr::multicast_group(6);
  auto rx = fx.hosts[1].udp->open(7003);
  rx->join(group);
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(group, 7003, PayloadRef(pattern_payload(1, 8)));
  fx.sim.run();
  EXPECT_TRUE(rx->try_recv().has_value());

  rx->leave(group);
  tx->sendto(group, 7003, PayloadRef(pattern_payload(1, 8)));
  fx.sim.run();
  EXPECT_FALSE(rx->try_recv().has_value());
}

TEST(Udp, ReceiverOverrunDropsWhenBufferFull) {
  // The paper's third unreliability problem: a slow receiver overrun by a
  // fast sender loses datagrams once its socket buffer fills.
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7004);
  rx->set_recv_buffer(3000);  // room for ~2 x 1400B datagrams
  auto tx = fx.hosts[0].udp->open(0);
  for (int i = 0; i < 5; ++i) {
    tx->sendto(IpAddr::host(1), 7004, PayloadRef(pattern_payload(1, 1400)));
  }
  fx.sim.run();
  EXPECT_EQ(rx->queued_datagrams(), 2u);
  EXPECT_EQ(rx->dropped_on_full(), 3u);
  EXPECT_EQ(fx.hosts[1].udp->stats().buffer_full_drops, 3u);
}

TEST(Udp, JumboDatagramLengthSurvivesThe16BitWireField) {
  // The wire header's 16-bit length field wraps past 64 KiB.  The stack
  // writes the 0 jumbogram marker instead and recovers the true size from
  // the datagram itself — the wrapped value is never read back.  Probe
  // the boundary exactly: totals of 65535 (max representable), 65536 and
  // 65537 bytes (payload + 8 B header), then a multi-fragment jumbo.
  const std::size_t payloads[] = {65527, 65528, 65529, 300000};
  const std::uint64_t expect_jumbo[] = {0, 1, 1, 1};
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    StackFixture fx(2);
    auto rx = fx.hosts[1].udp->open(7010);
    rx->set_recv_buffer(1 << 20);
    auto tx = fx.hosts[0].udp->open(0);
    tx->sendto(IpAddr::host(1), 7010,
               PayloadRef(pattern_payload(5, payloads[i])));
    fx.sim.run();
    EXPECT_EQ(fx.hosts[0].udp->stats().jumbo_datagrams, expect_jumbo[i])
        << "payload " << payloads[i];
    auto got = rx->try_recv();
    ASSERT_TRUE(got.has_value()) << "payload " << payloads[i];
    EXPECT_EQ(got->data.size(), payloads[i]);
    EXPECT_TRUE(check_pattern(5, got->data)) << "payload " << payloads[i];
  }
}

TEST(Udp, GatherSendConcatenatesPartsIntoOneDatagram) {
  // sendto_parts frames a scattered logical payload [a ‖ b ‖ c] into a
  // single wire datagram without the caller assembling it first — the
  // segmented collectives' zero-copy send path.
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7011);
  auto tx = fx.hosts[0].udp->open(0);
  const Buffer whole = pattern_payload(6, 5000);
  const std::span<const std::uint8_t> all(whole);
  const std::span<const std::uint8_t> parts[] = {
      all.subspan(0, 100), all.subspan(100, 3000), all.subspan(3100)};
  tx->sendto_parts(IpAddr::host(1), 7011, parts);
  fx.sim.run();
  EXPECT_EQ(fx.hosts[0].udp->stats().datagrams_sent, 1u);
  auto got = rx->try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data.size(), 5000u);
  EXPECT_TRUE(check_pattern(6, got->data));
}

TEST(Udp, BlockingRecvWakesOnArrival) {
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7005);
  auto tx = fx.hosts[0].udp->open(0);
  bool got = false;
  fx.sim.spawn("receiver", [&](sim::SimProcess& self) {
    const UdpDatagram d = rx->recv(self);
    got = check_pattern(9, d.data);
  });
  fx.sim.schedule_at(microseconds(500), [&] {
    tx->sendto(IpAddr::host(1), 7005, PayloadRef(pattern_payload(9, 256)));
  });
  fx.sim.run();
  EXPECT_TRUE(got);
}

TEST(Udp, RecvUntilTimesOutCleanly) {
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7006);
  bool timed_out = false;
  fx.sim.spawn("receiver", [&](sim::SimProcess& self) {
    timed_out = !rx->recv_until(self, microseconds(200)).has_value();
  });
  fx.sim.run();
  EXPECT_TRUE(timed_out);
}

TEST(Udp, EphemeralPortsAreUnique) {
  StackFixture fx(1);
  auto a = fx.hosts[0].udp->open(0);
  auto b = fx.hosts[0].udp->open(0);
  EXPECT_NE(a->port(), b->port());
  EXPECT_GE(a->port(), 49152);
}

TEST(Udp, SocketUnregistersOnDestruction) {
  StackFixture fx(2);
  {
    auto rx = fx.hosts[1].udp->open(7007);
  }
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(IpAddr::host(1), 7007, PayloadRef(pattern_payload(1, 10)));
  fx.sim.run();
  EXPECT_EQ(fx.hosts[1].udp->stats().no_socket_drops, 1u);
}

TEST(Udp, HandlerModeDispatchesImmediately) {
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7010);
  std::vector<std::size_t> seen;
  rx->set_handler([&](UdpDatagram d) { seen.push_back(d.data.size()); });
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(IpAddr::host(1), 7010, PayloadRef(pattern_payload(1, 100)));
  tx->sendto(IpAddr::host(1), 7010, PayloadRef(pattern_payload(2, 200)));
  fx.sim.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{100, 200}));
  EXPECT_EQ(rx->queued_datagrams(), 0u) << "handler mode never buffers";
}

TEST(Udp, HandlerModeIgnoresBufferLimit) {
  StackFixture fx(2);
  auto rx = fx.hosts[1].udp->open(7011);
  rx->set_recv_buffer(10);  // absurdly small
  int count = 0;
  rx->set_handler([&](UdpDatagram) { ++count; });
  auto tx = fx.hosts[0].udp->open(0);
  for (int i = 0; i < 5; ++i) {
    tx->sendto(IpAddr::host(1), 7011, PayloadRef(pattern_payload(1, 1000)));
  }
  fx.sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(rx->dropped_on_full(), 0u);
}

TEST(Udp, TwoJoinedSocketsOnOnePortBothReceive) {
  StackFixture fx(2);
  const IpAddr group = IpAddr::multicast_group(9);
  auto a = fx.hosts[1].udp->open(7012);
  auto b = fx.hosts[1].udp->open(7012);
  a->join(group);
  b->join(group);
  auto tx = fx.hosts[0].udp->open(0);
  tx->sendto(group, 7012, PayloadRef(pattern_payload(4, 32)));
  fx.sim.run();
  EXPECT_TRUE(a->try_recv().has_value());
  EXPECT_TRUE(b->try_recv().has_value());
}

TEST(Udp, MulticastSelfDeliveryRequiresNetworkLoop) {
  // The network models do not loop multicast back to the sender's NIC, so
  // a sender that joined its own group does NOT hear itself (the root of a
  // broadcast never consumes its own frame).
  StackFixture fx(2);
  const IpAddr group = IpAddr::multicast_group(10);
  auto sender = fx.hosts[0].udp->open(7013);
  sender->join(group);
  sender->sendto(group, 7013, PayloadRef(pattern_payload(1, 16)));
  fx.sim.run();
  EXPECT_FALSE(sender->try_recv().has_value());
}

// ------------------------------------------------------------------- RDP

struct RdpFixture : StackFixture {
  std::unique_ptr<RdpEndpoint> a;
  std::unique_ptr<RdpEndpoint> b;
  std::vector<std::pair<IpAddr, Buffer>> a_received;
  std::vector<std::pair<IpAddr, Buffer>> b_received;

  RdpFixture() : StackFixture(2) {
    a = std::make_unique<RdpEndpoint>(*hosts[0].udp);
    b = std::make_unique<RdpEndpoint>(*hosts[1].udp);
    a->set_message_handler([this](IpAddr src, PayloadRef m) {
      a_received.emplace_back(src, m.to_buffer());
    });
    b->set_message_handler([this](IpAddr src, PayloadRef m) {
      b_received.emplace_back(src, m.to_buffer());
    });
  }
};

TEST(Rdp, SmallMessageRoundTrip) {
  RdpFixture fx;
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(1, 100)));
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 1u);
  EXPECT_TRUE(check_pattern(1, fx.b_received[0].second));
  EXPECT_EQ(fx.b_received[0].first, IpAddr::host(0));
  EXPECT_EQ(fx.a->stats().retransmits, 0u);
}

TEST(Rdp, EmptyMessageDelivered) {
  RdpFixture fx;
  fx.a->send(IpAddr::host(1), PayloadRef{});
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 1u);
  EXPECT_TRUE(fx.b_received[0].second.empty());
}

TEST(Rdp, LargeMessageSegmentsAndReassembles) {
  RdpFixture fx;
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(2, 100'000)));
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 1u);
  EXPECT_EQ(fx.b_received[0].second.size(), 100'000u);
  EXPECT_TRUE(check_pattern(2, fx.b_received[0].second));
  // ceil(100000/1456) = 69 segments, more than the 64-segment window:
  // the backlog must have been pumped by ACKs.
  EXPECT_GE(fx.a->stats().segments_sent, 69u);
}

TEST(Rdp, InOrderDeliveryOfManyMessages) {
  RdpFixture fx;
  for (int i = 0; i < 20; ++i) {
    fx.a->send(IpAddr::host(1),
               PayloadRef(pattern_payload(static_cast<std::uint64_t>(i), 500)));
  }
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(i),
                              fx.b_received[static_cast<std::size_t>(i)].second))
        << "message " << i;
  }
}

TEST(Rdp, RecoversFromDataLoss) {
  RdpFixture fx;
  // Drop the first two data frames seen on the wire.
  int data_frames = 0;
  fx.network.set_drop_hook([&](const net::Frame& f, const net::Nic&) {
    if (f.kind == net::FrameKind::kData && data_frames < 2) {
      ++data_frames;
      return true;
    }
    return false;
  });
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(3, 5000)));
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 1u);
  EXPECT_TRUE(check_pattern(3, fx.b_received[0].second));
  EXPECT_GE(fx.a->stats().retransmits, 1u);
}

TEST(Rdp, RecoversFromAckLoss) {
  RdpFixture fx;
  int acks_dropped = 0;
  fx.network.set_drop_hook([&](const net::Frame& f, const net::Nic&) {
    if (f.kind == net::FrameKind::kAck && acks_dropped < 1) {
      ++acks_dropped;
      return true;
    }
    return false;
  });
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(4, 800)));
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 1u);
  // The retransmission triggers a duplicate at the receiver, which re-acks.
  EXPECT_GE(fx.b->stats().duplicates, 1u);
}

TEST(Rdp, BidirectionalTrafficKeepsStreamsSeparate) {
  RdpFixture fx;
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(5, 2000)));
  fx.b->send(IpAddr::host(0), PayloadRef(pattern_payload(6, 2000)));
  fx.sim.run();
  ASSERT_EQ(fx.a_received.size(), 1u);
  ASSERT_EQ(fx.b_received.size(), 1u);
  EXPECT_TRUE(check_pattern(6, fx.a_received[0].second));
  EXPECT_TRUE(check_pattern(5, fx.b_received[0].second));
}

TEST(Rdp, HeavyLossStillConverges) {
  RdpFixture fx;
  // Drop every third data frame, indefinitely.
  int counter = 0;
  fx.network.set_drop_hook([&](const net::Frame& f, const net::Nic&) {
    return f.kind == net::FrameKind::kData && (++counter % 3 == 0);
  });
  for (int i = 0; i < 5; ++i) {
    fx.a->send(IpAddr::host(1),
               PayloadRef(pattern_payload(static_cast<std::uint64_t>(i), 3000)));
  }
  fx.sim.run();
  ASSERT_EQ(fx.b_received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(i),
                              fx.b_received[static_cast<std::size_t>(i)].second));
  }
  EXPECT_EQ(fx.a->stats().send_failures, 0u);
}

TEST(Rdp, UnreachablePeerEndsTheRunWithANamedError) {
  // Every data frame is lost, so the retry budget runs out.  Dropping the
  // unacked segments and carrying on would leave a gap no later segment
  // fills; the run must end instead, naming the peer and the budget.
  RdpFixture fx;
  fx.network.set_drop_hook([](const net::Frame& f, const net::Nic&) {
    return f.kind == net::FrameKind::kData;
  });
  fx.a->send(IpAddr::host(1), PayloadRef(pattern_payload(7, 100)));
  try {
    fx.sim.run();
    FAIL() << "an unreachable peer must end the run";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "rdp: peer " +
                                         IpAddr::host(1).to_string() +
                                         " unreachable after 25 retries");
  }
  EXPECT_EQ(fx.a->stats().send_failures, 1u);
  EXPECT_TRUE(fx.b_received.empty());
}

}  // namespace
}  // namespace mcmpi::inet
