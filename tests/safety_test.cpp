// Tests for the paper's §4 safety discussion and assorted failure
// injection: multiple multicast groups, program-order delivery, loss under
// every reliability protocol, and hub pathologies.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "coll/mcast_stream.hpp"
#include "coll/sequencer.hpp"
#include "common/bytes.hpp"
#include "net/hub.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig config_for(int procs, NetworkType net = NetworkType::kSwitch) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = 31;
  return config;
}

// ---------------------------------------------------------------------
// §4: "when there are two or more multicast groups that a process receives
// from, the order of broadcast will be correct as long as the MPI code is
// safe."  Two sub-communicators = two class-D groups; a rank in both
// receives from both in program order.

TEST(TwoGroups, OverlappingCommunicatorsStayOrdered) {
  constexpr int kProcs = 6;
  Cluster cluster(config_for(kProcs));
  std::vector<std::vector<int>> observed(kProcs);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    // Group A: ranks {0,1,2,3}; group B: ranks {2,3,4,5}.  Ranks 2 and 3
    // belong to both multicast groups.
    const bool in_a = p.rank() <= 3;
    const bool in_b = p.rank() >= 2;
    const mpi::Comm comm_a = p.split(world, in_a ? 0 : -1, p.rank());
    const mpi::Comm comm_b = p.split(world, in_b ? 0 : -1, p.rank());

    for (int round = 0; round < 3; ++round) {
      if (in_a) {
        Buffer data;
        if (comm_a.rank() == 0) {
          data = {static_cast<std::uint8_t>(10 + round)};
        }
        comm_a.coll().bcast(data, 0, "mcast-binary");
        observed[static_cast<std::size_t>(p.rank())].push_back(data.at(0));
      }
      if (in_b) {
        Buffer data;
        if (comm_b.rank() == 0) {
          data = {static_cast<std::uint8_t>(20 + round)};
        }
        comm_b.coll().bcast(data, 0, "mcast-linear");
        observed[static_cast<std::size_t>(p.rank())].push_back(data.at(0));
      }
    }
  });

  // Ranks 2 and 3 see strict interleaving A0 B0 A1 B1 A2 B2.
  const std::vector<int> both{10, 20, 11, 21, 12, 22};
  EXPECT_EQ(observed[2], both);
  EXPECT_EQ(observed[3], both);
  // Pure-A ranks see A rounds only; pure-B ranks B rounds only.
  EXPECT_EQ(observed[0], (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(observed[5], (std::vector<int>{20, 21, 22}));
}

// The §4 code example: broadcasts rooted at three different processes of
// one group, executed in the same order everywhere, deliver in that order
// even with maximal skew between the roots.
TEST(TwoGroups, PaperSection4ExampleWithSkew) {
  constexpr int kProcs = 4;
  Cluster cluster(config_for(kProcs, NetworkType::kHub));
  std::vector<std::vector<int>> order(kProcs);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    // Aggressive, rank-dependent skew before every call.
    for (int root = 1; root <= 3; ++root) {
      p.self().delay(microseconds(137) * ((p.rank() * 7 + root * 3) % 5));
      Buffer data;
      if (p.rank() == root) {
        data = {static_cast<std::uint8_t>(root)};
      }
      comm.coll().bcast(data, root, "mcast-binary");
      order[static_cast<std::size_t>(p.rank())].push_back(data.at(0));
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(order[static_cast<std::size_t>(r)], (std::vector<int>{1, 2, 3}))
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------
// Failure injection across the reliability protocols.

// Scout-synchronized multicast assumes reliable hardware (paper §2).  If a
// data frame is lost anyway, receivers hang — the failure mode is loud
// (deadlock detection), not silent corruption.
TEST(LossInjection, ScoutProtocolHangsLoudlyOnDataLoss) {
  constexpr int kProcs = 3;
  Cluster cluster(config_for(kProcs));
  cluster.network().set_drop_hook(
      [](const net::Frame& f, const net::Nic&) {
        return f.kind == net::FrameKind::kData && f.dst.is_multicast();
      });
  EXPECT_THROW(
      cluster.world().run([&](mpi::Proc& p) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, 100);
        }
        p.comm_world().coll().bcast(data, 0, "mcast-binary");
      }),
      sim::DeadlockError);
}

// The ACK protocol recovers from the same loss by retransmission.
TEST(LossInjection, AckMcastSurvivesMulticastLoss) {
  constexpr int kProcs = 3;
  Cluster cluster(config_for(kProcs));
  int dropped = 0;
  cluster.network().set_drop_hook(
      [&dropped](const net::Frame& f, const net::Nic&) {
        if (f.kind == net::FrameKind::kData && f.dst.is_multicast() &&
            dropped < 2) {
          ++dropped;
          return true;
        }
        return false;
      });
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(1, 100);
    }
    coll::bcast_stream(p, p.comm_world(), data, 0, coll::StreamPreset::kAck);
    ok[static_cast<std::size_t>(p.rank())] = check_pattern(1, data);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  EXPECT_EQ(dropped, 2);
}

// The sequencer protocol recovers via receiver NACKs.
TEST(LossInjection, SequencerRecoversViaNack) {
  constexpr int kProcs = 4;
  Cluster cluster(config_for(kProcs));
  int dropped = 0;
  cluster.network().set_drop_hook(
      [&dropped](const net::Frame& f, const net::Nic& receiver) {
        // Lose the first multicast data frame, for receiver rank 2 only.
        if (f.kind == net::FrameKind::kData && f.dst.is_multicast() &&
            receiver.mac() == net::MacAddr::host(2) && dropped < 1) {
          ++dropped;
          return true;
        }
        return false;
      });
  std::vector<int> ok(kProcs, 0);
  std::uint64_t nacks = 0;
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 1) {
      data = pattern_payload(5, 700);
    }
    coll::bcast_sequencer(p, p.comm_world(), data, 1);
    ok[static_cast<std::size_t>(p.rank())] = check_pattern(5, data);
    if (p.rank() == 2) {
      nacks = coll::sequencer_stats(p, p.comm_world()).nacks_sent;
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  EXPECT_GE(nacks, 1u);
  EXPECT_EQ(dropped, 1);
}

// MPICH over the reliable transport shrugs off even heavy loss.
// (Random loss, not modulo-counter loss: before the switch learns rank 4's
// port, its frames are *flooded* to four ports, and a global every-4th-
// delivery drop rule aligns perfectly with the flood — deterministically
// killing the same receiver's copy forever.  A great demonstration of
// deterministic-simulation livelock, and not what this test is about.)
TEST(LossInjection, MpichBcastSurvivesHeavyFrameLoss) {
  constexpr int kProcs = 5;
  Cluster cluster(config_for(kProcs));
  Rng loss_rng(1234);
  cluster.network().set_drop_hook(
      [&loss_rng](const net::Frame& f, const net::Nic&) {
        return f.kind == net::FrameKind::kData && loss_rng.chance(0.25);
      });
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(9, 4000);
    }
    p.comm_world().coll().bcast(data, 0, "mpich");
    ok[static_cast<std::size_t>(p.rank())] = check_pattern(9, data);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ---------------------------------------------------------------------
// Scheduler backends at cluster scale: the deadlock / teardown paths and
// the simulated timings must be identical under fibers and threads.

class BackendSafetyTest
    : public ::testing::TestWithParam<sim::ExecutionBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, BackendSafetyTest,
                         ::testing::Values(sim::ExecutionBackend::kFiber,
                                           sim::ExecutionBackend::kThread),
                         [](const auto& info) {
                           return std::string(sim::to_string(info.param));
                         });

// Data loss under the scout protocol deadlocks loudly, then the cluster
// tears down with every rank still parked mid-collective — on both
// backends the unwind must be clean (ASan/LSan would flag leaks or
// use-after-free here).
TEST_P(BackendSafetyTest, ScoutDeadlockThenTeardownUnwindsAllRanks) {
  constexpr int kProcs = 4;
  ClusterConfig config = config_for(kProcs);
  config.sim_backend = GetParam();
  Cluster cluster(config);
  cluster.network().set_drop_hook(
      [](const net::Frame& f, const net::Nic&) {
        return f.kind == net::FrameKind::kData && f.dst.is_multicast();
      });
  try {
    cluster.world().run([&](mpi::Proc& p) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(1, 256);
      }
      p.comm_world().coll().bcast(data, 0, "mcast-binary");
    });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    // Every receiver rank is parked waiting for the lost data frame.
    for (int r = 1; r < kProcs; ++r) {
      EXPECT_NE(std::string(e.what()).find("rank" + std::to_string(r)),
                std::string::npos)
          << e.what();
    }
  }
  // Cluster destruction here unwinds the parked ranks (the test passing
  // under the sanitize label is the assertion).
}

// The fiber fast paths (coalesced delays, charged wakes, batched fan-out)
// must not shift simulated time by a nanosecond: a full collective
// experiment measures identically on both backends.
TEST(BackendEquivalence, ClusterCollectiveTimingsMatchThreadOracle) {
  auto measure = [](sim::ExecutionBackend backend) {
    ClusterConfig config = config_for(5);
    config.sim_backend = backend;
    Cluster cluster(config);
    cluster::ExperimentConfig exp;
    exp.reps = 5;
    const auto result = cluster::measure_collective(
        cluster, exp, [](mpi::Proc& p, int) {
          Buffer data;
          if (p.rank() == 0) {
            data = pattern_payload(3, 2000);
          }
          p.comm_world().coll().bcast(data, 0, "mcast-linear");
        });
    return std::make_pair(result.latencies_us.median(),
                          cluster.simulator().events_executed());
  };
  const auto fiber = measure(sim::ExecutionBackend::kFiber);
  const auto thread = measure(sim::ExecutionBackend::kThread);
  EXPECT_EQ(fiber.first, thread.first) << "simulated medians must match";
  EXPECT_EQ(fiber.second, thread.second) << "event histories must match";
}

// ---------------------------------------------------------------------
// Hub pathologies.

TEST(HubPathology, ExcessiveCollisionsDropFrames) {
  // With an absurdly low attempt limit and many synchronized senders, the
  // interface gives up on some frames (counted, not silent).
  sim::Simulator sim(3);
  net::Hub::Params params;
  params.max_attempts = 1;
  net::Hub hub(sim, params);
  std::vector<std::unique_ptr<net::Nic>> nics;
  int delivered = 0;
  for (int i = 0; i < 4; ++i) {
    nics.push_back(std::make_unique<net::Nic>(
        sim, net::MacAddr::host(static_cast<std::uint32_t>(i)),
        "n" + std::to_string(i)));
    nics.back()->attach_to(hub);
    nics.back()->set_rx_handler([&](const net::Frame&) { ++delivered; });
  }
  // All three stations fire at the same instant, repeatedly.
  for (int burst = 0; burst < 10; ++burst) {
    sim.schedule_at(milliseconds(burst), [&] {
      for (int i = 1; i < 4; ++i) {
        net::Frame f;
        f.dst = net::MacAddr::host(0);
        f.payload = PayloadRef(Buffer(64, 0xEE));
        nics[static_cast<std::size_t>(i)]->send(std::move(f));
      }
    });
  }
  sim.run();
  EXPECT_GT(hub.counters().excessive_collision_drops, 0u);
  EXPECT_GT(hub.counters().collisions, 0u);
}

TEST(HubPathology, CollisionsNeverCorruptDeliveredCollectives) {
  // Run many hub broadcasts under heavy contention (9 procs, binary
  // scouts) and verify payload integrity every time.
  constexpr int kProcs = 9;
  Cluster cluster(config_for(kProcs, NetworkType::kHub));
  std::vector<int> failures(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    for (int i = 0; i < 10; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(static_cast<std::uint64_t>(i), 1000 + i * 100);
      }
      comm.coll().bcast(data, 0, "mcast-binary");
      if (!check_pattern(static_cast<std::uint64_t>(i), data)) {
        failures[static_cast<std::size_t>(p.rank())] = 1;
      }
    }
  });
  const auto& counters = cluster.network().counters();
  EXPECT_GT(counters.collisions, 0u) << "contention should exist";
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(failures[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

// ---------------------------------------------------------------------
// Slow-receiver overrun at the single-receiver level (paper §2, third
// unreliability problem): repeated broadcasts into a rank that never
// consumes them eventually overflow its channel buffer.

TEST(SlowReceiver, UnconsumedBroadcastsOverflowTheChannelBuffer) {
  constexpr int kProcs = 3;
  ClusterConfig config = config_for(kProcs);
  config.mcast_rcvbuf_bytes = 4096;
  Cluster cluster(config);
  std::uint64_t drops = 0;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 2) {
      // Joins the group (channel exists) but never receives.
      auto& ch = p.mcast_channel(comm);
      p.self().delay(milliseconds(50));
      drops = ch.socket().dropped_on_full();
      return;
    }
    // Ranks 0 and 1 exchange ten 1400-byte broadcasts among themselves
    // using the raw channel (rank 2 is a group member but silent).
    auto& ch = p.mcast_channel(comm);
    for (int i = 0; i < 10 && p.rank() == 0; ++i) {
      Buffer framed = pattern_payload(static_cast<std::uint64_t>(i), 1400);
      ch.send(PayloadRef(std::move(framed)), net::FrameKind::kData);
      p.self().delay(microseconds(200));
    }
    if (p.rank() == 1) {
      for (int i = 0; i < 10; ++i) {
        (void)ch.socket().recv(p.self());
      }
    }
  });
  EXPECT_GT(drops, 0u)
      << "a receiver that stops reading must lose datagrams once its "
         "buffer fills";
}

}  // namespace
}  // namespace mcmpi
