// Collective-operation correctness across every algorithm, process count
// and payload size, plus the paper-specific semantics: frame-count
// formulas, ordering (§4), and scout-protocol readiness.
#include <gtest/gtest.h>

#include "coll/facade.hpp"
#include "coll/mcast.hpp"
#include "coll/mcast_stream.hpp"
#include "coll/mpich.hpp"
#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "common/bytes.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig quiet_config(int procs, NetworkType net) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = 42;
  return config;
}

/// True when `algo` may be dispatched on this communicator — the registry
/// applicability predicate (the hierarchical algorithms reject
/// single-segment topologies; sweeps over Registry::names() skip those
/// combinations instead of tripping the facade's precondition).
bool algo_applicable(coll::CollOp op, const std::string& algo,
                     const mpi::Comm& comm, std::size_t bytes) {
  const coll::CollAlgorithm& a = coll::Registry::instance().get(op, algo);
  return !a.applicable || a.applicable(comm, bytes);
}

// ---------------------------------------------------------------------
// Broadcast correctness: every algorithm delivers the root's exact bytes
// to every rank, over both network types, several sizes and roots.

struct BcastCase {
  std::string algo;  // registry name
  NetworkType net;
  int procs;
  int payload;
  int root;
};

class BcastCorrectness : public ::testing::TestWithParam<BcastCase> {};

TEST_P(BcastCorrectness, DeliversExactPayloadToAllRanks) {
  const BcastCase c = GetParam();
  Cluster cluster(quiet_config(c.procs, c.net));
  std::vector<int> ok(static_cast<std::size_t>(c.procs), 0);
  bool applicable = true;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (!algo_applicable(coll::CollOp::kBcast, c.algo, comm,
                         static_cast<std::size_t>(c.payload))) {
      applicable = false;  // every rank computes the same verdict
      return;
    }
    Buffer data;
    if (comm.rank() == c.root) {
      data = pattern_payload(99, static_cast<std::size_t>(c.payload));
    }
    comm.coll().bcast(data, c.root, c.algo);
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == static_cast<std::size_t>(c.payload) &&
        check_pattern(99, data);
  });
  if (!applicable) {
    GTEST_SKIP() << c.algo << " is not applicable on this topology";
  }

  for (int r = 0; r < c.procs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

std::vector<BcastCase> all_bcast_cases() {
  // Every registered broadcast algorithm: a newly added registry entry is
  // correctness-swept here for free.
  std::vector<BcastCase> cases;
  for (const std::string& algo :
       coll::Registry::instance().names(coll::CollOp::kBcast)) {
    for (NetworkType net : {NetworkType::kHub, NetworkType::kSwitch}) {
      for (int procs : {1, 2, 4, 7, 9}) {
        for (int payload : {0, 1, 1000, 1472, 1473, 5000}) {
          cases.push_back({algo, net, procs, payload, 0});
        }
        // Non-zero root exercises the relative-rank arithmetic.
        cases.push_back({algo, net, procs, 512, procs - 1});
      }
    }
  }
  return cases;
}

std::string bcast_case_name(
    const ::testing::TestParamInfo<BcastCase>& info) {
  const BcastCase& c = info.param;
  std::string name = c.algo + "_" +
                     cluster::to_string(c.net) + "_p" +
                     std::to_string(c.procs) + "_b" +
                     std::to_string(c.payload) + "_r" + std::to_string(c.root);
  for (char& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BcastCorrectness,
                         ::testing::ValuesIn(all_bcast_cases()),
                         bcast_case_name);

// ---------------------------------------------------------------------
// Barrier semantics: no rank may leave before the last rank has entered.

class BarrierSemantics
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BarrierSemantics, NobodyExitsBeforeLastEntry) {
  const auto [algo, procs] = GetParam();
  Cluster cluster(quiet_config(procs, NetworkType::kSwitch));
  std::vector<SimTime> entered(static_cast<std::size_t>(procs));
  std::vector<SimTime> exited(static_cast<std::size_t>(procs));
  bool applicable = true;

  cluster.world().run([&](mpi::Proc& p) {
    if (!algo_applicable(coll::CollOp::kBarrier, algo, p.comm_world(), 0)) {
      applicable = false;
      return;
    }
    // Stagger entries hard: rank r arrives 300us * r late.
    p.self().delay(microseconds(300) * p.rank());
    entered[static_cast<std::size_t>(p.rank())] = p.self().now();
    p.comm_world().coll().barrier(algo);
    exited[static_cast<std::size_t>(p.rank())] = p.self().now();
  });
  if (!applicable) {
    GTEST_SKIP() << algo << " is not applicable on this topology";
  }

  const SimTime last_entry = *std::max_element(entered.begin(), entered.end());
  for (int r = 0; r < procs; ++r) {
    EXPECT_GE(exited[static_cast<std::size_t>(r)].count(),
              last_entry.count())
        << "rank " << r << " escaped the barrier early";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BarrierSemantics,
    ::testing::Combine(::testing::ValuesIn(coll::Registry::instance().names(
                           coll::CollOp::kBarrier)),
                       ::testing::Values(2, 3, 4, 7, 8, 9)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// §3.1 frame-count formulas, verified against simulator counters.

struct FrameCase {
  int procs;
  int payload;
};

class BcastFrameCounts : public ::testing::TestWithParam<FrameCase> {};

// Paper: MPICH needs (floor(M/T)+1)*(N-1) frames; multicast needs
// (N-1) scouts + floor(M/T)+1 data frames.  T = 1472 payload bytes/frame.
TEST_P(BcastFrameCounts, MatchesPaperFormulas) {
  const auto [procs, payload] = GetParam();
  const std::uint64_t frames_per_message =
      static_cast<std::uint64_t>(payload) / 1472 + 1;
  const auto n = static_cast<std::uint64_t>(procs);

  auto run_bcast = [&](const std::string& algo) {
    Cluster cluster(quiet_config(procs, NetworkType::kSwitch));
    auto op = [&, algo](mpi::Proc& p) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(7, static_cast<std::size_t>(payload));
      }
      p.comm_world().coll().bcast(data, 0, algo);
    };
    return cluster::count_frames(cluster, op, op);
  };

  const auto mpich = run_bcast("mpich");
  EXPECT_EQ(mpich.formula_frames(), frames_per_message * (n - 1))
      << "MPICH bcast frame count";

  for (const std::string algo : {"mcast-binary", "mcast-linear"}) {
    const auto mcast = run_bcast(algo);
    EXPECT_EQ(mcast.formula_frames(), (n - 1) + frames_per_message)
        << algo << " frame count";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcastFrameCounts,
    ::testing::Values(FrameCase{2, 0}, FrameCase{4, 0}, FrameCase{4, 1000},
                      FrameCase{4, 1472}, FrameCase{4, 5000}, FrameCase{7, 100},
                      FrameCase{9, 5000}, FrameCase{9, 0}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.procs) + "_b" +
             std::to_string(info.param.payload);
    });

// §3.2 barrier message counts: MPICH 2(N-K)+K*log2(K); multicast (N-1)+1.
class BarrierFrameCounts : public ::testing::TestWithParam<int> {};

TEST_P(BarrierFrameCounts, MatchesPaperFormulas) {
  const int procs = GetParam();
  const auto n = static_cast<std::uint64_t>(procs);
  std::uint64_t k = 1;
  std::uint64_t log2k = 0;
  while (k * 2 <= n) {
    k *= 2;
    ++log2k;
  }

  auto run_barrier = [&](const std::string& algo) {
    Cluster cluster(quiet_config(procs, NetworkType::kSwitch));
    auto op = [&algo](mpi::Proc& p) { p.comm_world().coll().barrier(algo); };
    return cluster::count_frames(cluster, op, op);
  };

  const auto mpich = run_barrier("mpich");
  EXPECT_EQ(mpich.formula_frames(), 2 * (n - k) + k * log2k)
      << "MPICH barrier message count";

  const auto mcast = run_barrier("mcast");
  EXPECT_EQ(mcast.formula_frames(), (n - 1) + 1)
      << "multicast barrier message count";
}

INSTANTIATE_TEST_SUITE_P(Sweep, BarrierFrameCounts,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// §4 ordering: consecutive broadcasts from different roots on the same
// communicator (same multicast group) arrive in program order.

TEST(McastOrdering, SequentialBroadcastsFromDifferentRootsStayOrdered) {
  constexpr int kProcs = 4;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  // Each rank records the payload tag sequence it observed.
  std::vector<std::vector<std::uint8_t>> seen(kProcs);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    // The paper's example: broadcasts rooted at 1, then 2, then 3.
    for (int root = 1; root <= 3; ++root) {
      Buffer data;
      if (p.rank() == root) {
        data = {static_cast<std::uint8_t>(root)};
      }
      comm.coll().bcast(data, root, "mcast-binary");
      seen[static_cast<std::size_t>(p.rank())].push_back(data.at(0));
    }
  });

  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)],
              (std::vector<std::uint8_t>{1, 2, 3}))
        << "rank " << r;
  }
}

// Mixed algorithms on the same communicator share the sequence space.
TEST(McastOrdering, MixedMcastAlgorithmsShareOneSequence) {
  constexpr int kProcs = 5;
  Cluster cluster(quiet_config(kProcs, NetworkType::kHub));
  std::vector<int> failures(kProcs, 0);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    for (int i = 0; i < 3; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(static_cast<std::uint64_t>(i), 64);
      }
      comm.coll().bcast(data, 0,
                        i % 2 == 0 ? "mcast-binary" : "mcast-linear");
      if (!check_pattern(static_cast<std::uint64_t>(i), data)) {
        failures[static_cast<std::size_t>(p.rank())] = 1;
      }
      comm.coll().barrier("mcast");
    }
  });

  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(failures[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
}

// ---------------------------------------------------------------------
// The readiness hazard itself: a *naive* multicast broadcast (no scouts)
// loses data when a receiver has not created its channel yet — proving
// the problem the paper's protocols solve exists in this model.

TEST(ReadinessHazard, NaiveMulticastLosesDataForLateReceiver) {
  // On the hub: the late receiver's NIC hears the frame but filters it
  // (group not joined).  On a switch the loss is even earlier (IGMP
  // snooping forwards no copy).  Either way, the data never arrives.
  constexpr int kProcs = 3;
  Cluster cluster(quiet_config(kProcs, NetworkType::kHub));
  std::vector<int> got(kProcs, 0);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      // Root multicasts immediately: no scout synchronization.
      coll::mcast_send_framed(p, comm, pattern_payload(1, 256), 0,
                              net::FrameKind::kData);
      got[0] = 1;
      return;
    }
    if (p.rank() == 1) {
      // Ready receiver: channel exists before the datagram lands.
      (void)p.mcast_channel(comm);
      got[1] = check_pattern(1, coll::mcast_recv_framed(p, comm, 0));
      return;
    }
    // Rank 2 sleeps through the broadcast; its channel does not exist when
    // the datagram arrives, so the message is gone forever.
    p.self().delay(milliseconds(20));
    auto& ch = p.mcast_channel(comm);
    auto datagram =
        ch.socket().recv_until(p.self(), p.self().now() + milliseconds(20));
    got[2] = datagram.has_value() ? 1 : 0;
  });

  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 1) << "ready receiver must get the multicast";
  EXPECT_EQ(got[2], 0) << "late receiver must have lost the multicast";
  EXPECT_GT(cluster.network().counters().filtered, 0u)
      << "the loss should be visible as a NIC filter drop on the hub";
}

// With scouts, the same late receiver loses nothing.
TEST(ReadinessHazard, ScoutSynchronizationToleratesLateReceiver) {
  constexpr int kProcs = 3;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 0);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 2) {
      p.self().delay(milliseconds(20));  // same lateness as above
    }
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(1, 256);
    }
    comm.coll().bcast(data, 0, "mcast-binary");
    ok[static_cast<std::size_t>(p.rank())] = check_pattern(1, data);
  });

  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// The ACK-based protocol also recovers, but only by re-multicasting.
TEST(ReadinessHazard, AckMcastRecoversViaRetransmission) {
  constexpr int kProcs = 3;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 0);
  std::uint64_t retransmissions = 0;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 2) {
      p.self().delay(milliseconds(20));
    }
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(1, 256);
    }
    coll::bcast_stream(p, comm, data, 0, coll::StreamPreset::kAck);
    ok[static_cast<std::size_t>(p.rank())] = check_pattern(1, data);
    if (p.rank() == 0) {
      retransmissions = coll::stream_stats(p, comm).retransmits;
    }
  });

  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  EXPECT_GE(retransmissions, 1u)
      << "the late receiver should have forced at least one re-multicast";
}

// ---------------------------------------------------------------------
// Wider collective set.

TEST(MpichCollectives, ReduceSumsOnRoot) {
  constexpr int kProcs = 6;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::int64_t result = -1;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    const std::int64_t mine = (p.rank() + 1) * 10;
    Buffer data(sizeof mine);
    std::memcpy(data.data(), &mine, sizeof mine);
    const Buffer out = comm.coll().reduce(data, mpi::Op::kSum,
                                          mpi::Datatype::kInt64, 0, "mpich");
    if (p.rank() == 0) {
      std::memcpy(&result, out.data(), sizeof result);
    }
  });
  EXPECT_EQ(result, 10 + 20 + 30 + 40 + 50 + 60);
}

TEST(MpichCollectives, GatherCollectsInRankOrder) {
  constexpr int kProcs = 5;
  Cluster cluster(quiet_config(kProcs, NetworkType::kHub));
  std::vector<Buffer> gathered;

  cluster.world().run([&](mpi::Proc& p) {
    const Buffer mine = pattern_payload(static_cast<std::uint64_t>(p.rank()),
                                        16 + static_cast<std::size_t>(p.rank()));
    auto out = p.comm_world().coll().gather(mine, /*root=*/2, "mpich");
    if (p.rank() == 2) {
      gathered = std::move(out);
    }
  });

  ASSERT_EQ(gathered.size(), static_cast<std::size_t>(kProcs));
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(r),
                              gathered[static_cast<std::size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)].size(),
              16 + static_cast<std::size_t>(r));
  }
}

TEST(MpichCollectives, ScatterDeliversPerRankChunks) {
  constexpr int kProcs = 4;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 0);

  cluster.world().run([&](mpi::Proc& p) {
    std::vector<Buffer> chunks;
    if (p.rank() == 1) {
      for (int r = 0; r < kProcs; ++r) {
        chunks.push_back(
            pattern_payload(static_cast<std::uint64_t>(100 + r), 32));
      }
    }
    const Buffer mine =
        p.comm_world().coll().scatter(chunks, /*root=*/1, 32, "mpich");
    ok[static_cast<std::size_t>(p.rank())] =
        check_pattern(static_cast<std::uint64_t>(100 + p.rank()), mine);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(MpichCollectives, AllgatherGivesEveryoneEverything) {
  constexpr int kProcs = 5;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 1);

  cluster.world().run([&](mpi::Proc& p) {
    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(p.rank()), 40);
    const auto all = p.comm_world().coll().allgather(mine, "ring");
    for (int r = 0; r < kProcs; ++r) {
      if (!check_pattern(static_cast<std::uint64_t>(r),
                         all[static_cast<std::size_t>(r)])) {
        ok[static_cast<std::size_t>(p.rank())] = 0;
      }
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// alltoall on the facade: the registry completes the collective set, so
// the exchange goes through comm.coll() like every other operation —
// the tuned pick, both explicit algorithms, and the nonblocking variant.
TEST(MpichCollectives, AlltoallExchangesPairwisePayloads) {
  constexpr int kProcs = 4;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 1);

  cluster.world().run([&](mpi::Proc& p) {
    for (const std::string algo :
         {std::string(coll::kAuto), std::string("mpich"),
          std::string("mcast-rr")}) {
      std::vector<Buffer> to_each;
      for (int dst = 0; dst < kProcs; ++dst) {
        to_each.push_back(pattern_payload(
            static_cast<std::uint64_t>(p.rank() * 100 + dst), 24));
      }
      const auto from_each =
          p.comm_world().coll().alltoall(to_each, 24, algo);
      for (int src = 0; src < kProcs; ++src) {
        if (!check_pattern(static_cast<std::uint64_t>(src * 100 + p.rank()),
                           from_each[static_cast<std::size_t>(src)])) {
          ok[static_cast<std::size_t>(p.rank())] = 0;
        }
      }
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ialltoall: the exchange runs on a helper fiber and completes via
// Proc::wait, with the received blocks delivered in request->blocks().
TEST(MpichCollectives, IalltoallDeliversBlocksThroughTheRequest) {
  constexpr int kProcs = 3;
  Cluster cluster(quiet_config(kProcs, NetworkType::kSwitch));
  std::vector<int> ok(kProcs, 1);

  cluster.world().run([&](mpi::Proc& p) {
    std::vector<Buffer> to_each;
    for (int dst = 0; dst < kProcs; ++dst) {
      to_each.push_back(pattern_payload(
          static_cast<std::uint64_t>(p.rank() * 31 + dst), 512));
    }
    auto request = p.comm_world().coll().ialltoall(to_each, 512, "mpich");
    p.self().delay(microseconds(500));  // overlap with "compute"
    (void)p.wait(request);
    const auto& from_each = request->blocks();
    for (int src = 0; src < kProcs; ++src) {
      if (!check_pattern(static_cast<std::uint64_t>(src * 31 + p.rank()),
                         from_each[static_cast<std::size_t>(src)])) {
        ok[static_cast<std::size_t>(p.rank())] = 0;
      }
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

class AllreduceAcrossBcasts
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AllreduceAcrossBcasts, MaxReachesEveryRank) {
  constexpr int kProcs = 6;
  Cluster cluster(quiet_config(kProcs, NetworkType::kHub));
  std::vector<std::int32_t> results(kProcs, -1);
  bool applicable = true;

  cluster.world().run([&](mpi::Proc& p) {
    const std::int32_t mine = 7 * (p.rank() + 1);
    if (!algo_applicable(coll::CollOp::kAllreduce, GetParam(),
                         p.comm_world(), sizeof mine)) {
      applicable = false;
      return;
    }
    Buffer data(sizeof mine);
    std::memcpy(data.data(), &mine, sizeof mine);
    const Buffer out = p.comm_world().coll().allreduce(
        data, mpi::Op::kMax, mpi::Datatype::kInt32, GetParam());
    std::memcpy(&results[static_cast<std::size_t>(p.rank())], out.data(),
                sizeof(std::int32_t));
  });
  if (!applicable) {
    GTEST_SKIP() << GetParam() << " is not applicable on this topology";
  }
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], 7 * kProcs) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BcastStage, AllreduceAcrossBcasts,
    ::testing::ValuesIn(
        coll::Registry::instance().names(coll::CollOp::kAllreduce)),
    [](const auto& info) {
      std::string n = info.param;
      for (char& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

}  // namespace
}  // namespace mcmpi
