// Unit tests for the mini-MPI core: groups, communicators, datatypes,
// point-to-point semantics (tags, wildcards, ordering, eager/rendezvous),
// and communicator management (dup/split).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "mpi/datatype.hpp"
#include "mpi/group.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig config_for(int procs) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = NetworkType::kSwitch;
  config.seed = 5;
  return config;
}

// ----------------------------------------------------------------- groups

TEST(Group, WorldAndRankMapping) {
  const mpi::Group g = mpi::Group::world(5);
  EXPECT_EQ(g.size(), 5);
  EXPECT_EQ(g.world_rank(3), 3);
  EXPECT_EQ(g.rank_of(4), 4);
  EXPECT_EQ(g.rank_of(5), mpi::kAnySource);
}

TEST(Group, InclSelectsAndReorders) {
  const mpi::Group g = mpi::Group::world(6);
  const mpi::Group sub = g.incl({4, 1, 3});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.world_rank(0), 4);
  EXPECT_EQ(sub.world_rank(1), 1);
  EXPECT_EQ(sub.rank_of(3), 2);
  EXPECT_FALSE(sub.contains(0));
}

TEST(Group, DuplicateMembersRejected) {
  EXPECT_THROW(mpi::Group({1, 2, 1}), ContractViolation);
  EXPECT_THROW(mpi::Group({-1}), ContractViolation);
}

// -------------------------------------------------------------- datatypes

TEST(Datatype, SizesAndOpDomains) {
  EXPECT_EQ(mpi::datatype_size(mpi::Datatype::kByte), 1u);
  EXPECT_EQ(mpi::datatype_size(mpi::Datatype::kInt32), 4u);
  EXPECT_EQ(mpi::datatype_size(mpi::Datatype::kInt64), 8u);
  EXPECT_EQ(mpi::datatype_size(mpi::Datatype::kDouble), 8u);
  EXPECT_TRUE(mpi::op_defined(mpi::Op::kSum, mpi::Datatype::kDouble));
  EXPECT_FALSE(mpi::op_defined(mpi::Op::kBand, mpi::Datatype::kDouble));
  EXPECT_TRUE(mpi::op_defined(mpi::Op::kBor, mpi::Datatype::kInt32));
}

template <typename T>
std::vector<T> apply(mpi::Op op, std::vector<T> in, std::vector<T> inout) {
  std::span<const std::uint8_t> in_bytes(
      reinterpret_cast<const std::uint8_t*>(in.data()), in.size() * sizeof(T));
  std::span<std::uint8_t> inout_bytes(
      reinterpret_cast<std::uint8_t*>(inout.data()), inout.size() * sizeof(T));
  mpi::apply_op(op, mpi::datatype_of<T>(), in_bytes, inout_bytes, in.size());
  return inout;
}

TEST(Datatype, ArithmeticOps) {
  EXPECT_EQ(apply<std::int32_t>(mpi::Op::kSum, {1, 2}, {10, 20}),
            (std::vector<std::int32_t>{11, 22}));
  EXPECT_EQ(apply<std::int64_t>(mpi::Op::kProd, {3, 4}, {5, 6}),
            (std::vector<std::int64_t>{15, 24}));
  EXPECT_EQ(apply<double>(mpi::Op::kMax, {1.5, -2.0}, {0.5, 3.0}),
            (std::vector<double>{1.5, 3.0}));
  EXPECT_EQ(apply<double>(mpi::Op::kMin, {1.5, -2.0}, {0.5, 3.0}),
            (std::vector<double>{0.5, -2.0}));
}

TEST(Datatype, LogicalAndBitwiseOps) {
  EXPECT_EQ(apply<std::int32_t>(mpi::Op::kLand, {1, 0}, {1, 1}),
            (std::vector<std::int32_t>{1, 0}));
  EXPECT_EQ(apply<std::int32_t>(mpi::Op::kLor, {0, 0}, {0, 1}),
            (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(apply<std::int32_t>(mpi::Op::kBand, {0b1100, -1}, {0b1010, 7}),
            (std::vector<std::int32_t>{0b1000, 7}));
  EXPECT_EQ(apply<std::int32_t>(mpi::Op::kBor, {0b1100, 0}, {0b1010, 0}),
            (std::vector<std::int32_t>{0b1110, 0}));
}

// ----------------------------------------------------------- p2p semantics

TEST(P2p, BasicSendRecvWithStatus) {
  Cluster cluster(config_for(2));
  mpi::Status status;
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send(comm, 1, 17, pattern_payload(1, 333));
    } else {
      const Buffer data = p.recv(comm, 0, 17, &status);
      ok = check_pattern(1, data);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(status.source, 0);
  EXPECT_EQ(status.tag, 17);
  EXPECT_EQ(status.count, 333u);
}

TEST(P2p, TagsSelectMessages) {
  Cluster cluster(config_for(2));
  std::vector<int> order;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send(comm, 1, /*tag=*/100, pattern_payload(100, 8));
      p.send(comm, 1, /*tag=*/200, pattern_payload(200, 8));
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      const Buffer second = p.recv(comm, 0, 200);
      const Buffer first = p.recv(comm, 0, 100);
      if (check_pattern(200, second)) {
        order.push_back(200);
      }
      if (check_pattern(100, first)) {
        order.push_back(100);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{200, 100}));
}

TEST(P2p, AnySourceAndAnyTagWildcardsMatch) {
  Cluster cluster(config_for(3));
  std::vector<int> sources;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() != 0) {
      p.self().delay(microseconds(100) * p.rank());
      p.send(comm, 0, 7 + p.rank(), pattern_payload(1, 4));
    } else {
      for (int i = 0; i < 2; ++i) {
        mpi::Status st;
        (void)p.recv(comm, mpi::kAnySource, mpi::kAnyTag, &st);
        sources.push_back(st.source);
      }
    }
  });
  EXPECT_EQ(sources.size(), 2u);
  // Rank 1's message was sent earlier and must match first.
  EXPECT_EQ(sources[0], 1);
  EXPECT_EQ(sources[1], 2);
}

TEST(P2p, NonOvertakingSameTag) {
  Cluster cluster(config_for(2));
  bool in_order = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        p.send(comm, 1, 5, pattern_payload(static_cast<std::uint64_t>(i), 64));
      }
    } else {
      in_order = true;
      for (int i = 0; i < 10; ++i) {
        const Buffer d = p.recv(comm, 0, 5);
        in_order = in_order && check_pattern(static_cast<std::uint64_t>(i), d);
      }
    }
  });
  EXPECT_TRUE(in_order);
}

TEST(P2p, UnexpectedMessagesAreBuffered) {
  Cluster cluster(config_for(2));
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send(comm, 1, 3, pattern_payload(8, 128));
    } else {
      // Receive long after the message arrived.
      p.self().delay(milliseconds(10));
      ok = check_pattern(8, p.recv(comm, 0, 3));
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_GE(cluster.world().proc(1).engine().stats().unexpected_messages, 1u);
}

TEST(P2p, SelfSendMatchesSelfRecv) {
  Cluster cluster(config_for(1));
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    p.send(comm, 0, 1, pattern_payload(2, 64));
    ok = check_pattern(2, p.recv(comm, 0, 1));
  });
  EXPECT_TRUE(ok);
}

TEST(P2p, RendezvousAboveEagerThreshold) {
  ClusterConfig config = config_for(2);
  config.eager_threshold = 1024;
  Cluster cluster(config);
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send(comm, 1, 1, pattern_payload(3, 10'000));
    } else {
      p.self().delay(milliseconds(1));  // force the RTS to be unexpected
      ok = check_pattern(3, p.recv(comm, 0, 1));
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.world().proc(0).engine().stats().rendezvous_sends, 1u);
  EXPECT_EQ(cluster.world().proc(0).engine().stats().eager_sends, 0u);
}

TEST(P2p, IsendIrecvOverlap) {
  Cluster cluster(config_for(2));
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      auto s1 = p.isend(comm, 1, 1, pattern_payload(1, 100));
      auto s2 = p.isend(comm, 1, 2, pattern_payload(2, 100));
      p.wait(s1);
      p.wait(s2);
    } else {
      auto r2 = p.irecv(comm, 0, 2);
      auto r1 = p.irecv(comm, 0, 1);
      const Buffer b2 = p.wait(r2);
      const Buffer b1 = p.wait(r1);
      ok = check_pattern(2, b2) && check_pattern(1, b1);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(P2p, SendrecvExchangesWithoutDeadlock) {
  Cluster cluster(config_for(4));
  std::vector<int> ok(4, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    const int next = (p.rank() + 1) % 4;
    const int prev = (p.rank() + 3) % 4;
    const Buffer got =
        p.sendrecv(comm, next, 9, pattern_payload(static_cast<std::uint64_t>(p.rank()), 256),
                   prev, 9);
    ok[static_cast<std::size_t>(p.rank())] =
        check_pattern(static_cast<std::uint64_t>(prev), got);
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(P2p, TypedHelpersRoundTrip) {
  Cluster cluster(config_for(2));
  double received = 0;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send_value<double>(comm, 1, 4, 3.25);
    } else {
      received = p.recv_value<double>(comm, 0, 4);
    }
  });
  EXPECT_DOUBLE_EQ(received, 3.25);
}

// ------------------------------------------------------------ comm mgmt

TEST(Comm, WorldHasExpectedShape) {
  Cluster cluster(config_for(5));
  std::vector<int> sizes(5, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    sizes[static_cast<std::size_t>(p.rank())] = comm.size();
    EXPECT_EQ(comm.rank(), p.rank());
  });
  for (int s : sizes) {
    EXPECT_EQ(s, 5);
  }
}

TEST(Comm, DupCreatesIndependentContext) {
  Cluster cluster(config_for(3));
  bool ok = false;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    const mpi::Comm dup = p.dup(world);
    EXPECT_NE(dup.context(), world.context());
    EXPECT_EQ(dup.size(), world.size());
    // Same-tag traffic on the two communicators must not cross-match.
    if (p.rank() == 0) {
      p.send(world, 1, 5, pattern_payload(1, 16));
      p.send(dup, 1, 5, pattern_payload(2, 16));
    } else if (p.rank() == 1) {
      const Buffer via_dup = p.recv(dup, 0, 5);
      const Buffer via_world = p.recv(world, 0, 5);
      ok = check_pattern(2, via_dup) && check_pattern(1, via_world);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Comm, DupTwiceGivesDistinctContexts) {
  Cluster cluster(config_for(2));
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    const mpi::Comm a = p.dup(world);
    const mpi::Comm b = p.dup(world);
    EXPECT_NE(a.context(), b.context());
  });
}

TEST(Comm, SplitPartitionsByColorAndOrdersByKey) {
  Cluster cluster(config_for(6));
  std::vector<int> new_rank(6, -1);
  std::vector<int> new_size(6, -1);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    // Even/odd split, reversed key order within each color.
    const int color = p.rank() % 2;
    const int key = -p.rank();
    const mpi::Comm sub = p.split(world, color, key);
    new_rank[static_cast<std::size_t>(p.rank())] = sub.rank();
    new_size[static_cast<std::size_t>(p.rank())] = sub.size();
  });
  // Evens: {0,2,4} keyed {0,-2,-4} -> order 4,2,0.
  EXPECT_EQ(new_size, (std::vector<int>{3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(new_rank[4], 0);
  EXPECT_EQ(new_rank[2], 1);
  EXPECT_EQ(new_rank[0], 2);
  EXPECT_EQ(new_rank[5], 0);
  EXPECT_EQ(new_rank[3], 1);
  EXPECT_EQ(new_rank[1], 2);
}

TEST(Comm, SplitWithUndefinedColorExcludes) {
  Cluster cluster(config_for(4));
  std::vector<int> valid(4, -1);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm sub =
        p.split(p.comm_world(), p.rank() == 3 ? -1 : 0, p.rank());
    valid[static_cast<std::size_t>(p.rank())] = sub.valid() ? 1 : 0;
  });
  EXPECT_EQ(valid, (std::vector<int>{1, 1, 1, 0}));
}

TEST(Engine, SinkReceivesInternalTagTraffic) {
  Cluster cluster(config_for(2));
  std::vector<std::pair<mpi::Rank, std::size_t>> sunk;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 1) {
      p.engine().set_sink(comm.context(), mpi::kTagChunkNack,
                          [&](mpi::Rank src, PayloadRef data) {
                            sunk.emplace_back(src, data.size());
                          });
    }
    // Make sure the sink is installed before rank 0 sends.
    comm.coll().barrier("mcast");
    if (p.rank() == 0) {
      p.send(comm, 1, mpi::kTagChunkNack, pattern_payload(1, 24),
             net::FrameKind::kControl);
      p.send(comm, 1, mpi::kTagChunkNack, pattern_payload(2, 48),
             net::FrameKind::kControl);
    } else {
      // Rank 1 never posts a receive: the sink must consume both while the
      // rank sits in an unrelated delay.
      p.self().delay(milliseconds(5));
    }
  });
  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0], (std::pair<mpi::Rank, std::size_t>{0, 24}));
  EXPECT_EQ(sunk[1], (std::pair<mpi::Rank, std::size_t>{0, 48}));
}

TEST(Engine, EagerThresholdBoundaryIsInclusive) {
  ClusterConfig config = config_for(2);
  config.eager_threshold = 1000;
  Cluster cluster(config);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    if (p.rank() == 0) {
      p.send(comm, 1, 1, pattern_payload(1, 1000));  // == threshold: eager
      p.send(comm, 1, 2, pattern_payload(2, 1001));  // > threshold: rdz
    } else {
      (void)p.recv(comm, 0, 1);
      (void)p.recv(comm, 0, 2);
    }
  });
  const auto& stats = cluster.world().proc(0).engine().stats();
  EXPECT_EQ(stats.eager_sends, 1u);
  EXPECT_EQ(stats.rendezvous_sends, 1u);
}

TEST(World, RunTwiceReusesTheCluster) {
  Cluster cluster(config_for(3));
  int first_sum = 0;
  int second_sum = 0;
  cluster.world().run([&](mpi::Proc& p) {
    if (p.rank() == 0) {
      first_sum += 1;
    }
    p.comm_world().coll().barrier("mcast");
  });
  // Second program on the same world: channels and FDB are already warm;
  // sequence numbers must carry over coherently.
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(3, 128);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-binary");
    if (p.rank() == 2 && check_pattern(3, data)) {
      second_sum += 1;
    }
  });
  EXPECT_EQ(first_sum, 1);
  EXPECT_EQ(second_sum, 1);
}

TEST(Comm, CollectivesWorkOnSplitComms) {
  Cluster cluster(config_for(6));
  std::vector<int> ok(6, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm sub = p.split(p.comm_world(), p.rank() % 2, p.rank());
    Buffer data;
    if (sub.rank() == 0) {
      data = pattern_payload(static_cast<std::uint64_t>(p.rank() % 2), 2048);
    }
    sub.coll().bcast(data, 0, "mcast-binary");
    ok[static_cast<std::size_t>(p.rank())] =
        check_pattern(static_cast<std::uint64_t>(p.rank() % 2), data);
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

}  // namespace
}  // namespace mcmpi
