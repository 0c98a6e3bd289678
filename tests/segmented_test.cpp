// Conformance and pipelining tests for the segmented multicast
// collectives (the mcast-segmented preset of coll/mcast_stream.hpp): bit-identical results against the
// point-to-point references across chunk/window/lane sweeps (including
// ragged final chunks and jumbo payloads past the single-datagram
// ceiling), duplicated/split communicators, sliding-window overlap
// visible in the chunk counters, and the kAuto fall-through that routes
// jumbo payloads onto the segmented engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "coll/limits.hpp"
#include "coll/mcast_stream.hpp"
#include "common/bytes.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig config_for(int procs, NetworkType net = NetworkType::kSwitch,
                         int segments = 1) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.num_segments = segments;
  config.seed = 11;
  return config;
}

// --------------------------------------------------------------- bcast

struct BcastCase {
  int procs;
  std::size_t bytes;
  std::size_t chunk;
  int window;
  int lanes;
  int root;
  NetworkType net;
};

coll::StreamConfig seg_config(std::size_t chunk, int window, int lanes) {
  coll::StreamConfig cfg = coll::preset_config(coll::StreamPreset::kSegmented);
  cfg.chunk_bytes = chunk;
  cfg.k = window;
  cfg.lanes = lanes;
  return cfg;
}

void set_seg_config(mpi::Proc& p, const mpi::Comm& comm,
                    const coll::StreamConfig& cfg) {
  coll::set_stream_config(p, comm, coll::StreamPreset::kSegmented, cfg);
}

// Runs one bcast on a fresh cluster and returns every rank's buffer.
std::vector<Buffer> run_bcast(const BcastCase& c, const std::string& algo) {
  Cluster cluster(config_for(c.procs, c.net));
  std::vector<Buffer> outs(static_cast<std::size_t>(c.procs));
  cluster.world().run([&](mpi::Proc& p) {
    if (algo == "mcast-segmented") {
      set_seg_config(p, p.comm_world(),
                                 seg_config(c.chunk, c.window, c.lanes));
    }
    Buffer buffer;
    if (p.rank() == c.root) {
      buffer = pattern_payload(0xB0CA57, c.bytes);
    }
    p.comm_world().coll().bcast(buffer, c.root, algo);
    outs[static_cast<std::size_t>(p.rank())] = std::move(buffer);
  });
  return outs;
}

class SegmentedBcast : public ::testing::TestWithParam<BcastCase> {};

TEST_P(SegmentedBcast, BitIdenticalToMpich) {
  const BcastCase c = GetParam();
  const auto seg = run_bcast(c, "mcast-segmented");
  const auto ref = run_bcast(c, "mpich");
  for (int r = 0; r < c.procs; ++r) {
    const Buffer& got = seg[static_cast<std::size_t>(r)];
    EXPECT_EQ(got.size(), c.bytes) << "rank " << r;
    EXPECT_TRUE(check_pattern(0xB0CA57, got)) << "rank " << r;
    EXPECT_EQ(got, ref[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkWindowLaneSweep, SegmentedBcast,
    ::testing::Values(
        // Ragged final chunk: 3000 = 2 x 1024 + 952.
        BcastCase{2, 3000, 1024, 1, 1, 0, NetworkType::kSwitch},
        // Deep pipeline, 25 chunks, non-zero root.
        BcastCase{3, 100000, 4096, 4, 1, 1, NetworkType::kSwitch},
        // 1 MiB: four single-shot ceilings past kMaxMcastDatagram.
        BcastCase{9, 1 << 20, 65536, 4, 1, 0, NetworkType::kSwitch},
        // Same payload striped over 4 lanes.
        BcastCase{9, 1 << 20, 65536, 4, 4, 0, NetworkType::kSwitch},
        // Exact multiple of the chunk size (no ragged tail).
        BcastCase{5, 262144, 65536, 2, 2, 2, NetworkType::kSwitch},
        // Chunks past 64 KiB ride simulated jumbo UDP datagrams.
        BcastCase{3, 1 << 20, 200000, 1, 1, 0, NetworkType::kSwitch},
        // Single byte, single chunk.
        BcastCase{2, 1, 7, 1, 1, 1, NetworkType::kSwitch},
        // Empty payload still synchronizes and completes.
        BcastCase{3, 0, 1024, 2, 1, 0, NetworkType::kSwitch},
        // Hub topology, striped window.
        BcastCase{5, 50000, 8192, 2, 2, 0, NetworkType::kHub}),
    [](const auto& info) {
      const BcastCase& c = info.param;
      return "p" + std::to_string(c.procs) + "_b" + std::to_string(c.bytes) +
             "_c" + std::to_string(c.chunk) + "_w" +
             std::to_string(c.window) + "_l" + std::to_string(c.lanes) +
             "_r" + std::to_string(c.root) + "_" + cluster::to_string(c.net);
    });

TEST(SegmentedBcastTopology, MultiSegmentJumboBcast) {
  constexpr int kProcs = 16;
  constexpr std::size_t kBytes = 1 << 20;
  ClusterConfig config = config_for(kProcs, NetworkType::kSwitch, 2);
  config.hosts = cluster::make_uniform_hosts(kProcs);
  Cluster cluster(config);
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    set_seg_config(p, p.comm_world(), seg_config(65536, 4, 2));
    Buffer buffer;
    if (p.rank() == 0) {
      buffer = pattern_payload(42, kBytes);
    }
    p.comm_world().coll().bcast(buffer, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        buffer.size() == kBytes && check_pattern(42, buffer);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// Chunks larger than 64 KiB cannot carry their true length in the 16-bit
// UDP wire field: the stack writes the jumbogram marker and counts the
// datagram.  A 1 MiB broadcast in 200 kB chunks must ride that path.
TEST(SegmentedBcastJumbo, ChunksRideJumboUdpDatagrams) {
  constexpr int kProcs = 3;
  Cluster cluster(config_for(kProcs));
  std::uint64_t root_jumbo = 0;
  cluster.world().run([&](mpi::Proc& p) {
    set_seg_config(p, p.comm_world(), seg_config(200000, 1, 1));
    Buffer buffer;
    if (p.rank() == 0) {
      buffer = pattern_payload(7, 1 << 20);
    }
    p.comm_world().coll().bcast(buffer, 0, "mcast-segmented");
    EXPECT_TRUE(check_pattern(7, buffer));
    if (p.rank() == 0) {
      root_jumbo = p.udp().stats().jumbo_datagrams;
    }
  });
  // ceil(1 MiB / 200000) = 6 chunks; all but the 48 kB tail are jumbo.
  EXPECT_GE(root_jumbo, 5u);
}

// ----------------------------------------------------------- allgather

struct AllgatherCase {
  int procs;
  std::size_t block;
  std::size_t chunk;
  int window;
  int lanes;
};

class SegmentedAllgather : public ::testing::TestWithParam<AllgatherCase> {};

TEST_P(SegmentedAllgather, MatchesRing) {
  const AllgatherCase c = GetParam();
  auto run = [&](const std::string& algo) {
    Cluster cluster(config_for(c.procs));
    std::vector<std::vector<Buffer>> outs(static_cast<std::size_t>(c.procs));
    cluster.world().run([&](mpi::Proc& p) {
      if (algo == "mcast-segmented") {
        set_seg_config(p, p.comm_world(),
                                   seg_config(c.chunk, c.window, c.lanes));
      }
      const Buffer mine = pattern_payload(
          static_cast<std::uint64_t>(p.rank()) + 100, c.block);
      outs[static_cast<std::size_t>(p.rank())] =
          p.comm_world().coll().allgather(mine, algo);
    });
    return outs;
  };
  const auto seg = run("mcast-segmented");
  const auto ref = run("ring");
  for (int r = 0; r < c.procs; ++r) {
    const auto& blocks = seg[static_cast<std::size_t>(r)];
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(c.procs))
        << "rank " << r;
    for (int b = 0; b < c.procs; ++b) {
      EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(b) + 100,
                                blocks[static_cast<std::size_t>(b)]))
          << "rank " << r << " block " << b;
      EXPECT_EQ(blocks[static_cast<std::size_t>(b)],
                ref[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)])
          << "rank " << r << " block " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkWindowLaneSweep, SegmentedAllgather,
    ::testing::Values(AllgatherCase{4, 150000, 32768, 4, 2},
                      AllgatherCase{3, 2500, 1024, 2, 1},  // ragged chunks
                      AllgatherCase{5, 0, 512, 1, 1},      // empty blocks
                      AllgatherCase{2, 70000, 65536, 2, 1}),
    [](const auto& info) {
      const AllgatherCase& c = info.param;
      return "p" + std::to_string(c.procs) + "_b" + std::to_string(c.block) +
             "_c" + std::to_string(c.chunk) + "_w" +
             std::to_string(c.window) + "_l" + std::to_string(c.lanes);
    });

// ------------------------------------------------------------- scatter

TEST(SegmentedScatter, RaggedBlocksMatchMpich) {
  constexpr int kProcs = 5;
  constexpr int kRoot = 2;
  // Varied block sizes, including an empty one: the chunk table carries
  // the per-rank lengths, so nothing requires uniformity.
  const auto block_len = [](int r) -> std::size_t {
    return r == 3 ? 0 : static_cast<std::size_t>(1000 * r + 37);
  };
  auto run = [&](const std::string& algo) {
    Cluster cluster(config_for(kProcs));
    std::vector<Buffer> outs(kProcs);
    cluster.world().run([&](mpi::Proc& p) {
      if (algo == "mcast-segmented") {
        set_seg_config(p, p.comm_world(), seg_config(2048, 2, 2));
      }
      std::vector<Buffer> chunks;
      if (p.rank() == kRoot) {
        for (int r = 0; r < kProcs; ++r) {
          chunks.push_back(pattern_payload(static_cast<std::uint64_t>(r) + 50,
                                           block_len(r)));
        }
      }
      outs[static_cast<std::size_t>(p.rank())] =
          p.comm_world().coll().scatter(chunks, kRoot, 0, algo);
    });
    return outs;
  };
  const auto seg = run("mcast-segmented");
  const auto ref = run("mpich");
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(seg[static_cast<std::size_t>(r)].size(), block_len(r))
        << "rank " << r;
    EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(r) + 50,
                              seg[static_cast<std::size_t>(r)]))
        << "rank " << r;
    EXPECT_EQ(seg[static_cast<std::size_t>(r)],
              ref[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(SegmentedScatter, JumboBlocksPastTheDatagramCeiling) {
  constexpr int kProcs = 3;
  constexpr std::size_t kBlock = 300000;  // 900 kB stream > kMaxMcastDatagram
  static_assert(kProcs * kBlock > coll::kMaxMcastDatagram);
  Cluster cluster(config_for(kProcs));
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    set_seg_config(p, p.comm_world(), seg_config(65536, 4, 1));
    std::vector<Buffer> chunks;
    if (p.rank() == 0) {
      for (int r = 0; r < kProcs; ++r) {
        chunks.push_back(
            pattern_payload(static_cast<std::uint64_t>(r) + 9, kBlock));
      }
    }
    const Buffer mine =
        p.comm_world().coll().scatter(chunks, 0, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        mine.size() == kBlock &&
        check_pattern(static_cast<std::uint64_t>(p.rank()) + 9, mine);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// -------------------------------------------------- dup / split comms

TEST(SegmentedComms, DupAndSplitCommunicators) {
  constexpr int kProcs = 6;
  Cluster cluster(config_for(kProcs));
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    bool good = true;

    // A duplicated world: same ranks, fresh context, its own lanes.
    mpi::Comm dup = p.dup(p.comm_world());
    set_seg_config(p, dup, seg_config(4096, 2, 2));
    Buffer buffer;
    if (dup.rank() == 0) {
      buffer = pattern_payload(21, 50000);
    }
    dup.coll().bcast(buffer, 0, "mcast-segmented");
    good = good && check_pattern(21, buffer) && buffer.size() == 50000;

    // Two disjoint halves broadcasting different payloads concurrently.
    const int color = p.rank() % 2;
    mpi::Comm half = p.split(p.comm_world(), color, p.rank());
    set_seg_config(p, half, seg_config(1024, 4, 1));
    Buffer mine;
    if (half.rank() == 0) {
      mine = pattern_payload(static_cast<std::uint64_t>(color) + 70, 30000);
    }
    half.coll().bcast(mine, 0, "mcast-segmented");
    good = good &&
           check_pattern(static_cast<std::uint64_t>(color) + 70, mine) &&
           mine.size() == 30000;

    ok[static_cast<std::size_t>(p.rank())] = good;
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// --------------------------------------------------- pipelining overlap

// The whole point of window > 1: while chunk k's acks are still in
// flight, chunk k+1 is already on the wire.  The scheduler's
// chunk_peak_window counter records the high-water in-flight count — it
// must exceed 1 under a window-4 run and stay exactly 1 under lockstep.
TEST(SegmentedPipelining, PeakWindowShowsOverlap) {
  constexpr std::size_t kBytes = 1 << 20;
  auto run = [&](int window) {
    Cluster cluster(config_for(9));
    std::size_t n_chunks = 0;
    cluster.world().run([&](mpi::Proc& p) {
      const coll::StreamConfig cfg = seg_config(65536, window, 1);
      set_seg_config(p, p.comm_world(), cfg);
      if (p.rank() == 0) {
        n_chunks = static_cast<std::size_t>(
            coll::stream_plan(kBytes, cfg, p.mcast_recv_buffer()).n_data);
      }
      Buffer buffer;
      if (p.rank() == 0) {
        buffer = pattern_payload(3, kBytes);
      }
      p.comm_world().coll().bcast(buffer, 0, "mcast-segmented");
      EXPECT_TRUE(check_pattern(3, buffer));
    });
    const sim::SchedCounters counters = cluster.simulator().sched_counters();
    EXPECT_EQ(counters.chunk_sent, n_chunks) << "window " << window;
    EXPECT_EQ(counters.chunk_acked, n_chunks * 8) << "window " << window;
    EXPECT_EQ(counters.chunk_retried, 0u) << "window " << window;
    return counters.chunk_peak_window;
  };
  const std::uint64_t lockstep_peak = run(1);
  const std::uint64_t pipelined_peak = run(4);
  EXPECT_EQ(lockstep_peak, 1u);
  EXPECT_GT(pipelined_peak, 1u);
  EXPECT_LE(pipelined_peak, 4u);
}

// ------------------------------------------------------- kAuto routing

TEST(SegmentedAuto, JumboPayloadsFallThroughToSegmented) {
  Cluster cluster(config_for(3));
  cluster.world().run([&](mpi::Proc& p) {
    const coll::Coll facade = p.comm_world().coll();
    // Below the ceiling the classic single-shot pick stands...
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 4096), "mcast-binary");
    // ...and past it the tuned pick is inapplicable, so the trailing
    // rule routes onto the segmented pipeline — for every op that has one.
    const std::size_t jumbo = 16u << 20;
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, jumbo), "mcast-segmented");
    EXPECT_EQ(facade.resolve(coll::CollOp::kAllgather, jumbo),
              "mcast-segmented");
    EXPECT_EQ(facade.resolve(coll::CollOp::kScatter, jumbo),
              "mcast-segmented");
    // Jumbo allreduce must dodge the multicast stages' ceiling too.
    EXPECT_EQ(facade.resolve(coll::CollOp::kAllreduce, jumbo), "mpich");
  });
}

TEST(SegmentedAuto, SixteenMiBBcastSucceedsUnderAuto) {
  constexpr std::size_t kBytes = 16u << 20;
  Cluster cluster(config_for(3));
  std::vector<int> ok(3, 0);
  cluster.world().run([&](mpi::Proc& p) {
    // kAuto keys the pick on the payload size, so every rank passes a
    // matching-count buffer (the facade's documented kAuto size rule).
    Buffer buffer(kBytes);
    if (p.rank() == 0) {
      buffer = pattern_payload(16, kBytes);
    }
    p.comm_world().coll().bcast(buffer, 0);  // kAuto
    ok[static_cast<std::size_t>(p.rank())] =
        buffer.size() == kBytes && check_pattern(16, buffer);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

}  // namespace
}  // namespace mcmpi
