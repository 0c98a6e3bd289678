// Hierarchical (MagPIe-style) collective conformance: bcast:hier-mcast,
// barrier:hier, allreduce:hier and allgather:hier on multi-segment
// topologies — ragged segment blocks, roots in every segment, hub and
// switch media, dup/split (including interleaved, non-contiguous)
// communicators and their segment layouts, lossy trunks, and the
// min_segments tuning gate that keeps the hierarchy away from
// single-segment communicators.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <numeric>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "coll/hier.hpp"
#include "common/bytes.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig config_for(int procs, int segments,
                         NetworkType net = NetworkType::kSwitch) {
  ClusterConfig config;
  config.num_procs = procs;
  config.num_segments = segments;
  config.network = net;
  config.seed = 31;
  if (procs > static_cast<int>(cluster::kMaxEagleHosts)) {
    config.hosts = cluster::make_uniform_hosts(procs);
  }
  return config;
}

// ------------------------------------------------------- decomposition

/// Does the registry's (op, name) entry accept `comm`?
bool accepts(coll::CollOp op, const char* name, const mpi::Comm& comm) {
  return coll::Registry::instance().get(op, name).applicable(comm, 0);
}

TEST(HierState, RaggedSegmentsElectSmallestRankPerSegment) {
  // 7 ranks over 3 segments: contiguous blocks 3/2/2.
  Cluster cluster(config_for(7, 3));
  const mpi::SegmentLayout& lay =
      cluster.world().proc(0).comm_world().layout();
  EXPECT_EQ(lay.segment, (std::vector<int>{0, 0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(lay.slot, (std::vector<int>{0, 0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(lay.leaders, (std::vector<int>{0, 3, 5}));
  EXPECT_EQ(lay.members,
            (std::vector<std::vector<int>>{{0, 1, 2}, {3, 4}, {5, 6}}));
  EXPECT_EQ(lay.span(), 3);
  EXPECT_TRUE(lay.contiguous);
  // Each rank's intra communicator is its segment, led by intra rank 0.
  std::vector<int> intra_size(7, 0);
  cluster.world().run([&](mpi::Proc& p) {
    intra_size[static_cast<std::size_t>(p.rank())] =
        coll::hier_state(p, p.comm_world()).intra.size();
  });
  EXPECT_EQ(intra_size, (std::vector<int>{3, 3, 3, 2, 2, 2, 2}));
}

TEST(HierState, ApplicabilityAndSpan) {
  Cluster cluster(config_for(6, 3));
  bool applicable = false;
  bool contiguous = false;
  int span = 0;
  bool intra_applicable = true;
  int intra_span = 0;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    const coll::HierState& st = coll::hier_state(p, world);
    if (p.rank() == 0) {
      applicable = accepts(coll::CollOp::kBarrier, "hier", world);
      contiguous = accepts(coll::CollOp::kAllreduce, "hier", world);
      span = world.layout().span();
      intra_applicable = accepts(coll::CollOp::kBarrier, "hier", st.intra);
      intra_span = st.intra.layout().span();
    }
  });
  EXPECT_TRUE(applicable);
  EXPECT_TRUE(contiguous);
  EXPECT_EQ(span, 3);
  EXPECT_FALSE(intra_applicable)
      << "single-segment intra comm must reject hier (recursion guard)";
  EXPECT_EQ(intra_span, 1);
}

TEST(HierState, SingleSegmentWorldIsNotApplicable) {
  Cluster cluster(config_for(4, 1));
  const mpi::Comm world = cluster.world().proc(0).comm_world();
  EXPECT_FALSE(accepts(coll::CollOp::kBcast, "hier-mcast", world));
  EXPECT_EQ(world.layout().span(), 1);
}

TEST(HierState, DupAndSplitChildrenShareTheirLayoutAcrossShards) {
  // 16 ranks on 4 switch segments (blocks of 4) on two parallel workers:
  // rank 0 of the parent creates each child on its shard, and members on
  // every shard read the one layout it computed.
  ClusterConfig config = config_for(16, 4);
  config.sim_shards = 2;
  config.shard_driver = sim::ShardDriver::kParallel;
  Cluster cluster(config);
  enum Kind { kWorld, kDup, kSegment, kStrided, kMixed, kKinds };
  std::vector<std::array<const mpi::SegmentLayout*, kKinds>> seen(16);
  std::vector<int> mixed_intra(16, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const int r = p.rank();
    const mpi::Comm world = p.comm_world();
    const mpi::Comm dup = p.dup(world);
    const mpi::Comm segment = p.split(world, p.world().segment_of(r), r);
    const mpi::Comm strided = p.split(world, r % 4, r);
    // Two comms of 8 over two segments each, in scrambled rank order.
    const mpi::Comm mixed = p.split(world, r / 8, (r * 3) % 8);
    seen[static_cast<std::size_t>(r)] = {&world.layout(), &dup.layout(),
                                         &segment.layout(), &strided.layout(),
                                         &mixed.layout()};
    mixed_intra[static_cast<std::size_t>(r)] =
        coll::hier_state(p, mixed).intra.size();
  });
  using Ranks = std::vector<int>;
  using Blocks = std::vector<std::vector<int>>;
  for (int r = 0; r < 16; ++r) {
    const auto& at = seen[static_cast<std::size_t>(r)];
    // One layout object per communicator, whichever shard reads it.
    EXPECT_EQ(at[kWorld], seen[0][kWorld]) << r;
    EXPECT_EQ(at[kDup], seen[0][kDup]) << r;
    EXPECT_EQ(at[kSegment], seen[static_cast<std::size_t>(r / 4 * 4)][kSegment])
        << r;
    EXPECT_EQ(at[kStrided], seen[static_cast<std::size_t>(r % 4)][kStrided])
        << r;
    EXPECT_EQ(at[kMixed], seen[static_cast<std::size_t>(r / 8 * 8)][kMixed])
        << r;
    // A one-segment split: the span that lets World scope its group.
    const mpi::SegmentLayout& segment = *at[kSegment];
    EXPECT_EQ(segment.span(), 1) << r;
    EXPECT_EQ(segment.segment, Ranks(4, r / 4)) << r;
    EXPECT_EQ(segment.members, (Blocks{{0, 1, 2, 3}})) << r;
    // r % 4: one rank per segment.
    const mpi::SegmentLayout& strided = *at[kStrided];
    EXPECT_EQ(strided.span(), 4) << r;
    EXPECT_EQ(strided.segment, (Ranks{0, 1, 2, 3})) << r;
    EXPECT_EQ(strided.leaders, (Ranks{0, 1, 2, 3})) << r;
    EXPECT_EQ(strided.members, (Blocks{{0}, {1}, {2}, {3}})) << r;
    EXPECT_TRUE(strided.contiguous) << r;
    // Keys 0..7 pick world ranks 0,3,6,1,4,7,2,5 of each half.
    const mpi::SegmentLayout& mixed = *at[kMixed];
    const int base = r / 8 * 2;
    EXPECT_EQ(mixed.span(), 2) << r;
    EXPECT_EQ(mixed.segment, (Ranks{base, base, base + 1, base, base + 1,
                                    base + 1, base, base + 1}))
        << r;
    EXPECT_EQ(mixed.slot, (Ranks{0, 0, 1, 0, 1, 1, 0, 1})) << r;
    EXPECT_EQ(mixed.leaders, (Ranks{0, 2})) << r;
    EXPECT_EQ(mixed.members, (Blocks{{0, 1, 3, 6}, {2, 4, 5, 7}})) << r;
    EXPECT_FALSE(mixed.contiguous) << r;
    EXPECT_EQ(mixed_intra[static_cast<std::size_t>(r)], 4) << r;
  }
  for (const Kind kind : {kWorld, kDup}) {
    const mpi::SegmentLayout& whole = *seen[0][kind];
    EXPECT_EQ(whole.span(), 4);
    EXPECT_EQ(whole.leaders, (Ranks{0, 4, 8, 12}));
    EXPECT_EQ(whole.members, (Blocks{{0, 1, 2, 3},
                                     {4, 5, 6, 7},
                                     {8, 9, 10, 11},
                                     {12, 13, 14, 15}}));
    EXPECT_TRUE(whole.contiguous);
  }
}

// ----------------------------------------------------- bcast conformance

struct BcastCase {
  int procs;
  int segments;
  NetworkType net;
  int payload;
  int root;
};

class HierBcast : public ::testing::TestWithParam<BcastCase> {};

TEST_P(HierBcast, EveryRankGetsThePayload) {
  const BcastCase c = GetParam();
  Cluster cluster(config_for(c.procs, c.segments, c.net));
  std::vector<int> ok(static_cast<std::size_t>(c.procs), 0);
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == c.root) {
      data = pattern_payload(99, static_cast<std::size_t>(c.payload));
    }
    p.comm_world().coll().bcast(data, c.root, "hier-mcast");
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == static_cast<std::size_t>(c.payload) &&
        check_pattern(99, data);
  });
  for (int r = 0; r < c.procs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierBcast,
    ::testing::Values(
        // Ragged 3/2/2 blocks, root in each of the three segments.
        BcastCase{7, 3, NetworkType::kSwitch, 1472, 0},
        BcastCase{7, 3, NetworkType::kSwitch, 16384, 4},
        BcastCase{7, 3, NetworkType::kSwitch, 0, 6},
        BcastCase{8, 4, NetworkType::kSwitch, 16384, 0},
        // Rendezvous-sized: trunk transfers ride RTS/CTS.
        BcastCase{9, 3, NetworkType::kSwitch, 100000, 8},
        // One rank per segment: every intra phase degenerates.
        BcastCase{5, 5, NetworkType::kSwitch, 512, 2},
        // Shared-medium segments (CSMA/CD hubs) joined by trunks.
        BcastCase{6, 2, NetworkType::kHub, 2000, 3},
        // Beyond the eagle host table.
        BcastCase{12, 4, NetworkType::kSwitch, 4096, 5}),
    [](const auto& info) {
      const BcastCase& c = info.param;
      return "p" + std::to_string(c.procs) + "_s" +
             std::to_string(c.segments) + "_" + cluster::to_string(c.net) +
             "_b" + std::to_string(c.payload) + "_r" +
             std::to_string(c.root);
    });

// ---------------------------------------------------------------- barrier

TEST(HierBarrier, NoRankLeavesBeforeTheLastArrives) {
  constexpr int kProcs = 6;
  Cluster cluster(config_for(kProcs, 3));
  std::vector<SimTime> left(kProcs, SimTime{});
  cluster.world().run([&](mpi::Proc& p) {
    p.self().delay(milliseconds(p.rank() + 1));
    p.comm_world().coll().barrier("hier");
    left[static_cast<std::size_t>(p.rank())] = p.self().now();
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_GE(left[static_cast<std::size_t>(r)].count(),
              milliseconds(kProcs).count())
        << "rank " << r << " left before the slowest rank arrived";
  }
}

TEST(HierBarrier, BackToBackBarriersStaySynchronized) {
  constexpr int kProcs = 8;
  Cluster cluster(config_for(kProcs, 4));
  std::vector<int> rounds(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    for (int i = 0; i < 3; ++i) {
      p.comm_world().coll().barrier("hier");
      ++rounds[static_cast<std::size_t>(p.rank())];
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(rounds[static_cast<std::size_t>(r)], 3) << "rank " << r;
  }
}

// -------------------------------------------------------------- allreduce

TEST(HierAllreduce, MatchesMpichForVectorSums) {
  constexpr int kProcs = 8;
  constexpr std::size_t kElems = 512;  // 4 KiB of int64
  Cluster cluster(config_for(kProcs, 4));
  std::vector<Buffer> hier(kProcs);
  std::vector<Buffer> mpich(kProcs);
  cluster.world().run([&](mpi::Proc& p) {
    std::vector<std::int64_t> mine(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      mine[i] = static_cast<std::int64_t>(i) * (p.rank() + 1);
    }
    Buffer bytes(kElems * sizeof(std::int64_t));
    std::memcpy(bytes.data(), mine.data(), bytes.size());
    const auto r = static_cast<std::size_t>(p.rank());
    hier[r] = p.comm_world().coll().allreduce(bytes, mpi::Op::kSum,
                                              mpi::Datatype::kInt64, "hier");
    mpich[r] = p.comm_world().coll().allreduce(bytes, mpi::Op::kSum,
                                               mpi::Datatype::kInt64, "mpich");
  });
  // sum over ranks of i*(r+1) = i * N(N+1)/2
  for (int r = 0; r < kProcs; ++r) {
    ASSERT_EQ(hier[static_cast<std::size_t>(r)].size(),
              kElems * sizeof(std::int64_t));
    EXPECT_EQ(hier[static_cast<std::size_t>(r)],
              mpich[static_cast<std::size_t>(r)])
        << "rank " << r;
    std::int64_t first_sum = 0;
    std::memcpy(&first_sum,
                hier[static_cast<std::size_t>(r)].data() + sizeof(std::int64_t),
                sizeof(std::int64_t));
    EXPECT_EQ(first_sum, kProcs * (kProcs + 1) / 2) << "rank " << r;
  }
}

// Non-commutative custom op: 2x2 int64 matrix product (inout = in · inout,
// `in` the lower-ranked partial) — the hierarchy's leader combine must
// preserve comm rank order across segment partials.
using Mat = std::array<std::int64_t, 4>;

Mat matmul(const Mat& a, const Mat& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

void matrix_product_op(mpi::Datatype type, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> inout, std::size_t count) {
  MC_ASSERT(type == mpi::Datatype::kInt64);
  MC_ASSERT(count % 4 == 0);
  for (std::size_t g = 0; g < count / 4; ++g) {
    Mat a;
    Mat b;
    std::memcpy(a.data(), in.data() + g * sizeof(Mat), sizeof(Mat));
    std::memcpy(b.data(), inout.data() + g * sizeof(Mat), sizeof(Mat));
    const Mat r = matmul(a, b);
    std::memcpy(inout.data() + g * sizeof(Mat), r.data(), sizeof(Mat));
  }
}

Mat rank_matrix(int rank) { return {1, rank + 1, 0, 2}; }

TEST(HierAllreduce, NonCommutativeOpCombinesInRankOrder) {
  constexpr int kProcs = 7;  // ragged 3/2/2 blocks
  const mpi::CustomOpGuard guard(matrix_product_op);
  Cluster cluster(config_for(kProcs, 3));
  std::vector<Buffer> results(kProcs);
  cluster.world().run([&](mpi::Proc& p) {
    const Mat mine = rank_matrix(p.rank());
    Buffer bytes(sizeof mine);
    std::memcpy(bytes.data(), mine.data(), sizeof mine);
    results[static_cast<std::size_t>(p.rank())] =
        p.comm_world().coll().allreduce(bytes, mpi::Op::kCustom,
                                        mpi::Datatype::kInt64, "hier");
  });
  Mat expected = rank_matrix(0);
  for (int r = 1; r < kProcs; ++r) {
    expected = matmul(expected, rank_matrix(r));
  }
  Buffer want(sizeof expected);
  std::memcpy(want.data(), expected.data(), sizeof expected);
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], want)
        << "rank " << r << ": M_0 · ... · M_6 must be combined left to right";
  }
}

// -------------------------------------------------------------- allgather

TEST(HierAllgather, RaggedBlockSizesRoundTrip) {
  constexpr int kProcs = 7;
  Cluster cluster(config_for(kProcs, 3));
  auto block_size = [](int rank) {
    return static_cast<std::size_t>((rank * 137) % 500);  // rank 0: empty
  };
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const Buffer mine = pattern_payload(static_cast<std::uint64_t>(p.rank()),
                                        block_size(p.rank()));
    const auto blocks = p.comm_world().coll().allgather(mine, "hier");
    bool good = blocks.size() == static_cast<std::size_t>(kProcs);
    for (int r = 0; good && r < kProcs; ++r) {
      const Buffer& b = blocks[static_cast<std::size_t>(r)];
      good = b.size() == block_size(r) &&
             check_pattern(static_cast<std::uint64_t>(r), b);
    }
    ok[static_cast<std::size_t>(p.rank())] = good;
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(HierAllgather, EachBlockCrossesEachTrunkOnce) {
  // 6 ranks on 2 segments: each leader's bundle (3 small blocks, one
  // frame) crosses the single trunk exactly once in each direction.  The
  // blocks are small enough that the intra phases stay on point-to-point —
  // local unicast never reaches the bridge, so the trunk counter isolates
  // the leader exchange (intra multicast would flood across the bridge).
  constexpr int kProcs = 6;
  constexpr std::size_t kBlock = 200;
  Cluster cluster(config_for(kProcs, 2));
  auto op = [](mpi::Proc& p) {
    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(p.rank()), kBlock);
    (void)p.comm_world().coll().allgather(mine, "hier");
  };
  cluster.world().run([&](mpi::Proc& p) { op(p); });  // warm the split
  const std::uint64_t before = cluster.bridges().front()->forwarded_frames();
  cluster.world().run([&](mpi::Proc& p) { op(p); });
  const std::uint64_t after = cluster.bridges().front()->forwarded_frames();
  // One bundle datagram per direction plus transport acknowledgements;
  // per-rank trunk crossings (a flat algorithm's signature) would push the
  // count past the bound.
  const std::uint64_t forwarded = after - before;
  EXPECT_GE(forwarded, 2u);
  EXPECT_LE(forwarded, 10u)
      << "bundle retransmits or per-rank trunk crossings detected";
}

// ----------------------------------------------------- dup / split comms

TEST(HierComms, DupAndContiguousSplitKeepTheHierarchyWorking)
{
  constexpr int kProcs = 8;  // 2 segments, 4/4
  Cluster cluster(config_for(kProcs, 2));
  std::vector<int> ok(kProcs, 1);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    auto& good = ok[static_cast<std::size_t>(p.rank())];

    // dup: a fresh context builds its own cached HierState.
    const mpi::Comm dup = p.dup(world);
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(7, 3000);
    }
    dup.coll().bcast(data, 0, "hier-mcast");
    good &= check_pattern(7, data) && data.size() == 3000;

    // Even/odd split: comm ranks still group contiguously by segment
    // ({0,2} on segment 0, {4,6} on segment 1), so hier stays applicable.
    const mpi::Comm half = p.split(world, p.rank() % 2, p.rank());
    good &= accepts(coll::CollOp::kBcast, "hier-mcast", half);
    Buffer sub;
    if (half.rank() == 0) {
      sub = pattern_payload(21, 2048);
    }
    half.coll().bcast(sub, 0, "hier-mcast");
    good &= check_pattern(21, sub) && sub.size() == 2048;
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(HierComms, InterleavedSplitIsNonContiguousButBcastStillWorks) {
  constexpr int kProcs = 8;  // 2 segments, 4/4
  Cluster cluster(config_for(kProcs, 2));
  std::vector<int> ok(kProcs, 1);
  bool applicable = false;
  bool contiguous = true;
  std::string auto_pick;
  cluster.world().run([&](mpi::Proc& p) {
    auto& good = ok[static_cast<std::size_t>(p.rank())];
    // Scrambled key: comm rank order interleaves the two segments, so the
    // contiguity predicate must reject allreduce:hier while bcast (which
    // only needs leaders) still delivers.
    const mpi::Comm mixed =
        p.split(p.comm_world(), 0, (p.rank() * 3) % kProcs);
    if (mixed.rank() == 0) {
      applicable = accepts(coll::CollOp::kBcast, "hier-mcast", mixed);
      contiguous = accepts(coll::CollOp::kAllreduce, "hier", mixed);
      auto_pick = coll::TuningTable::defaults()
                      .select(coll::CollOp::kAllreduce, 16384, mixed)
                      .name;
    }
    Buffer data;
    if (mixed.rank() == 2) {
      data = pattern_payload(13, 5000);
    }
    mixed.coll().bcast(data, 2, "hier-mcast");
    good &= check_pattern(13, data) && data.size() == 5000;

    // kAuto allreduce must fall through to a flat algorithm and still be
    // correct on the interleaved comm.
    const std::int64_t mine = mixed.rank() + 1;
    Buffer bytes(sizeof mine);
    std::memcpy(bytes.data(), &mine, sizeof mine);
    const Buffer sum = mixed.coll().allreduce(bytes, mpi::Op::kSum,
                                              mpi::Datatype::kInt64);
    std::int64_t value = 0;
    std::memcpy(&value, sum.data(), sizeof value);
    good &= value == kProcs * (kProcs + 1) / 2;
  });
  EXPECT_TRUE(applicable);
  EXPECT_FALSE(contiguous)
      << "interleaved segment blocks must fail the contiguity predicate";
  EXPECT_NE(auto_pick, "hier")
      << "the tuning table must not pick allreduce:hier on an interleaved comm";
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ------------------------------------------------------------ lossy trunks

TEST(HierFaults, SurvivesLossyTrunksAndLinks) {
  constexpr int kProcs = 6;
  ClusterConfig config = config_for(kProcs, 3);
  config.faults.trunk.loss = 0.02;
  config.faults.link.loss = 0.01;
  Cluster cluster(config);
  std::vector<int> ok(kProcs, 1);
  cluster.world().run([&](mpi::Proc& p) {
    auto& good = ok[static_cast<std::size_t>(p.rank())];
    for (int rep = 0; rep < 3; ++rep) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(static_cast<std::uint64_t>(rep), 8192);
      }
      p.comm_world().coll().bcast(data, 0, "hier-mcast");
      good &= check_pattern(static_cast<std::uint64_t>(rep), data) &&
              data.size() == 8192;
      p.comm_world().coll().barrier("hier");
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ------------------------------------------------------ tuning integration

TEST(HierTuning, DefaultsPickHierOnlyAcrossSegments) {
  // 2 segments of 4 ranks: the intra comms are big enough (> 2 ranks)
  // that the flat multicast rules apply inside a segment.
  Cluster cluster(config_for(8, 2));
  const coll::TuningTable& table = coll::TuningTable::defaults();
  std::string big_bcast;
  std::string tiny_bcast;
  std::string barrier;
  std::string allgather;
  std::string big_allgather;
  std::string intra_bcast;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    const coll::HierState& st = coll::hier_state(p, world);
    if (p.rank() == 0) {
      big_bcast = table.select(coll::CollOp::kBcast, 16384, world).name;
      tiny_bcast = table.select(coll::CollOp::kBcast, 256, world).name;
      barrier = table.select(coll::CollOp::kBarrier, 0, world).name;
      allgather = table.select(coll::CollOp::kAllgather, 2048, world).name;
      big_allgather =
          table.select(coll::CollOp::kAllgather, 16384, world).name;
      intra_bcast = table.select(coll::CollOp::kBcast, 16384, st.intra).name;
    }
  });
  // The trunk bridges forward every multicast frame, so the flat NACK
  // stream crosses each trunk once, as hier-mcast's relay does, without
  // its store-and-forward: a clean bcast stays flat across segments.
  EXPECT_EQ(big_bcast, "nack-mcast");
  EXPECT_EQ(tiny_bcast, "nack-mcast");
  // A clean barrier of more than 4 ranks on 2 segments is mpich's: the
  // multicast barrier wins behind 100 us trunks but loses more behind 2 ms
  // (claims_tuning --op=barrier).
  EXPECT_EQ(barrier, "mpich");
  // Leader bundles cross each trunk once up to 2 KiB per rank; past that
  // the bundle's intra release costs more than the ring's trunk shifts.
  EXPECT_EQ(allgather, "hier");
  EXPECT_EQ(big_allgather, "ring");
  EXPECT_EQ(intra_bcast, "nack-mcast")
      << "the intra comm spans one segment: flat rules apply";
}

TEST(HierTuning, SelectionDoesNotLeakAcrossClusters) {
  // Two 16-rank, 2-segment clusters with different trunks: constructing
  // the second must not change what the first one's kAuto picks through
  // the defaults' min_segments rule.
  const auto make = [](SimTime trunk) {
    ClusterConfig config;
    config.num_procs = 16;
    config.num_segments = 2;
    config.network = NetworkType::kSwitch;
    config.hosts = cluster::make_uniform_hosts(16);
    config.trunk_latency = trunk;
    return std::make_unique<Cluster>(config);
  };
  const auto allgather_pick = [](Cluster& c) {
    return c.world().proc(0).comm_world().coll().resolve(
        coll::CollOp::kAllgather, 2048);
  };
  const auto fast = make(microseconds(100));
  EXPECT_EQ(allgather_pick(*fast), "hier");
  const auto slow = make(milliseconds(2));
  EXPECT_EQ(allgather_pick(*fast), "hier")
      << "a later Cluster changed an earlier Cluster's kAuto pick";
  EXPECT_EQ(allgather_pick(*slow), "hier");
}

TEST(HierTuning, DefaultsDriveKAutoAcrossSegments) {
  constexpr int kProcs = 8;
  Cluster cluster(config_for(kProcs, 4));
  std::vector<int> ok(kProcs, 1);
  cluster.world().run([&](mpi::Proc& p) {
    auto& good = ok[static_cast<std::size_t>(p.rank())];
    const mpi::Comm world = p.comm_world();
    // All kAuto across segments (the selection itself is covered above);
    // results must be exact.  Under
    // kAuto every rank presents the agreed payload size (selection keys on
    // the local count, like MPI's matching-count rule).
    Buffer data(16384);
    if (p.rank() == 0) {
      data = pattern_payload(3, 16384);
    }
    world.coll().bcast(data, 0);
    good &= check_pattern(3, data) && data.size() == 16384;

    world.coll().barrier();

    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(p.rank()), 4096);
    const auto blocks = world.coll().allgather(mine);
    good &= blocks.size() == static_cast<std::size_t>(kProcs);
    for (int r = 0; good && r < kProcs; ++r) {
      good &= check_pattern(static_cast<std::uint64_t>(r),
                            blocks[static_cast<std::size_t>(r)]);
    }

    std::vector<std::int64_t> values(512);
    std::iota(values.begin(), values.end(), p.rank());
    Buffer bytes(values.size() * sizeof(std::int64_t));
    std::memcpy(bytes.data(), values.data(), bytes.size());
    const Buffer sum =
        world.coll().allreduce(bytes, mpi::Op::kSum, mpi::Datatype::kInt64);
    std::int64_t first = 0;
    std::memcpy(&first, sum.data(), sizeof first);
    good &= first == kProcs * (kProcs - 1) / 2;  // sum of ranks
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ----------------------------------------------- per-pair trunk latencies

TEST(HierTrunks, PerPairLatencyShapesPointToPointTiming) {
  // 3 segments, 2 ranks each; the 0<->2 trunk is 10x slower than 0<->1.
  ClusterConfig config = config_for(6, 3);
  config.trunk_latency_of = [](int a, int b) {
    if (a == 0 && b == 1) {
      return microseconds(30);
    }
    if (a == 0 && b == 2) {
      return microseconds(300);
    }
    return SimTime{};  // (1,2): fall back to the uniform default
  };
  Cluster cluster(config);
  EXPECT_EQ(cluster.trunk_latency(0, 1), microseconds(30));
  EXPECT_EQ(cluster.trunk_latency(2, 0), microseconds(300));
  EXPECT_EQ(cluster.trunk_latency(1, 2), config.trunk_latency);

  SimTime near_rtt{};
  SimTime far_rtt{};
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    const Buffer ping = pattern_payload(1, 64);
    if (p.rank() == 0) {
      SimTime t0 = p.self().now();
      p.send(world, 2, 1, ping);  // segment 0 -> 1
      (void)p.recv(world, 2, 2);
      near_rtt = p.self().now() - t0;
      t0 = p.self().now();
      p.send(world, 4, 1, ping);  // segment 0 -> 2
      (void)p.recv(world, 4, 2);
      far_rtt = p.self().now() - t0;
    } else if (p.rank() == 2 || p.rank() == 4) {
      const Buffer got = p.recv(world, 0, 1);
      p.send(world, 0, 2, got);
    }
  });
  // Two extra trunk crossings of +270us each dominate everything else.
  EXPECT_GT(far_rtt.count(), near_rtt.count() + microseconds(400).count())
      << "the slow trunk's latency must show up in the round trip";
}

/// 16 ranks on 4 switch segments whose trunks take 100 us, except a 2 ms
/// trunk between segments `slow_a` < `slow_b`: a multicast across it is
/// overtaken by a later one relayed over two fast trunks.
ClusterConfig one_slow_trunk(int slow_a, int slow_b) {
  ClusterConfig config = config_for(16, 4);
  config.trunk_latency = microseconds(100);
  config.trunk_latency_of = [slow_a, slow_b](int a, int b) {
    return a == slow_a && b == slow_b ? milliseconds(2) : SimTime{};
  };
  return config;
}

TEST(HierTrunks, ScoutFreeStreamOvertakingAScoutMulticastIsHeld) {
  // A communicator of one rank per segment.  The last block of the
  // lockstep multicast allgather (world rank 12, segment 3) reaches world
  // rank 4 over the slow 1-3 trunk; world rank 0 has it after 100 us,
  // returns, and its nack-mcast bcast reaches rank 4 over two fast trunks
  // first.  Rank 4 must hold the stream frame while it waits for the
  // block, then deliver both.
  Cluster cluster(one_slow_trunk(1, 3));
  constexpr int kRounds = 3;
  constexpr std::size_t kBytes = 1024;
  std::vector<int> ok(16, 1);
  cluster.world().run([&](mpi::Proc& p) {
    const bool member = p.rank() % 4 == 0;
    const mpi::Comm spread = p.split(p.comm_world(), member ? 0 : 1, p.rank());
    if (!member) {
      return;
    }
    auto& good = ok[static_cast<std::size_t>(p.rank())];
    for (int round = 0; round < kRounds; ++round) {
      const std::vector<Buffer> blocks = spread.coll().allgather(
          pattern_payload(static_cast<std::uint64_t>(
                              spread.rank() + 4 * round),
                          kBytes),
          "mcast-lockstep");
      good &= blocks.size() == 4;
      for (int r = 0; r < static_cast<int>(blocks.size()); ++r) {
        good &= check_pattern(static_cast<std::uint64_t>(r + 4 * round),
                              blocks[static_cast<std::size_t>(r)]) &&
                blocks[static_cast<std::size_t>(r)].size() == kBytes;
      }
      Buffer data;
      if (spread.rank() == 0) {
        data = pattern_payload(40 + static_cast<std::uint64_t>(round), kBytes);
      }
      spread.coll().bcast(data, 0, "nack-mcast");
      good &= data.size() == kBytes &&
              check_pattern(40 + static_cast<std::uint64_t>(round), data);
    }
  });
  for (int r = 0; r < 16; r += 4) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(HierTrunks, BlastBlockOvertakingTheBarrierReleaseIsHeld) {
  // The blast allgather's barrier release from world rank 0 reaches world
  // rank 4 over the slow 0-1 trunk; world rank 12 has it after 100 us and
  // blasts its block, which reaches rank 4 over the fast 3-1 trunk first.
  // The barrier's receive holds the block, and the blast takes it back.
  Cluster cluster(one_slow_trunk(0, 1));
  std::vector<int> ok(16, 1);
  cluster.world().run([&](mpi::Proc& p) {
    const bool member = p.rank() % 4 == 0;
    const mpi::Comm spread = p.split(p.comm_world(), member ? 0 : 1, p.rank());
    if (!member) {
      return;
    }
    const Buffer mine =
        pattern_payload(60 + static_cast<std::uint64_t>(spread.rank()), 512);
    const std::vector<Buffer> blocks =
        spread.coll().allgather(mine, "mcast-blast");
    auto& good = ok[static_cast<std::size_t>(p.rank())];
    good &= blocks.size() == 4;
    for (std::size_t r = 0; r < blocks.size(); ++r) {
      good &= blocks[r].size() == 512 && check_pattern(60 + r, blocks[r]);
    }
  });
  for (int r = 0; r < 16; r += 4) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// ------------------------------------------ strided tenant communicators

/// What one rank of a tenant communicator saw in a back-to-back run: its
/// resolved algorithm and its result bytes per call.
struct TenantLog {
  std::vector<std::string> picks;
  std::vector<Buffer> results;
};

/// perfbench's tenants-4seg shape: 16 ranks on 4 switch segments split
/// into the four communicators r % 4, one rank per segment, all running at
/// once.  Each runs bcast, barrier, allreduce, reduce and allgather back to
/// back under kAuto, or as the point-to-point reference (mpich, and the
/// ring allgather), at sizes on both sides of every tuning threshold those
/// ops have, on 100 us trunks or with one 2 ms trunk.
std::vector<TenantLog> run_tenants(bool reference, sim::ShardDriver driver,
                                   bool slow_trunk) {
  ClusterConfig config = slow_trunk ? one_slow_trunk(1, 3) : config_for(16, 4);
  config.trunk_latency = microseconds(100);
  config.sim_shards = 4;
  config.shard_driver = driver;
  Cluster cluster(config);
  std::vector<TenantLog> logs(16);
  cluster.world().run([&](mpi::Proc& p) {
    const int tenant_id = p.rank() % 4;
    const mpi::Comm tenant = p.split(p.comm_world(), tenant_id, p.rank());
    coll::Coll coll = tenant.coll();
    TenantLog& log = logs[static_cast<std::size_t>(p.rank())];
    const std::string algo = reference ? "mpich" : coll::kAuto;
    const std::string allgather_algo = reference ? "ring" : coll::kAuto;
    const auto note = [&](coll::CollOp op, std::size_t bytes, Buffer result) {
      log.picks.push_back(coll.resolve(
          op, bytes, op == coll::CollOp::kAllgather ? allgather_algo : algo));
      log.results.push_back(std::move(result));
    };
    int call = 0;
    for (const std::size_t bytes :
         {16, 512, 1024, 2048, 4096, 8192, 16384}) {
      const auto seed = static_cast<std::uint64_t>(++call * 16 + tenant_id);
      const Buffer mine = pattern_payload(seed * 4 + tenant.rank(), bytes);
      Buffer data(bytes);
      if (tenant.rank() == 0) {
        data = pattern_payload(seed, bytes);
      }
      coll.bcast(data, 0, algo);
      note(coll::CollOp::kBcast, bytes, std::move(data));
      coll.barrier(algo);
      note(coll::CollOp::kBarrier, 0, {});
      note(coll::CollOp::kAllreduce, bytes,
           coll.allreduce(mine, mpi::Op::kSum, mpi::Datatype::kByte, algo));
      note(coll::CollOp::kReduce, bytes,
           coll.reduce(mine, mpi::Op::kSum, mpi::Datatype::kByte, call % 4,
                       algo));
      Buffer gathered;
      for (const Buffer& block : coll.allgather(mine, allgather_algo)) {
        gathered.insert(gathered.end(), block.begin(), block.end());
      }
      note(coll::CollOp::kAllgather, bytes, std::move(gathered));
    }
  });
  return logs;
}

TEST(HierTenants, StridedCommsAgreeOnKAutoAndMatchMpich) {
  for (const bool slow_trunk : {false, true}) {
    for (const auto driver :
         {sim::ShardDriver::kSerial, sim::ShardDriver::kParallel}) {
      SCOPED_TRACE(std::string(slow_trunk ? "one 2 ms trunk" : "100 us") +
                   (driver == sim::ShardDriver::kSerial ? ", serial"
                                                        : ", parallel"));
      const auto automatic = run_tenants(false, driver, slow_trunk);
      const auto mpich = run_tenants(true, driver, slow_trunk);
      for (std::size_t r = 0; r < automatic.size(); ++r) {
        EXPECT_EQ(automatic[r].picks, automatic[0].picks)
            << "world rank " << r << " resolved a different algorithm";
        ASSERT_EQ(automatic[r].results.size(), mpich[r].results.size());
        for (std::size_t i = 0; i < automatic[r].results.size(); ++i) {
          EXPECT_TRUE(automatic[r].results[i] == mpich[r].results[i])
              << "world rank " << r << ", call " << i << " ("
              << automatic[r].picks[i] << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcmpi
