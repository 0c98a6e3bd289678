// The communicator-scoped collective API: registry contents and dispatch,
// the auto-generated algorithm sweep (any newly registered algorithm is
// correctness-tested for free), tuned kAuto selection, nonblocking
// collectives over the fiber scheduler, and the multicast-identity
// (group address, port) uniqueness regression.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "coll/mcast_stream.hpp"
#include "common/bytes.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;
using coll::CollOp;
using coll::Registry;

ClusterConfig config_for(int procs) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = NetworkType::kSwitch;
  config.seed = 33;
  return config;
}

// ------------------------------------------------------------- registry

TEST(Registry, CarriesTheFullAlgorithmSet) {
  const Registry& r = Registry::instance();
  // The paper's set and the extensions, by name.
  for (const char* name : {"mpich", "mcast-binary", "mcast-linear",
                           "ack-mcast", "sequencer", "scatter-allgather"}) {
    EXPECT_NE(r.find(CollOp::kBcast, name), nullptr) << name;
  }
  for (const char* name : {"mpich", "mcast"}) {
    EXPECT_NE(r.find(CollOp::kBarrier, name), nullptr) << name;
  }
  for (const char* name : {"ring", "mcast-lockstep", "mcast-blast"}) {
    EXPECT_NE(r.find(CollOp::kAllgather, name), nullptr) << name;
  }
  // The widened surface: gather keeps its scout variant and scan its
  // doubling scan beside the point-to-point baseline; reduce, scatter and
  // alltoall keep the baseline alone.
  for (const CollOp op :
       {CollOp::kReduce, CollOp::kScatter, CollOp::kAlltoall}) {
    EXPECT_EQ(r.names(op), std::vector<std::string>{"mpich"})
        << coll::to_string(op);
  }
  for (const char* name : {"mpich", "scout-combining"}) {
    EXPECT_NE(r.find(CollOp::kGather, name), nullptr) << name;
  }
  for (const char* name : {"mpich", "binomial"}) {
    EXPECT_NE(r.find(CollOp::kScan, name), nullptr) << name;
  }
  EXPECT_GE(r.entries().size(), 24u);
  // Every entry carries the uniform metadata.
  for (const coll::CollAlgorithm& a : r.entries()) {
    EXPECT_TRUE(static_cast<bool>(a.applicable)) << a.name;
  }
}

TEST(Registry, RejectsUnknownNames) {
  const Registry& r = Registry::instance();
  try {
    (void)r.get(CollOp::kBcast, "no-such-algo");
    FAIL() << "unknown algorithm must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mcast-binary"), std::string::npos)
        << "the error should list the registered names";
  }
}

// --------------------------------------------------- auto-generated sweep
//
// Satellite requirement: every registered algorithm x {1 B, 1 KiB, 64 KiB}
// payloads x {2, 3, 9} ranks x a dup- and a split-derived communicator,
// asserting payload correctness — a newly registered algorithm is swept
// here with no test changes.

void sweep_comm(mpi::Proc& p, const mpi::Comm& comm, std::size_t bytes,
                std::vector<std::string>& errors) {
  const Registry& r = Registry::instance();
  coll::Coll coll = comm.coll();
  const auto note = [&](const std::string& what) {
    std::ostringstream os;
    os << what << " (ranks=" << comm.size() << ", bytes=" << bytes
       << ", rank=" << comm.rank() << ")";
    errors.push_back(os.str());
  };

  for (const std::string& algo : r.applicable_names(CollOp::kBcast, comm,
                                                    bytes)) {
    Buffer data(bytes);
    if (comm.rank() == 0) {
      data = pattern_payload(bytes, bytes);
    }
    coll.bcast(data, 0, algo);
    if (data.size() != bytes || !check_pattern(bytes, data)) {
      note("bcast/" + algo + " payload mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kBarrier, comm,
                                                    0)) {
    coll.barrier(algo);
  }

  for (const std::string& algo : r.applicable_names(CollOp::kAllreduce, comm,
                                                    bytes)) {
    // Elementwise max over bytes: rank r contributes (r + i) % 251; the
    // expected maximum is computable locally on every rank.
    Buffer mine(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      mine[i] = static_cast<std::uint8_t>(
          (static_cast<std::size_t>(comm.rank()) + i) % 251);
    }
    const Buffer out =
        coll.allreduce(mine, mpi::Op::kMax, mpi::Datatype::kByte, algo);
    bool good = out.size() == bytes;
    for (std::size_t i = 0; good && i < bytes; ++i) {
      std::uint8_t expected = 0;
      for (int rank = 0; rank < comm.size(); ++rank) {
        expected = std::max(
            expected, static_cast<std::uint8_t>(
                          (static_cast<std::size_t>(rank) + i) % 251));
      }
      good = out[i] == expected;
    }
    if (!good) {
      note("allreduce/" + algo + " result mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kAllgather, comm,
                                                    bytes)) {
    const bool lossy = r.get(CollOp::kAllgather, algo).lossy;
    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(comm.rank()), bytes);
    const auto blocks = coll.allgather(mine, algo);
    if (blocks.size() != static_cast<std::size_t>(comm.size())) {
      note("allgather/" + algo + " block count");
      continue;
    }
    for (int rank = 0; rank < comm.size(); ++rank) {
      const Buffer& block = blocks[static_cast<std::size_t>(rank)];
      if (lossy && block.empty() && rank != comm.rank()) {
        continue;  // lossy pacing may drop peer blocks; own block stays
      }
      if (block.size() != bytes ||
          !check_pattern(static_cast<std::uint64_t>(rank), block)) {
        note("allgather/" + algo + " block " + std::to_string(rank));
      }
    }
  }

  // ------------------------- the widened surface: reduce/gather/scatter/scan
  // Byte-wise max with rank r contributing (r + i) % 251: the reduced (and
  // every prefix) result is computable locally on every rank.
  const auto contribution = [&](int rank) {
    Buffer mine(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      mine[i] = static_cast<std::uint8_t>(
          (static_cast<std::size_t>(rank) + i) % 251);
    }
    return mine;
  };
  const auto max_over = [&](int ranks, std::size_t i) {
    std::uint8_t expected = 0;
    for (int rank = 0; rank < ranks; ++rank) {
      expected = std::max(expected,
                          static_cast<std::uint8_t>(
                              (static_cast<std::size_t>(rank) + i) % 251));
    }
    return expected;
  };
  const int last = comm.size() - 1;

  for (const std::string& algo : r.applicable_names(CollOp::kReduce, comm,
                                                    bytes)) {
    const Buffer out = coll.reduce(contribution(comm.rank()), mpi::Op::kMax,
                                   mpi::Datatype::kByte, last, algo);
    if (comm.rank() != last) {
      if (!out.empty()) {
        note("reduce/" + algo + " non-root result not empty");
      }
      continue;
    }
    bool good = out.size() == bytes;
    for (std::size_t i = 0; good && i < bytes; ++i) {
      good = out[i] == max_over(comm.size(), i);
    }
    if (!good) {
      note("reduce/" + algo + " result mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kGather, comm,
                                                    bytes)) {
    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(comm.rank()), bytes);
    const auto blocks = coll.gather(mine, /*root=*/0, algo);
    if (comm.rank() != 0) {
      if (!blocks.empty()) {
        note("gather/" + algo + " non-root blocks not empty");
      }
      continue;
    }
    bool good = blocks.size() == static_cast<std::size_t>(comm.size());
    for (int rank = 0; good && rank < comm.size(); ++rank) {
      const Buffer& block = blocks[static_cast<std::size_t>(rank)];
      good = block.size() == bytes &&
             check_pattern(static_cast<std::uint64_t>(rank), block);
    }
    if (!good) {
      note("gather/" + algo + " blocks mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kScatter, comm,
                                                    bytes)) {
    std::vector<Buffer> chunks;
    if (comm.rank() == last) {
      for (int rank = 0; rank < comm.size(); ++rank) {
        chunks.push_back(
            pattern_payload(static_cast<std::uint64_t>(300 + rank), bytes));
      }
    }
    const Buffer mine = coll.scatter(chunks, last, bytes, algo);
    if (mine.size() != bytes ||
        !check_pattern(static_cast<std::uint64_t>(300 + comm.rank()), mine)) {
      note("scatter/" + algo + " chunk mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kScan, comm,
                                                    bytes)) {
    const Buffer out = coll.scan(contribution(comm.rank()), mpi::Op::kMax,
                                 mpi::Datatype::kByte, algo);
    bool good = out.size() == bytes;
    for (std::size_t i = 0; good && i < bytes; ++i) {
      good = out[i] == max_over(comm.rank() + 1, i);
    }
    if (!good) {
      note("scan/" + algo + " prefix mismatch");
    }
  }

  for (const std::string& algo : r.applicable_names(CollOp::kAlltoall, comm,
                                                    bytes)) {
    std::vector<Buffer> to_each;
    for (int dst = 0; dst < comm.size(); ++dst) {
      to_each.push_back(pattern_payload(
          static_cast<std::uint64_t>(comm.rank() * 1000 + dst), bytes));
    }
    const auto from_each = coll.alltoall(to_each, bytes, algo);
    bool good = from_each.size() == static_cast<std::size_t>(comm.size());
    for (int src = 0; good && src < comm.size(); ++src) {
      good = check_pattern(
          static_cast<std::uint64_t>(src * 1000 + comm.rank()),
          from_each[static_cast<std::size_t>(src)]);
    }
    if (!good) {
      note("alltoall/" + algo + " blocks mismatch");
    }
  }
}

class RegistrySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RegistrySweep, EveryAlgorithmDeliversOnDerivedCommunicators) {
  const auto [procs, payload] = GetParam();
  const auto bytes = static_cast<std::size_t>(payload);
  Cluster cluster(config_for(procs));
  std::vector<std::string> errors;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm world = p.comm_world();
    // Dup-derived: same group, fresh context (fresh multicast identity).
    const mpi::Comm dupped = p.dup(world);
    sweep_comm(p, dupped, bytes, errors);
    // Split-derived: sub-groups (even/odd world ranks), including the
    // size-1 children the 2-rank case produces.
    const mpi::Comm split = p.split(world, p.rank() % 2, p.rank());
    sweep_comm(p, split, bytes, errors);
  });

  for (const std::string& error : errors) {
    ADD_FAILURE() << error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegistrySweep,
    ::testing::Combine(::testing::Values(2, 3, 9),
                       ::testing::Values(1, 1024, 64 * 1024)),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------- tuned selection

TEST(TuningTable, DefaultsEncodeThePaperCrossovers) {
  Cluster cluster(config_for(9));
  cluster.world().run([](mpi::Proc& p) {
    coll::Coll coll = p.comm_world().coll();
    // A clean-wire broadcast rides the scout-free NACK stream up to 16 KiB
    // and the frame-filling FEC stream above it; no scout crossover.
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 64 * 1024), "fec-mcast");
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 8), "nack-mcast");
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 1024), "nack-mcast");
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 1025), "nack-mcast");
    // On one segment the multicast barrier wins at every N (Fig. 13), and
    // the multicast allreduce release from 16 B (claims_tuning).
    EXPECT_EQ(coll.resolve(CollOp::kBarrier, 0), "mcast");
    EXPECT_EQ(coll.resolve(CollOp::kAllreduce, 64 * 1024), "mcast-binary");
    EXPECT_EQ(coll.resolve(CollOp::kAllreduce, 16), "mcast-binary");
    EXPECT_EQ(coll.resolve(CollOp::kAllgather, 64 * 1024), "mcast-lockstep");
    EXPECT_EQ(coll.resolve(CollOp::kAllgather, 1024), "mcast-lockstep");
    EXPECT_EQ(coll.resolve(CollOp::kAllgather, 64), "ring");
    // Reduce, scatter and alltoall stay on point-to-point at every size,
    // gather rides the scout-combining collection at every size
    // (claims_tuning; GatedPicksForGatherScatterScanAlltoall pins each rule).
    EXPECT_EQ(coll.resolve(CollOp::kReduce, 32 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kReduce, 8), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kGather, 32 * 1024), "scout-combining");
    EXPECT_EQ(coll.resolve(CollOp::kGather, 1024), "scout-combining");
    EXPECT_EQ(coll.resolve(CollOp::kScatter, 16 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kScatter, 64), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kScan, 32 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kScan, 8), "binomial");
    EXPECT_EQ(coll.resolve(CollOp::kAlltoall, 16 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kAlltoall, 512), "mpich");
    // Payloads the multicast variants' predicates reject fall through to
    // the trailing rules: a 128 KiB gather block exceeds the eager path
    // (point-to-point tail), while bcast and allgather past the datagram
    // ceiling land on the segmented pipeline.
    EXPECT_EQ(coll.resolve(CollOp::kGather, 128 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kScatter, 64 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 1 << 20), "mcast-segmented");
    EXPECT_EQ(coll.resolve(CollOp::kAllgather, 1 << 20), "mcast-segmented");
    EXPECT_EQ(coll.resolve(CollOp::kAllreduce, 1 << 20), "mpich");
    // Explicit names pass through untouched; typos throw.
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 0, "sequencer"), "sequencer");
    EXPECT_THROW((void)coll.resolve(CollOp::kBcast, 0, "typo"),
                 std::invalid_argument);
  });
}

TEST(TuningTable, TwoRanksPreferPointToPoint) {
  Cluster cluster(config_for(2));
  cluster.world().run([](mpi::Proc& p) {
    coll::Coll coll = p.comm_world().coll();
    // A clean-wire bcast leaves point-to-point where the FEC stream's
    // frame-sized chunks start to pay (claims_tuning).
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 16 * 1024), "mpich");
    EXPECT_EQ(coll.resolve(CollOp::kBcast, 64 * 1024), "fec-mcast");
    EXPECT_EQ(coll.resolve(CollOp::kAllgather, 64 * 1024), "ring");
    EXPECT_EQ(coll.resolve(CollOp::kReduce, 32 * 1024), "mpich");
    // The scout-combining gather is point-to-point too: one
    // fire-and-forget send per rank.
    EXPECT_EQ(coll.resolve(CollOp::kGather, 32 * 1024), "scout-combining");
    EXPECT_EQ(coll.resolve(CollOp::kScatter, 32 * 1024), "mpich");
  });
}

TEST(TuningTable, GatedPicksForGatherScatterScanAlltoall) {
  // One pick per rule of the four ops claims_tuning --op=gather, scatter,
  // scan and alltoall gate, on the paper hub, a 9-host switch and 16 hosts
  // on 4 switch segments.
  const auto picks = [](NetworkType network, int procs, int segments,
                        std::vector<std::pair<CollOp, std::size_t>> at) {
    ClusterConfig config = config_for(procs);
    config.network = network;
    if (segments > 1) {
      config.num_segments = segments;
      config.hosts = cluster::make_uniform_hosts(procs);
    }
    Cluster cluster(config);
    const coll::Coll coll = cluster.world().proc(0).comm_world().coll();
    std::vector<std::string> out;
    for (const auto& [op, bytes] : at) {
      out.push_back(coll.resolve(op, bytes));
    }
    return out;
  };
  using Picks = std::vector<std::string>;
  // The hub: the doubling scan up to 2 KiB, then mpich's chain, which
  // collides less; the scout-combining gather from 16 B.
  EXPECT_EQ(picks(NetworkType::kHub, 9, 1,
                  {{CollOp::kScan, 16},
                   {CollOp::kScan, 4096},
                   {CollOp::kGather, 16},
                   {CollOp::kScatter, 16},
                   {CollOp::kAlltoall, 4096}}),
            (Picks{"binomial", "mpich", "scout-combining", "mpich",
                   "mpich"}));
  // The switch: a gather block past the eager path takes mpich's sends.
  EXPECT_EQ(picks(NetworkType::kSwitch, 9, 1,
                  {{CollOp::kAlltoall, 16 * 1024},
                   {CollOp::kScatter, 16 * 1024},
                   {CollOp::kGather, 128 * 1024},
                   {CollOp::kScan, 2048}}),
            (Picks{"mpich", "mpich", "mpich", "binomial"}));
  // 4 segments: the doubling scan at every size.
  EXPECT_EQ(picks(NetworkType::kSwitch, 16, 4,
                  {{CollOp::kScan, 16 * 1024},
                   {CollOp::kScatter, 64 * 1024},
                   {CollOp::kAlltoall, 16},
                   {CollOp::kGather, 4096}}),
            (Picks{"binomial", "mpich", "mpich", "scout-combining"}));
}

TEST(TuningTable, DefaultsEndInATotalRulePerOp) {
  // kAuto always resolves: every op's last default rule is unbounded,
  // ungated, and names an always-applicable, loss-tolerant entry.
  ClusterConfig multi = config_for(16);
  multi.num_segments = 2;
  multi.hosts = cluster::make_uniform_hosts(16);
  Cluster flat(config_for(9));
  Cluster split(multi);
  const auto& rules = coll::TuningTable::defaults().rules();
  for (const CollOp op : coll::kAllCollOps) {
    const coll::TuningRule* last = nullptr;
    for (const coll::TuningRule& rule : rules) {
      if (rule.op == op) {
        last = &rule;
      }
    }
    ASSERT_NE(last, nullptr) << coll::to_string(op);
    EXPECT_EQ(last->max_bytes, -1) << coll::to_string(op);
    EXPECT_EQ(last->max_ranks, -1) << coll::to_string(op);
    EXPECT_EQ(last->min_segments, 0) << coll::to_string(op);
    EXPECT_FALSE(last->lossy_only) << coll::to_string(op);
    const coll::CollAlgorithm& algo = *last->algo;
    EXPECT_TRUE(algo.loss_tolerant) << coll::to_string(op) << ':' << algo.name;
    for (Cluster* c : {&flat, &split}) {
      const mpi::Comm world = c->world().proc(0).comm_world();
      for (const std::size_t bytes :
           {std::size_t{0}, std::size_t{1} << 20, std::size_t{1} << 28}) {
        EXPECT_TRUE(!algo.applicable || algo.applicable(world, bytes))
            << coll::to_string(op) << ':' << algo.name << " at " << bytes
            << " B on " << world.size() << " ranks";
      }
    }
  }
}

TEST(TuningTable, LossyNetworksFallThroughToPointToPoint) {
  // The barrier multicast and the scout-combining gather are not
  // loss-tolerant: on a lossy network their trailing mpich rules catch the
  // pick.
  ClusterConfig config = config_for(9);
  config.faults.link.loss = 0.01;
  Cluster cluster(config);
  coll::Coll coll = cluster.world().proc(0).comm_world().coll();
  EXPECT_EQ(coll.resolve(CollOp::kBarrier, 0), "mpich");
  EXPECT_EQ(coll.resolve(CollOp::kGather, 16 * 1024), "mpich");
  EXPECT_EQ(coll.resolve(CollOp::kScatter, 1 << 20), "mpich");
}

TEST(TuningTable, LossyMultiSegmentBarrierPicksHierOnlyAcrossSegments) {
  // Under loss the multicast barrier may not run.  hier's leader barrier is
  // 1.7-3.0x faster than mpich on 4 segments and 1.9-2.0x slower on 2
  // (claims_tuning --op=barrier's lossy rows).
  constexpr int kProcs = 16;
  const auto picks = [](int segments) {
    ClusterConfig config = config_for(kProcs);
    config.num_segments = segments;
    config.hosts = cluster::make_uniform_hosts(kProcs);
    config.faults.link.loss = 0.01;
    Cluster cluster(config);
    std::pair<std::string, std::string> world_and_segment;
    cluster.world().run([&](mpi::Proc& p) {
      const mpi::Comm world = p.comm_world();
      const mpi::Comm segment =
          p.split(world, p.world().segment_of(p.rank()), p.rank());
      if (p.rank() == 0) {
        world_and_segment = {world.coll().resolve(CollOp::kBarrier, 0),
                             segment.coll().resolve(CollOp::kBarrier, 0)};
      }
    });
    return world_and_segment;
  };
  EXPECT_EQ(picks(4), std::make_pair(std::string("hier"),
                                     std::string("mpich")));
  EXPECT_EQ(picks(2), std::make_pair(std::string("mpich"),
                                     std::string("mpich")));
}

TEST(TuningTable, LossyMultiSegmentBcastRidesTheFlatFecStream) {
  // The trunk bridges forward multicast, so under loss one flat FEC stream
  // beats hier-mcast's store-and-forward relay whenever the payload fits
  // one FEC window; larger lossy payloads keep hier-mcast.  A clean
  // network stays flat at every size.
  constexpr int kProcs = 16;
  ClusterConfig config = config_for(kProcs);
  config.num_segments = 2;
  config.hosts = cluster::make_uniform_hosts(kProcs);
  const ClusterConfig clean_config = config;
  config.faults.link.loss = 0.01;
  Cluster lossy(config);
  Cluster clean(clean_config);
  mpi::Proc& p = lossy.world().proc(0);
  const coll::Coll coll = p.comm_world().coll();
  // The blast must fit the receive socket buffer with its parity, so a
  // payload as large as the buffer itself is past the FEC window.
  const coll::StreamConfig fec = coll::preset_config(coll::StreamPreset::kFec);
  const std::size_t past_window = p.mcast_recv_buffer();
  ASSERT_GT(coll::stream_plan(past_window, fec, past_window).wire_bytes,
            past_window);

  EXPECT_EQ(coll.resolve(CollOp::kBcast, 1024), "mpich");
  for (const std::size_t bytes : {2048, 16 * 1024, 64 * 1024}) {
    EXPECT_EQ(coll.resolve(CollOp::kBcast, bytes), "fec-mcast") << bytes;
  }
  EXPECT_EQ(coll.resolve(CollOp::kBcast, past_window), "hier-mcast");
  EXPECT_EQ(clean.world().proc(0).comm_world().coll().resolve(
                CollOp::kBcast, 16 * 1024),
            "nack-mcast");
}

TEST(TuningTable, BcastRulesSplitIntoALossyAndACleanBlock) {
  // The bcast rules before the clean block, as they stood when every
  // network ran them: under loss the defaults must still pick exactly
  // what these picked, at every size and span.
  using coll::tuning_rule;
  const coll::TuningTable before({
      tuning_rule(CollOp::kBcast, -1, 2, "mpich"),
      tuning_rule(CollOp::kBcast, 1024, -1, "mpich"),
      tuning_rule(CollOp::kBcast, -1, -1, "fec-mcast", 0, /*lossy_only=*/true),
      tuning_rule(CollOp::kBcast, -1, -1, "hier-mcast", 2),
      tuning_rule(CollOp::kBcast, -1, -1, "mcast-binary"),
      tuning_rule(CollOp::kBcast, -1, -1, "mcast-segmented"),
  });
  const coll::TuningTable& defaults = coll::TuningTable::defaults();
  const std::size_t past_ceiling = 600 * 1000;  // > the datagram ceiling
  for (const bool lossy : {false, true}) {
    for (const int procs : {2, 9, 16}) {
      ClusterConfig config = config_for(procs);
      if (procs == 16) {
        config.num_segments = 2;
        config.hosts = cluster::make_uniform_hosts(procs);
      }
      config.faults.link.loss = lossy ? 0.01 : 0.0;
      Cluster cluster(config);
      const mpi::Comm world = cluster.world().proc(0).comm_world();
      const auto pick = [&](const coll::TuningTable& table,
                            std::size_t bytes) {
        return table.select(CollOp::kBcast, bytes, world).name;
      };
      const std::string where = (lossy ? "lossy, " : "clean, ") +
                                std::to_string(procs) + " ranks, ";
      if (lossy) {
        for (const std::size_t bytes :
             {std::size_t{64}, std::size_t{1024}, std::size_t{1025},
              std::size_t{4096}, std::size_t{16384}, std::size_t{65536},
              std::size_t{200000}, std::size_t{262144}, past_ceiling,
              std::size_t{16} << 20}) {
          EXPECT_EQ(pick(defaults, bytes), pick(before, bytes))
              << where << bytes << " B";
        }
        continue;
      }
      if (procs == 2) {
        EXPECT_EQ(pick(defaults, 64), "mpich") << where;
        EXPECT_EQ(pick(defaults, 16384), "mpich") << where;
      } else {
        for (const std::size_t bytes : {64, 4096, 16384}) {
          EXPECT_EQ(pick(defaults, bytes), "nack-mcast") << where << bytes;
        }
      }
      EXPECT_EQ(pick(defaults, 24576), "fec-mcast") << where;
      EXPECT_EQ(pick(defaults, past_ceiling), "mcast-segmented") << where;
    }
  }
}

TEST(TuningTable, BuildRejectsUnknownAndLossyEntries) {
  // A rule resolves its algorithm when the table is built: an unregistered
  // name fails there, and so does an entry that may drop payload.
  EXPECT_THROW(
      (void)coll::tuning_rule(CollOp::kBcast, -1, -1, "no-such-algo"),
      std::invalid_argument);
  try {
    (void)coll::TuningTable(
        {coll::tuning_rule(CollOp::kAllgather, -1, -1, "mcast-blast")});
    FAIL() << "a lossy entry must not enter a table";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("allgather:mcast-blast is lossy"), std::string::npos)
        << what;
  }
}

TEST(TuningTable, BareTableThrowsNamingTheOpAndBytes) {
  // Only a table that is not total can run out of rules; the error names
  // the op and the byte count.
  Cluster cluster(config_for(4));
  const mpi::Comm world = cluster.world().proc(0).comm_world();
  const coll::TuningTable bare(
      {coll::tuning_rule(CollOp::kBcast, -1, -1, "mpich")});
  try {
    (void)bare.select(CollOp::kBarrier, 0, world);
    FAIL() << "a bare table without a barrier rule must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("barrier at 0 B"), std::string::npos) << what;
  }
}

TEST(TuningAuto, AutoBcastDeliversForSmallAndLarge) {
  // End-to-end through kAuto on both sides of the crossover (receivers
  // pre-size their buffers — the kAuto size rule).
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{8192}}) {
    constexpr int kProcs = 5;
    Cluster cluster(config_for(kProcs));
    std::vector<int> ok(kProcs, 0);
    cluster.world().run([&](mpi::Proc& p) {
      Buffer data(bytes);
      if (p.rank() == 0) {
        data = pattern_payload(9, bytes);
      }
      p.comm_world().coll().bcast(data, 0);
      ok[static_cast<std::size_t>(p.rank())] =
          data.size() == bytes && check_pattern(9, data);
    });
    for (int r = 0; r < kProcs; ++r) {
      EXPECT_TRUE(ok[static_cast<std::size_t>(r)])
          << bytes << " B, rank " << r;
    }
  }
}

// --------------------------------------------------------- nonblocking

TEST(Nonblocking, IbcastDeliversBitIdenticalPayloads) {
  constexpr int kProcs = 6;
  constexpr std::size_t kBytes = 40000;
  Cluster cluster(config_for(kProcs));
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    Buffer data(kBytes);
    if (p.rank() == 0) {
      data = pattern_payload(0xD00D, kBytes);
    }
    auto request = comm.coll().ibcast(data, 0);
    p.self().delay(milliseconds(3));  // overlapped compute
    p.wait(request);
    ok[static_cast<std::size_t>(p.rank())] =
        request->complete() && data.size() == kBytes &&
        check_pattern(0xD00D, data);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(Nonblocking, IbcastOverlapsWithCompute) {
  // compute + broadcast back to back vs overlapped: the overlapped run
  // must finish earlier, and never earlier than the compute alone.
  constexpr int kProcs = 6;
  constexpr std::size_t kBytes = 64 * 1024;
  const SimTime compute = milliseconds(8);
  auto run = [&](bool nonblocking) {
    Cluster cluster(config_for(kProcs));
    SimTime finished{};
    cluster.world().run([&](mpi::Proc& p) {
      const mpi::Comm comm = p.comm_world();
      Buffer data(kBytes);
      if (p.rank() == 0) {
        data = pattern_payload(4, kBytes);
      }
      if (nonblocking) {
        auto request = comm.coll().ibcast(data, 0, "mcast-binary");
        p.self().delay(compute);
        p.wait(request);
      } else {
        p.self().delay(compute);
        comm.coll().bcast(data, 0, "mcast-binary");
      }
      EXPECT_TRUE(check_pattern(4, data)) << "rank " << p.rank();
      finished = std::max(finished, p.self().now());
    });
    return finished;
  };
  const SimTime blocking = run(false);
  const SimTime overlapped = run(true);
  EXPECT_LT(overlapped.count(), blocking.count())
      << "the broadcast must hide behind the compute";
  EXPECT_GE(overlapped.count(), compute.count());
}

TEST(Nonblocking, IbarrierHoldsUntilEveryoneEnters) {
  constexpr int kProcs = 5;
  Cluster cluster(config_for(kProcs));
  std::vector<SimTime> entered(kProcs);
  std::vector<SimTime> exited(kProcs);
  cluster.world().run([&](mpi::Proc& p) {
    p.self().delay(microseconds(400) * p.rank());
    entered[static_cast<std::size_t>(p.rank())] = p.self().now();
    auto request = p.comm_world().coll().ibarrier();
    p.wait(request);
    exited[static_cast<std::size_t>(p.rank())] = p.self().now();
  });
  const SimTime last_entry = *std::max_element(entered.begin(), entered.end());
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_GE(exited[static_cast<std::size_t>(r)].count(), last_entry.count())
        << "rank " << r;
  }
}

TEST(Nonblocking, IallreduceReturnsTheReducedVector) {
  constexpr int kProcs = 4;
  Cluster cluster(config_for(kProcs));
  std::vector<std::int64_t> results(kProcs, -1);
  cluster.world().run([&](mpi::Proc& p) {
    const std::int64_t mine = (p.rank() + 1) * 3;
    Buffer bytes(sizeof mine);
    std::memcpy(bytes.data(), &mine, sizeof mine);
    auto request = p.comm_world().coll().iallreduce(
        bytes, mpi::Op::kSum, mpi::Datatype::kInt64, "mcast-binary");
    p.self().delay(milliseconds(1));
    const Buffer out = p.wait(request);
    std::memcpy(&results[static_cast<std::size_t>(p.rank())], out.data(),
                sizeof(std::int64_t));
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], 3 + 6 + 9 + 12)
        << "rank " << r;
  }
}

TEST(Nonblocking, IreduceDeliversAtRootOnly) {
  constexpr int kProcs = 5;
  Cluster cluster(config_for(kProcs));
  std::vector<std::int64_t> results(kProcs, -1);
  cluster.world().run([&](mpi::Proc& p) {
    const std::int64_t mine = (p.rank() + 1) * 5;
    Buffer bytes(sizeof mine);
    std::memcpy(bytes.data(), &mine, sizeof mine);
    auto request = p.comm_world().coll().ireduce(
        bytes, mpi::Op::kSum, mpi::Datatype::kInt64, /*root=*/2, "mpich");
    p.self().delay(milliseconds(1));
    const Buffer out = p.wait(request);
    if (p.rank() == 2) {
      ASSERT_EQ(out.size(), sizeof(std::int64_t));
      std::memcpy(&results[2], out.data(), sizeof(std::int64_t));
    } else {
      EXPECT_TRUE(out.empty()) << "rank " << p.rank();
    }
  });
  EXPECT_EQ(results[2], 5 + 10 + 15 + 20 + 25);
}

TEST(Nonblocking, IgatherAndIscatterRoundTrip) {
  constexpr int kProcs = 4;
  constexpr std::size_t kBytes = 600;
  Cluster cluster(config_for(kProcs));
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    const Buffer mine =
        pattern_payload(static_cast<std::uint64_t>(p.rank()), kBytes);
    auto gather_request = comm.coll().igather(mine, /*root=*/1, "mpich");
    p.self().delay(milliseconds(1));  // overlapped compute
    (void)p.wait(gather_request);
    std::vector<Buffer>& blocks = gather_request->blocks();
    if (p.rank() == 1) {
      ASSERT_EQ(blocks.size(), static_cast<std::size_t>(kProcs));
      for (int r = 0; r < kProcs; ++r) {
        EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(r),
                                  blocks[static_cast<std::size_t>(r)]))
            << "block " << r;
      }
    } else {
      EXPECT_TRUE(blocks.empty()) << "rank " << p.rank();
    }
    // Scatter the gathered blocks straight back: every rank must get its
    // own contribution bit-identically.
    auto scatter_request =
        comm.coll().iscatter(blocks, /*root=*/1, kBytes, "mpich");
    p.self().delay(milliseconds(1));
    const Buffer back = p.wait(scatter_request);
    ok[static_cast<std::size_t>(p.rank())] =
        back.size() == kBytes &&
        check_pattern(static_cast<std::uint64_t>(p.rank()), back);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

TEST(Nonblocking, WaitAfterCompletionReturnsImmediately) {
  // The helper can finish long before the rank waits; wait() then just
  // collects the result.
  Cluster cluster(config_for(3));
  cluster.world().run([](mpi::Proc& p) {
    Buffer data(128);
    if (p.rank() == 0) {
      data = pattern_payload(2, 128);
    }
    auto request = p.comm_world().coll().ibcast(data, 0, "mcast-binary");
    p.self().delay(milliseconds(50));  // far past completion
    EXPECT_TRUE(request->complete());
    const SimTime before = p.self().now();
    p.wait(request);
    EXPECT_EQ(p.self().now().count(), before.count());
    EXPECT_TRUE(check_pattern(2, data));
  });
}

// ----------------------------------------- multicast identity uniqueness

TEST(McastIdentity, DistinctContextsNeverShareAddressAndPort) {
  // Regression for the `% 40000` port wrap: context ids above the wrap
  // boundary must still map to unique (group address, port) pairs.
  const std::vector<std::uint32_t> contexts = {
      0,          1,         39999,     40000,      40001,
      65535,      65536,     65537,     105536,     2 * 65536 + 7,
      40000 * 2,  999999,    12345678,  123456789,  1000000007};
  std::set<std::pair<std::uint32_t, std::uint16_t>> identities;
  for (std::uint32_t context : contexts) {
    mpi::CommInfo info(context, mpi::Group::world(2));
    const auto identity =
        std::make_pair(info.mcast_addr().bits(), info.mcast_port());
    EXPECT_TRUE(identities.insert(identity).second)
        << "context " << context << " collides on "
        << info.mcast_addr().to_string() << ":" << info.mcast_port();
  }
}

TEST(McastIdentity, LowContextsKeepTheHistoricalMapping) {
  // Below 65536 the remap is the identity transformation: the wire
  // behaviour of every existing configuration is unchanged.
  for (std::uint32_t context : {0U, 1U, 7U, 39999U, 40000U, 65535U}) {
    mpi::CommInfo info(context, mpi::Group::world(2));
    EXPECT_EQ(info.mcast_addr().bits(),
              inet::IpAddr::multicast_group(
                  static_cast<std::uint16_t>(context)).bits());
    EXPECT_EQ(info.mcast_port(), 20000 + (context % 40000));
  }
}

TEST(McastIdentity, ContextBeyondTheIdentitySpaceIsRejected) {
  mpi::CommInfo info(0, mpi::Group::world(2));
  info.context_id = static_cast<std::uint32_t>(
      mpi::CommInfo::kMaxMcastContexts);  // 40000 * 65536 fits in 32 bits
  EXPECT_THROW((void)info.mcast_port(), ContractViolation);
}

}  // namespace
}  // namespace mcmpi
