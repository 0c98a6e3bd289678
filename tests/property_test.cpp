// Property-based tests: randomized programs and parameter sweeps that must
// hold for *every* draw — cross-algorithm result equivalence, frame-count
// formulas at random points, fragmentation round-trips, and replay
// determinism of the full stack.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

// --------------------------------------------------------------------
// Property: for any random program of collectives, every broadcast
// algorithm produces byte-identical results on every rank.

struct ProgramStep {
  int op;        // 0 = bcast, 1 = barrier, 2 = allreduce
  int root;
  std::size_t payload;
  std::uint64_t pattern;
};

std::vector<ProgramStep> random_program(Rng& rng, int procs, int steps) {
  std::vector<ProgramStep> program;
  for (int i = 0; i < steps; ++i) {
    ProgramStep step;
    step.op = static_cast<int>(rng.below(3));
    step.root = static_cast<int>(rng.below(static_cast<std::uint64_t>(procs)));
    step.payload = rng.below(4000);
    step.pattern = rng();
    program.push_back(step);
  }
  return program;
}

/// Runs the program with the given bcast algorithm; returns a per-rank
/// digest of everything observed.
std::vector<std::uint64_t> run_program(const std::vector<ProgramStep>& program,
                                       int procs, NetworkType net,
                                       const std::string& algo) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = 7;
  Cluster cluster(config);
  std::vector<std::uint64_t> digest(static_cast<std::size_t>(procs), 0);

  bool applicable = true;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    {
      // Registry applicability (the hierarchical algorithms reject the
      // single-segment topology used here): every rank computes the same
      // verdict and backs out before entering any collective.
      const coll::CollAlgorithm& a =
          coll::Registry::instance().get(coll::CollOp::kBcast, algo);
      if (a.applicable && !a.applicable(comm, 0)) {
        applicable = false;
        return;
      }
    }
    std::uint64_t hash = 14695981039346656037ULL;
    auto mix = [&hash](std::span<const std::uint8_t> bytes) {
      for (std::uint8_t b : bytes) {
        hash = (hash ^ b) * 1099511628211ULL;
      }
    };
    for (const ProgramStep& step : program) {
      switch (step.op) {
        case 0: {
          Buffer data;
          if (p.rank() == step.root) {
            data = pattern_payload(step.pattern, step.payload);
          }
          comm.coll().bcast(data, step.root, algo);
          mix(data);
          break;
        }
        case 1:
          comm.coll().barrier("mcast");
          break;
        case 2: {
          const std::int64_t mine = static_cast<std::int64_t>(step.pattern % 1000) + p.rank();
          Buffer bytes(sizeof mine);
          std::memcpy(bytes.data(), &mine, sizeof mine);
          // Allreduce through the same broadcast stage when the registry
          // carries it; reliability-protocol stages fall back to mpich.
          const bool staged = coll::Registry::instance().find(
                                  coll::CollOp::kAllreduce, algo) != nullptr;
          const Buffer sum = comm.coll().allreduce(
              bytes, mpi::Op::kSum, mpi::Datatype::kInt64,
              staged ? algo : "mpich");
          mix(sum);
          break;
        }
        default:
          break;
      }
    }
    digest[static_cast<std::size_t>(p.rank())] = hash;
  });
  if (!applicable) {
    return {};  // caller skips the algorithm on this topology
  }
  return digest;
}

class RandomProgramEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramEquivalence, AllAlgorithmsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL + 1);
  const int procs = 2 + static_cast<int>(rng.below(8));  // 2..9
  const NetworkType net =
      rng.chance(0.5) ? NetworkType::kHub : NetworkType::kSwitch;
  const auto program = random_program(rng, procs, 6);

  const auto reference = run_program(program, procs, net, "mpich");
  // All ranks agree with each other under the reference algorithm.
  for (std::uint64_t h : reference) {
    EXPECT_EQ(h, reference.front());
  }
  // Every registered broadcast algorithm must agree with the reference.
  for (const std::string& algo :
       coll::Registry::instance().names(coll::CollOp::kBcast)) {
    if (algo == "mpich") {
      continue;
    }
    const auto digest = run_program(program, procs, net, algo);
    if (digest.empty()) {
      continue;  // not applicable on this topology (e.g. hier, 1 segment)
    }
    EXPECT_EQ(digest, reference)
        << "algorithm " << algo << " diverged (procs=" << procs
        << ", net=" << cluster::to_string(net) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Draws, RandomProgramEquivalence,
                         ::testing::Range(0, 12));

// --------------------------------------------------------------------
// Property: the §3.1 frame formulas hold at random (N, M) points.

class RandomFrameCounts : public ::testing::TestWithParam<int> {};

TEST_P(RandomFrameCounts, FormulasHoldEverywhere) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 0xF00D);
  const int procs = 2 + static_cast<int>(rng.below(8));
  const int payload = static_cast<int>(rng.below(9000));
  const std::uint64_t frames_per_message =
      static_cast<std::uint64_t>(payload) / 1472 + 1;
  const auto n = static_cast<std::uint64_t>(procs);

  auto count = [&](const std::string& algo) {
    ClusterConfig config;
    config.num_procs = procs;
    config.network = NetworkType::kSwitch;
    Cluster cluster(config);
    auto op = [&, algo](mpi::Proc& p) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(1, static_cast<std::size_t>(payload));
      }
      p.comm_world().coll().bcast(data, 0, algo);
    };
    return cluster::count_frames(cluster, op, op).formula_frames();
  };

  EXPECT_EQ(count("mpich"), frames_per_message * (n - 1))
      << "procs=" << procs << " payload=" << payload;
  EXPECT_EQ(count("mcast-binary"), (n - 1) + frames_per_message)
      << "procs=" << procs << " payload=" << payload;
}

INSTANTIATE_TEST_SUITE_P(Draws, RandomFrameCounts, ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Property: reduce agrees with a locally computed reference for random
// vectors, operators and roots.

class RandomReduce : public ::testing::TestWithParam<int> {};

TEST_P(RandomReduce, MatchesLocalReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 0xBEEF);
  const int procs = 2 + static_cast<int>(rng.below(8));
  const int root = static_cast<int>(rng.below(static_cast<std::uint64_t>(procs)));
  const std::size_t count = 1 + rng.below(50);
  const mpi::Op op = rng.chance(0.5) ? mpi::Op::kSum : mpi::Op::kMax;

  // Deterministic per-rank vectors and the expected elementwise result.
  std::vector<std::vector<std::int64_t>> inputs(
      static_cast<std::size_t>(procs), std::vector<std::int64_t>(count));
  for (int r = 0; r < procs; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      inputs[static_cast<std::size_t>(r)][i] =
          static_cast<std::int64_t>(rng.below(1000)) - 500;
    }
  }
  std::vector<std::int64_t> expected = inputs[0];
  for (int r = 1; r < procs; ++r) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::int64_t v = inputs[static_cast<std::size_t>(r)][i];
      expected[i] = op == mpi::Op::kSum ? expected[i] + v
                                        : std::max(expected[i], v);
    }
  }

  ClusterConfig config;
  config.num_procs = procs;
  config.network = NetworkType::kSwitch;
  Cluster cluster(config);
  std::vector<std::int64_t> result;
  cluster.world().run([&](mpi::Proc& p) {
    const auto& mine = inputs[static_cast<std::size_t>(p.rank())];
    Buffer bytes(count * sizeof(std::int64_t));
    std::memcpy(bytes.data(), mine.data(), bytes.size());
    const Buffer out = p.comm_world().coll().reduce(
        bytes, op, mpi::Datatype::kInt64, root, "mpich");
    if (p.rank() == root) {
      result.resize(count);
      std::memcpy(result.data(), out.data(), out.size());
    }
  });
  EXPECT_EQ(result, expected) << "procs=" << procs << " root=" << root;
}

INSTANTIATE_TEST_SUITE_P(Draws, RandomReduce, ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Property: reduction-semantics conformance for random payload/op/datatype
// draws, across every registered algorithm —
//   * reduce at the root equals allreduce everywhere,
//   * scan at rank N-1 equals reduce at the root (and every rank's scan
//     equals the local rank-order prefix),
//   * gather-then-scatter round-trips every rank's block bit-identically.
// The local reference is built with mpi::apply_op in rank order, so the
// distributed paths are checked against MPI's canonical evaluation order.

struct ConformanceDraw {
  int procs;
  int root;
  mpi::Op op;
  mpi::Datatype type;
  std::size_t count;
  std::vector<Buffer> inputs;  // one operand per rank
};

ConformanceDraw make_conformance_draw(Rng& rng) {
  ConformanceDraw d;
  d.procs = 2 + static_cast<int>(rng.below(8));  // 2..9
  d.root = static_cast<int>(rng.below(static_cast<std::uint64_t>(d.procs)));
  const mpi::Datatype types[] = {mpi::Datatype::kByte, mpi::Datatype::kInt32,
                                 mpi::Datatype::kInt64,
                                 mpi::Datatype::kDouble};
  d.type = types[rng.below(4)];
  if (d.type == mpi::Datatype::kDouble) {
    // Doubles: only the exactly-associative ops (any combining order gives
    // bit-identical results; +/* would tie the test to evaluation order).
    d.op = rng.chance(0.5) ? mpi::Op::kMax : mpi::Op::kMin;
  } else {
    const mpi::Op ops[] = {mpi::Op::kSum, mpi::Op::kProd, mpi::Op::kMax,
                           mpi::Op::kMin, mpi::Op::kBand, mpi::Op::kBor};
    d.op = ops[rng.below(6)];
  }
  d.count = 1 + rng.below(64);
  const std::size_t width = mpi::datatype_size(d.type);
  for (int r = 0; r < d.procs; ++r) {
    Buffer operand(d.count * width);
    for (std::size_t i = 0; i < d.count; ++i) {
      // Small magnitudes keep kProd inside every integer width.
      const auto v = static_cast<std::int64_t>(rng.below(4));
      std::uint8_t* slot = operand.data() + i * width;
      switch (d.type) {
        case mpi::Datatype::kByte: {
          const auto b = static_cast<std::uint8_t>(v);
          std::memcpy(slot, &b, sizeof b);
          break;
        }
        case mpi::Datatype::kInt32: {
          const auto x = static_cast<std::int32_t>(v);
          std::memcpy(slot, &x, sizeof x);
          break;
        }
        case mpi::Datatype::kInt64: {
          std::memcpy(slot, &v, sizeof v);
          break;
        }
        case mpi::Datatype::kDouble: {
          const auto x = static_cast<double>(v);
          std::memcpy(slot, &x, sizeof x);
          break;
        }
      }
    }
    d.inputs.push_back(std::move(operand));
  }
  return d;
}

/// Rank-order prefix reference: result[r] = inputs[0] ∘ ... ∘ inputs[r],
/// built with the library's own elementwise kernel.
std::vector<Buffer> local_prefixes(const ConformanceDraw& d) {
  std::vector<Buffer> prefixes;
  Buffer acc = d.inputs[0];
  prefixes.push_back(acc);
  for (int r = 1; r < d.procs; ++r) {
    Buffer next = d.inputs[static_cast<std::size_t>(r)];
    mpi::apply_op(d.op, d.type, acc, next, d.count);
    acc = std::move(next);
    prefixes.push_back(acc);
  }
  return prefixes;
}

class ReductionConformance : public ::testing::TestWithParam<int> {};

TEST_P(ReductionConformance, ReduceScanGatherScatterAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x2545F4914F6CDD1DULL +
          0xC0FFEE);
  const ConformanceDraw d = make_conformance_draw(rng);
  const std::vector<Buffer> prefixes = local_prefixes(d);
  const Buffer& expected = prefixes.back();
  const std::size_t bytes = d.inputs[0].size();

  ClusterConfig config;
  config.num_procs = d.procs;
  config.network = NetworkType::kSwitch;
  config.seed = 19;
  Cluster cluster(config);
  std::vector<std::string> errors;

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    coll::Coll coll = comm.coll();
    const coll::Registry& r = coll::Registry::instance();
    const Buffer& mine = d.inputs[static_cast<std::size_t>(p.rank())];
    const auto note = [&](const std::string& what) {
      errors.push_back(what + " (procs=" + std::to_string(d.procs) +
                       ", root=" + std::to_string(d.root) +
                       ", op=" + std::to_string(static_cast<int>(d.op)) +
                       ", type=" + std::to_string(static_cast<int>(d.type)) +
                       ", rank=" + std::to_string(p.rank()) + ")");
    };

    // Reduce at the root == allreduce everywhere.
    const Buffer everywhere =
        coll.allreduce(mine, d.op, d.type, "mpich");
    if (everywhere != expected) {
      note("allreduce reference diverged from the local prefix");
    }
    for (const std::string& algo :
         r.applicable_names(coll::CollOp::kReduce, comm, bytes)) {
      const Buffer out = coll.reduce(mine, d.op, d.type, d.root, algo);
      if (p.rank() == d.root) {
        if (out != expected) {
          note("reduce/" + algo + " != allreduce");
        }
      } else if (!out.empty()) {
        note("reduce/" + algo + " non-root result not empty");
      }
    }

    // Scan at rank N-1 == reduce at the root; every rank matches its
    // rank-order prefix.
    for (const std::string& algo :
         r.applicable_names(coll::CollOp::kScan, comm, bytes)) {
      const Buffer out = coll.scan(mine, d.op, d.type, algo);
      if (out != prefixes[static_cast<std::size_t>(p.rank())]) {
        note("scan/" + algo + " prefix mismatch");
      }
      if (p.rank() == d.procs - 1 && out != expected) {
        note("scan/" + algo + " at rank N-1 != reduce");
      }
    }

    // Gather-then-scatter round-trips bit-identically, for every pairing
    // of gather and scatter algorithms.
    for (const std::string& gather_algo :
         r.applicable_names(coll::CollOp::kGather, comm, bytes)) {
      const auto blocks = coll.gather(mine, d.root, gather_algo);
      if (p.rank() == d.root &&
          blocks.size() != static_cast<std::size_t>(d.procs)) {
        // Record but keep participating in the scatter pairings below —
        // skipping them on the root alone would desynchronize the
        // collectives and hang the test instead of failing it.
        note("gather/" + gather_algo + " block count");
      }
      for (const std::string& scatter_algo :
           r.applicable_names(coll::CollOp::kScatter, comm, bytes)) {
        const Buffer back =
            coll.scatter(blocks, d.root, bytes, scatter_algo);
        if (back != mine) {
          note("gather/" + gather_algo + " -> scatter/" + scatter_algo +
               " did not round-trip");
        }
      }
    }
  });

  for (const std::string& error : errors) {
    ADD_FAILURE() << error;
  }
}

INSTANTIATE_TEST_SUITE_P(Draws, ReductionConformance, ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Property: whole-stack replay determinism — the same seed gives the same
// latencies even through collisions and retransmissions.

class ReplayDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ReplayDeterminism, IdenticalAcrossRuns) {
  auto run = [&] {
    ClusterConfig config;
    config.num_procs = 6;
    config.network = NetworkType::kHub;  // collisions make this the hard case
    config.seed = static_cast<std::uint64_t>(GetParam());
    Cluster cluster(config);
    cluster::ExperimentConfig exp;
    exp.reps = 8;
    return cluster::measure_collective(
               cluster, exp,
               [](mpi::Proc& p, int rep) {
                 Buffer data;
                 if (p.rank() == 0) {
                   data = pattern_payload(static_cast<std::uint64_t>(rep), 2500);
                 }
                 p.comm_world().coll().bcast(data, 0, "mcast-binary");
               })
        .latencies_us.values();
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDeterminism, ::testing::Range(1, 5));

}  // namespace
}  // namespace mcmpi
