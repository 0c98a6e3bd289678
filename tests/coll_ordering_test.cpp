// Reduction-order conformance: every reduce and scan algorithm must apply
// operands in communicator rank order (MPI's canonical evaluation order).
// A commutative op cannot observe the order, so these tests register a
// non-commutative Op::kCustom — a 2x2 integer matrix product — and check
// the exact product M_0 · M_1 · ... · M_{N-1} lands at the root, at
// non-power-of-two rank counts (5 and 7) that exercise the binomial trees'
// ragged edges, with non-zero roots (the relative-rank rotation trap).
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

ClusterConfig config_for(int procs) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = NetworkType::kSwitch;
  config.seed = 23;
  return config;
}

// --------------------------------------------------------- the custom op
// 2x2 row-major int64 matrices, combined in groups of 4 elements.  The op
// computes inout = in · inout — `in` is the lower-ranked partial, per the
// apply_op convention — so a reduction over ranks yields the left-to-right
// matrix product.

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

/// Rank r's operand: kMatrices copies of the shear-and-scale matrix
/// [[1, r+1], [0, 2]] (plus a per-matrix twist) whose products do not
/// commute: M_a · M_b = [[1, b + 2a], [0, 4]] but M_b · M_a =
/// [[1, a + 2b], [0, 4]].
constexpr std::size_t kMatrices = 3;

Mat rank_matrix(int rank, std::size_t which) {
  return {1, rank + 1 + static_cast<std::int64_t>(which), 0, 2};
}

Buffer rank_operand(int rank) {
  Buffer out(kMatrices * sizeof(Mat));
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const Mat mat = rank_matrix(rank, m);
    std::memcpy(out.data() + m * sizeof(Mat), mat.data(), sizeof(Mat));
  }
  return out;
}

/// Left-to-right product over ranks lo..hi (inclusive), per matrix slot.
Buffer expected_product(int lo, int hi) {
  Buffer out(kMatrices * sizeof(Mat));
  for (std::size_t m = 0; m < kMatrices; ++m) {
    Mat acc = rank_matrix(lo, m);
    for (int r = lo + 1; r <= hi; ++r) {
      acc = matmul(acc, rank_matrix(r, m));
    }
    std::memcpy(out.data() + m * sizeof(Mat), acc.data(), sizeof(Mat));
  }
  return out;
}

TEST(MatrixOp, IsActuallyNonCommutative) {
  const Mat ab = matmul(rank_matrix(0, 0), rank_matrix(1, 0));
  const Mat ba = matmul(rank_matrix(1, 0), rank_matrix(0, 0));
  EXPECT_NE(ab, ba) << "a commutative op cannot observe reduction order";
}

// ------------------------------------------------- reduce in rank order

class ReduceOrdering
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(ReduceOrdering, AppliesOperandsInRankOrder) {
  const auto [algo, procs, root] = GetParam();
  const mpi::CustomOpGuard guard(matrix_product_op);
  Cluster cluster(config_for(procs));
  Buffer at_root;
  cluster.world().run([&](mpi::Proc& p) {
    const Buffer out = p.comm_world().coll().reduce(
        rank_operand(p.rank()), mpi::Op::kCustom, mpi::Datatype::kInt64, root,
        algo);
    if (p.rank() == root) {
      at_root = out;
    } else {
      EXPECT_TRUE(out.empty()) << "rank " << p.rank();
    }
  });
  EXPECT_EQ(at_root, expected_product(0, procs - 1))
      << algo << " must combine M_0 ... M_" << procs - 1 << " left to right";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ReduceOrdering,
    ::testing::Combine(::testing::ValuesIn(coll::Registry::instance().names(
                           coll::CollOp::kReduce)),
                       ::testing::Values(5, 7),  // non-powers of two
                       ::testing::Values(0, 3)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_p" +
                         std::to_string(std::get<1>(info.param)) + "_r" +
                         std::to_string(std::get<2>(info.param));
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

// --------------------------------------------------- scan in rank order

class ScanOrdering
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ScanOrdering, EveryPrefixIsInRankOrder) {
  const auto [algo, procs] = GetParam();
  const mpi::CustomOpGuard guard(matrix_product_op);
  Cluster cluster(config_for(procs));
  std::vector<Buffer> results(static_cast<std::size_t>(procs));
  cluster.world().run([&](mpi::Proc& p) {
    results[static_cast<std::size_t>(p.rank())] = p.comm_world().coll().scan(
        rank_operand(p.rank()), mpi::Op::kCustom, mpi::Datatype::kInt64, algo);
  });
  for (int r = 0; r < procs; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected_product(0, r))
        << algo << " prefix at rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ScanOrdering,
    ::testing::Combine(::testing::ValuesIn(coll::Registry::instance().names(
                           coll::CollOp::kScan)),
                       ::testing::Values(5, 7)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// The allreduce stages sit on reduce_mpich: the custom op must survive the
// reduce-then-broadcast composition too.
TEST(AllreduceOrdering, StagedAllreduceKeepsRankOrder) {
  constexpr int kProcs = 6;
  const mpi::CustomOpGuard guard(matrix_product_op);
  Cluster cluster(config_for(kProcs));
  std::vector<int> ok(kProcs, 0);
  cluster.world().run([&](mpi::Proc& p) {
    const Buffer out = p.comm_world().coll().allreduce(
        rank_operand(p.rank()), mpi::Op::kCustom, mpi::Datatype::kInt64,
        "mcast-binary");
    ok[static_cast<std::size_t>(p.rank())] =
        out == expected_product(0, kProcs - 1);
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// --------------------- non-power-of-two regression for the binomial paths
// Plain commutative reduction at 5 and 7 ranks with non-zero roots: the
// ragged binomial tree (and the doubling scan's uneven last round) must
// still deliver exact results.

class RaggedBinomial : public ::testing::TestWithParam<int> {};

TEST_P(RaggedBinomial, ReduceAndScanAtOddRankCounts) {
  const int procs = GetParam();
  Cluster cluster(config_for(procs));
  std::vector<std::int64_t> scans(static_cast<std::size_t>(procs), -1);
  std::int64_t reduced = -1;
  const int root = procs - 1;
  cluster.world().run([&](mpi::Proc& p) {
    const std::int64_t mine = (p.rank() + 1) * 3;
    Buffer bytes(sizeof mine);
    std::memcpy(bytes.data(), &mine, sizeof mine);
    const Buffer out = p.comm_world().coll().reduce(
        bytes, mpi::Op::kSum, mpi::Datatype::kInt64, root, "mpich");
    if (p.rank() == root) {
      std::memcpy(&reduced, out.data(), sizeof reduced);
    }
    const Buffer prefix = p.comm_world().coll().scan(
        bytes, mpi::Op::kSum, mpi::Datatype::kInt64, "binomial");
    std::memcpy(&scans[static_cast<std::size_t>(p.rank())], prefix.data(),
                sizeof(std::int64_t));
  });
  EXPECT_EQ(reduced, 3 * procs * (procs + 1) / 2);
  for (int r = 0; r < procs; ++r) {
    EXPECT_EQ(scans[static_cast<std::size_t>(r)], 3 * (r + 1) * (r + 2) / 2)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(NonPowersOfTwo, RaggedBinomial,
                         ::testing::Values(5, 7), [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mcmpi
