// Reproduces the paper's §3.1/§3.2 analytic frame counts as a table, and
// verifies the simulator hits them exactly.
//
//   broadcast, MPICH:      (floor(M/T)+1) * (N-1)        [T = 1472 B]
//   broadcast, multicast:  (N-1) scouts + floor(M/T)+1
//   barrier, MPICH:        2*(N-K) + K*log2(K)           [K = 2^floor(lg N)]
//   barrier, multicast:    (N-1) scouts + 1 release
//
// Counted frames exclude transport ACKs, as the paper's formulas do.
#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;

net::NetCounters run_bcast(int procs, int payload, const std::string& algo,
                           std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = seed;
  cluster::Cluster cluster(config);
  auto op = [payload, &algo](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(1, static_cast<std::size_t>(payload));
    }
    p.comm_world().coll().bcast(data, 0, algo);
  };
  return cluster::count_frames(cluster, op, op);
}

net::NetCounters run_barrier(int procs, const std::string& algo,
                             std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = seed;
  cluster::Cluster cluster(config);
  auto op = [&algo](mpi::Proc& p) {
    p.comm_world().coll().barrier(algo);
  };
  return cluster::count_frames(cluster, op, op);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Analytic frame counts (paper §3.1/§3.2) vs simulator counters");

  bool all_match = true;

  // ---------------------------------------------------------- broadcast
  Table bcast_table({"procs", "bytes", "frames/msg", "mpich formula",
                     "mpich measured", "mcast formula", "mcast measured"});
  for (int procs : {2, 4, 6, 9}) {
    for (int payload : {0, 100, 1472, 3000, 5000}) {
      const auto n = static_cast<std::uint64_t>(procs);
      const std::uint64_t fpm = static_cast<std::uint64_t>(payload) / 1472 + 1;
      const std::uint64_t mpich_formula = fpm * (n - 1);
      const std::uint64_t mcast_formula = (n - 1) + fpm;
      const auto mpich = run_bcast(procs, payload, "mpich", options.seed);
      const auto mcast =
          run_bcast(procs, payload, "mcast-binary", options.seed);
      all_match = all_match && mpich.formula_frames() == mpich_formula &&
                  mcast.formula_frames() == mcast_formula;
      bcast_table.add_row({std::to_string(procs), std::to_string(payload),
                           std::to_string(fpm), std::to_string(mpich_formula),
                           std::to_string(mpich.formula_frames()),
                           std::to_string(mcast_formula),
                           std::to_string(mcast.formula_frames())});
    }
  }
  print_table("Broadcast frame counts: (M/T+1)(N-1) vs (N-1)+(M/T+1)",
              bcast_table, options);

  // ------------------------------------------------------------ barrier
  Table barrier_table({"procs", "K", "mpich formula", "mpich measured",
                       "mcast formula", "mcast measured"});
  for (int procs = 2; procs <= 9; ++procs) {
    const auto n = static_cast<std::uint64_t>(procs);
    std::uint64_t k = 1;
    std::uint64_t log2k = 0;
    while (k * 2 <= n) {
      k *= 2;
      ++log2k;
    }
    const std::uint64_t mpich_formula = 2 * (n - k) + k * log2k;
    const std::uint64_t mcast_formula = (n - 1) + 1;
    const auto mpich = run_barrier(procs, "mpich", options.seed);
    const auto mcast = run_barrier(procs, "mcast", options.seed);
    all_match = all_match && mpich.formula_frames() == mpich_formula &&
                mcast.formula_frames() == mcast_formula;
    barrier_table.add_row(
        {std::to_string(procs), std::to_string(k),
         std::to_string(mpich_formula), std::to_string(mpich.formula_frames()),
         std::to_string(mcast_formula),
         std::to_string(mcast.formula_frames())});
  }
  print_table("Barrier message counts: 2(N-K)+K*log2(K) vs (N-1)+1",
              barrier_table, options);

  shape_check(all_match, "every measured frame count equals the paper's "
                         "closed-form expression");
  return claims_exit_code();
}
