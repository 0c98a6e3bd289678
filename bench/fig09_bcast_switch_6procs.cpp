// Reproduces Fig. 9: "MPI_Bcast with 6 processes over Fast Ethernet Switch".
// The paper singles out 6 processes because the binary scout tree makes two
// children forward to the root back-to-back, which on the hub causes
// collisions and on both networks adds serialization at the root.  The
// multicast advantage over MPICH grows relative to 4 processes.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 9 — MPI_Bcast, 6 processes, Fast Ethernet switch");

  const std::vector<int> sizes = paper_sizes();
  const std::vector<BcastSeries> series = {
      {"mpich/switch", cluster::NetworkType::kSwitch, 6, "mpich"},
      {"mcast-linear/switch", cluster::NetworkType::kSwitch, 6,
       "mcast-linear"},
      {"mcast-binary/switch", cluster::NetworkType::kSwitch, 6,
       "mcast-binary"},
  };

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table("Fig. 9: MPI_Bcast, 6 procs, switch (latency in usec)",
              make_figure_table("bytes", sizes, series, points,
                                options.spread),
              options);

  shape_check({.text = "multicast-linear wins at 5000 bytes",
               .lhs = points[0].back().median_us,
               .rhs = points[1].back().median_us,
               .strict = true});
  shape_check({.text = "multicast-binary wins at 5000 bytes",
               .lhs = points[0].back().median_us,
               .rhs = points[2].back().median_us,
               .strict = true});
  return claims_exit_code();
}
