// Reproduces Fig. 8: "MPI_Bcast with 4 processes over Fast Ethernet Switch".
// Same series as Fig. 7 on the store-and-forward switch: the crossover
// shifts slightly right (the switch adds per-frame latency to the single
// multicast too), variance is smaller (no collisions).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 8 — MPI_Bcast, 4 processes, Fast Ethernet switch");

  const std::vector<int> sizes = paper_sizes();
  const std::vector<BcastSeries> series = {
      {"mpich/switch", cluster::NetworkType::kSwitch, 4, "mpich"},
      {"mcast-linear/switch", cluster::NetworkType::kSwitch, 4,
       "mcast-linear"},
      {"mcast-binary/switch", cluster::NetworkType::kSwitch, 4,
       "mcast-binary"},
  };

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table("Fig. 8: MPI_Bcast, 4 procs, switch (latency in usec)",
              make_figure_table("bytes", sizes, series, points,
                                options.spread),
              options);

  shape_check({.text = "MPICH wins at 0 bytes",
               .lhs = points[1].front().median_us,
               .rhs = points[0].front().median_us,
               .strict = true});
  shape_check({.text = "both multicast variants win at 5000 bytes",
               .lhs = points[0].back().median_us,
               .rhs = std::max(points[1].back().median_us,
                               points[2].back().median_us),
               .strict = true});
  const int cross = crossover_size(sizes, points[2], points[0]);
  shape_check(cross > 0 && cross <= 2500,
              "crossover at a large-enough message size (measured " +
                  std::to_string(cross) + " B)");
  return claims_exit_code();
}
