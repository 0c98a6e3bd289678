// Reproduces Fig. 7: "MPI_Bcast with 4 processes over Fast Ethernet Hub".
// Series: MPICH (binomial over p2p), multicast-linear, multicast-binary;
// x = message size 0..5000 B; y = latency (median of N reps in µs).
//
// Expected shape (paper): both multicast variants beat MPICH for messages
// larger than ~1000 B; below that the scout cost makes them slower.  Hub
// collisions produce run-to-run variance (visible with --spread).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 7 — MPI_Bcast, 4 processes, Fast Ethernet hub");

  const std::vector<int> sizes = paper_sizes();
  const std::vector<BcastSeries> series = {
      {"mpich/hub", cluster::NetworkType::kHub, 4, "mpich"},
      {"mcast-linear/hub", cluster::NetworkType::kHub, 4, "mcast-linear"},
      {"mcast-binary/hub", cluster::NetworkType::kHub, 4, "mcast-binary"},
  };

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table("Fig. 7: MPI_Bcast, 4 procs, hub (latency in usec)",
              make_figure_table("bytes", sizes, series, points,
                                options.spread),
              options);

  const int cross_linear = crossover_size(sizes, points[1], points[0]);
  const int cross_binary = crossover_size(sizes, points[2], points[0]);
  shape_check({.text = "MPICH wins at 0 bytes (scout overhead dominates)",
               .lhs = std::min(points[1].front().median_us,
                               points[2].front().median_us),
               .rhs = points[0].front().median_us,
               .strict = true});
  shape_check({.text = "both multicast variants win at 5000 bytes",
               .lhs = points[0].back().median_us,
               .rhs = std::max(points[1].back().median_us,
                               points[2].back().median_us),
               .strict = true});
  shape_check(cross_linear > 0 && cross_linear <= 2000,
              "linear crossover near ~1000 B (measured " +
                  std::to_string(cross_linear) + " B)");
  shape_check(cross_binary > 0 && cross_binary <= 2000,
              "binary crossover near ~1000 B (measured " +
                  std::to_string(cross_binary) + " B)");
  return claims_exit_code();
}
