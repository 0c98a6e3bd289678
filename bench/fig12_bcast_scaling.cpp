// Reproduces Fig. 12: "Performance Comparison with MPI_Bcast over 3, 6, and
// 9 processes over Fast Ethernet switch" — MPICH vs the linear multicast
// algorithm.
//
// Expected shape (paper): the linear algorithm scales well up to 9
// processes; its extra cost per added process is nearly constant with
// respect to message size (a scout is a scout, whatever the payload), while
// MPICH's extra cost per process grows with the message size (each new
// process is another full copy of the payload).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 12 — MPI_Bcast scaling over 3/6/9 processes, switch");

  const std::vector<int> sizes = paper_sizes();
  std::vector<BcastSeries> series;
  for (int procs : {3, 6, 9}) {
    series.push_back({"mpich(" + std::to_string(procs) + "p)",
                      cluster::NetworkType::kSwitch, procs, "mpich"});
  }
  for (int procs : {3, 6, 9}) {
    series.push_back({"linear(" + std::to_string(procs) + "p)",
                      cluster::NetworkType::kSwitch, procs, "mcast-linear"});
  }

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table(
      "Fig. 12: MPI_Bcast scaling, MPICH vs linear multicast (usec)",
      make_figure_table("bytes", sizes, series, points, options.spread),
      options);

  // Extra cost of going 3 -> 9 processes, at 0 B and 5000 B.
  const double mpich_small = points[2].front().median_us -
                             points[0].front().median_us;
  const double mpich_large = points[2].back().median_us -
                             points[0].back().median_us;
  const double linear_small = points[5].front().median_us -
                              points[3].front().median_us;
  const double linear_large = points[5].back().median_us -
                              points[3].back().median_us;

  shape_check({.text = "linear multicast with 9 procs beats MPICH with 9 "
                       "procs at 5000 B",
               .lhs = points[2].back().median_us,
               .rhs = points[5].back().median_us,
               .strict = true});
  shape_check({.text = "linear's 3->9 extra cost is nearly size-independent (" +
                       Table::num(linear_small) + " -> " +
                       Table::num(linear_large) +
                       " us) while MPICH's grows (" + Table::num(mpich_small) +
                       " -> " + Table::num(mpich_large) + " us)",
               .lhs = mpich_large - mpich_small,
               .rhs = linear_large - linear_small,
               .min_ratio = 2.0,
               .strict = true});
  return claims_exit_code();
}
