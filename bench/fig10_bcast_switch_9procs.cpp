// Reproduces Fig. 10: "MPI_Bcast with 9 processes over Fast Ethernet
// Switch" — the full eagle cluster.  MPICH now sends every payload eight
// times; the multicast data still crosses once, so the large-message gap is
// the widest of Figs. 7-10.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 10 — MPI_Bcast, 9 processes, Fast Ethernet switch");

  const std::vector<int> sizes = paper_sizes();
  const std::vector<BcastSeries> series = {
      {"mpich/switch", cluster::NetworkType::kSwitch, 9, "mpich"},
      {"mcast-linear/switch", cluster::NetworkType::kSwitch, 9,
       "mcast-linear"},
      {"mcast-binary/switch", cluster::NetworkType::kSwitch, 9,
       "mcast-binary"},
  };

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table("Fig. 10: MPI_Bcast, 9 procs, switch (latency in usec)",
              make_figure_table("bytes", sizes, series, points,
                                options.spread),
              options);

  shape_check({.text = "multicast wins at 5000 bytes with 9 processes",
               .lhs = points[0].back().median_us,
               .rhs = std::max(points[1].back().median_us,
                               points[2].back().median_us),
               .strict = true});
  const double gap9 =
      points[0].back().median_us - points[2].back().median_us;
  shape_check({.text = "9-process large-message gap is positive (" +
                       Table::num(gap9) + " us)",
               .lhs = gap9,
               .strict = true});
  return claims_exit_code();
}
