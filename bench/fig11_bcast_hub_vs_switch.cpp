// Reproduces Fig. 11: "Performance Comparison with MPI_Bcast over hub and
// switch for 4 processes".
//
// Expected shapes (paper): with multicast, the hub is faster than the
// switch at every size (one transmission, no store-and-forward penalty);
// with MPICH, the hub is faster for small messages but falls behind the
// switch past ~3000 B, where the shared medium saturates under MPICH's
// extra copies and the ACK back-traffic while the switch gains spatial
// reuse from full-duplex dedicated links.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 11 — MPI_Bcast hub vs switch, 4 processes");

  const std::vector<int> sizes = paper_sizes();
  const std::vector<BcastSeries> series = {
      {"mpich/hub", cluster::NetworkType::kHub, 4, "mpich"},
      {"mpich/switch", cluster::NetworkType::kSwitch, 4, "mpich"},
      {"mcast-binary/switch", cluster::NetworkType::kSwitch, 4,
       "mcast-binary"},
      {"mcast-binary/hub", cluster::NetworkType::kHub, 4, "mcast-binary"},
  };

  std::vector<std::vector<Point>> points;
  for (const BcastSeries& s : series) {
    points.push_back(measure_bcast_series(s, sizes, options));
  }
  print_table("Fig. 11: MPI_Bcast hub vs switch, 4 procs (latency in usec)",
              make_figure_table("bytes", sizes, series, points,
                                options.spread),
              options);

  // Multicast: hub <= switch across the sweep (count the exceptions).
  int hub_wins = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (points[3][i].median_us < points[2][i].median_us) {
      ++hub_wins;
    }
  }
  shape_check({.text = "multicast over hub beats multicast over switch at "
                       "essentially every size (" +
                       std::to_string(hub_wins) + "/" +
                       std::to_string(sizes.size()) + " points)",
               .lhs = static_cast<double>(hub_wins),
               .rhs = static_cast<double>(sizes.size() - 2)});

  // MPICH: hub better small, worse past ~3000 B.
  shape_check({.text = "MPICH over hub is faster at small sizes",
               .lhs = points[1].front().median_us,
               .rhs = points[0].front().median_us,
               .strict = true});
  shape_check({.text = "MPICH over hub is slower at 5000 B (medium saturates)",
               .lhs = points[0].back().median_us,
               .rhs = points[1].back().median_us,
               .strict = true});

  // Multicast beats MPICH for messages bigger than one Ethernet frame
  // (allowing one sweep step of quantization past the 1472 B boundary).
  std::size_t one_frame_idx = 0;
  while (one_frame_idx < sizes.size() && sizes[one_frame_idx] <= 1472 + 250) {
    ++one_frame_idx;
  }
  bool mcast_wins_past_frame = true;
  for (std::size_t i = one_frame_idx; i < sizes.size(); ++i) {
    mcast_wins_past_frame = mcast_wins_past_frame &&
                            points[3][i].median_us < points[0][i].median_us;
  }
  shape_check(mcast_wins_past_frame,
              "multicast beats MPICH for sizes beyond one Ethernet frame");
  return claims_exit_code();
}
