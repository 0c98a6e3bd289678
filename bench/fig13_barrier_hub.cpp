// Reproduces Fig. 13: "Comparison of MPI_Barrier over Fast Ethernet hub" —
// latency vs number of processes (2..9) for the MPICH three-phase barrier
// and the multicast barrier (scout reduction + one multicast release).
//
// Expected shape (paper): multicast wins at every process count and the
// gap grows with N — MPICH pays 2(N-K) + K log2 K full MPI messages, the
// multicast barrier (N-1) bare scouts and one release frame.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Fig. 13 — MPI_Barrier over Fast Ethernet hub, N = 2..9");

  const std::vector<int> procs = {2, 3, 4, 5, 6, 7, 8, 9};
  const auto mpich = measure_barrier_series(cluster::NetworkType::kHub,
                                            "mpich", procs, options);
  const auto mcast = measure_barrier_series(cluster::NetworkType::kHub,
                                            "mcast", procs, options);

  std::vector<std::string> columns{"procs", "MPICH us", "multicast us"};
  if (options.spread) {
    columns.insert(columns.end(), {"MPICH min", "MPICH max", "mcast min",
                                   "mcast max"});
  }
  Table table(columns);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::vector<std::string> row{std::to_string(procs[i]),
                                 Table::num(mpich[i].median_us),
                                 Table::num(mcast[i].median_us)};
    if (options.spread) {
      row.push_back(Table::num(mpich[i].min_us));
      row.push_back(Table::num(mpich[i].max_us));
      row.push_back(Table::num(mcast[i].min_us));
      row.push_back(Table::num(mcast[i].max_us));
    }
    table.add_row(std::move(row));
  }
  print_table("Fig. 13: MPI_Barrier over hub (latency in usec)", table,
              options);

  bool mcast_always_wins = true;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    mcast_always_wins =
        mcast_always_wins && mcast[i].median_us < mpich[i].median_us;
  }
  shape_check(mcast_always_wins,
              "multicast barrier wins at every process count");
  const double gap_small = mpich.front().median_us - mcast.front().median_us;
  const double gap_large = mpich.back().median_us - mcast.back().median_us;
  shape_check({.text = "the gap grows with N (" + Table::num(gap_small) +
                       " us at 2 -> " + Table::num(gap_large) + " us at 9)",
               .lhs = gap_large,
               .rhs = gap_small,
               .strict = true});
  return claims_exit_code();
}
