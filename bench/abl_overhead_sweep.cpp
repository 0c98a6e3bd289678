// Ablation: where does the crossover go as per-message software overhead
// shrinks?  The paper's future work points at low-latency stacks (VIA):
// "low latency protocols ... typically require a receive descriptor to be
// posted before a message arrives.  This is similar to the requirement in
// IP multicast that the receiver be ready."
//
// We sweep a scale factor over all three software-cost tiers and report the
// MPICH-vs-multicast crossover size for a 4-process broadcast on the
// switch.  As overheads fall toward VIA territory the scouts get cheap and
// the crossover moves toward zero: the multicast design wins almost
// everywhere on a low-latency fabric — the paper's closing conjecture.
#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;
using namespace mcmpi::bench;

cluster::CostParams scaled_costs(double scale) {
  cluster::CostParams base;
  base.mpi_send_base = SimTime{static_cast<std::int64_t>(
      static_cast<double>(base.mpi_send_base.count()) * scale)};
  base.mpi_recv_base = base.mpi_send_base;
  base.raw_send_base = SimTime{static_cast<std::int64_t>(
      static_cast<double>(base.raw_send_base.count()) * scale)};
  base.raw_recv_base = base.raw_send_base;
  base.mcast_data_send_base = SimTime{static_cast<std::int64_t>(
      static_cast<double>(base.mcast_data_send_base.count()) * scale)};
  base.mcast_data_recv_base = base.mcast_data_send_base;
  return base;
}

std::vector<Point> sweep(double scale, const std::string& algo,
                         const std::vector<int>& sizes,
                         const BenchOptions& options) {
  std::vector<Point> points;
  for (int size : sizes) {
    cluster::ClusterConfig config;
    config.num_procs = 4;
    config.network = cluster::NetworkType::kSwitch;
    config.seed = options.seed;
    config.costs = scaled_costs(scale);
    cluster::Cluster cluster(config);
    cluster::ExperimentConfig exp;
    exp.reps = options.reps;
    const auto result = cluster::measure_collective(
        cluster, exp, [&algo, size](mpi::Proc& p, int) {
          Buffer data;
          if (p.rank() == 0) {
            data = pattern_payload(1, static_cast<std::size_t>(size));
          }
          p.comm_world().coll().bcast(data, 0, algo);
        });
    points.push_back(Point{result.latencies_us.median(),
                           result.latencies_us.min(),
                           result.latencies_us.max()});
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Ablation — crossover size vs software overhead scale (VIA outlook)");

  const std::vector<int> sizes = paper_sizes(125);
  const std::vector<double> scales = {1.0, 0.5, 0.25, 0.1, 0.05};

  Table table({"overhead scale", "mpich @0B us", "mcast @0B us",
               "crossover bytes"});
  std::vector<int> crossovers;
  for (double scale : scales) {
    const auto mpich = sweep(scale, "mpich", sizes, options);
    const auto mcast = sweep(scale, "mcast-binary", sizes, options);
    const int cross = crossover_size(sizes, mcast, mpich);
    crossovers.push_back(cross);
    table.add_row({Table::num(scale), Table::num(mpich.front().median_us),
                   Table::num(mcast.front().median_us),
                   cross < 0 ? "never" : std::to_string(cross)});
  }
  print_table(
      "Crossover vs per-message overhead (4 procs, switch, scouts+data "
      "scaled together)",
      table, options);

  shape_check({.text = "shrinking software overhead moves the crossover "
                       "toward 0 — on a VIA-class fabric multicast wins "
                       "almost everywhere",
               .lhs = static_cast<double>(crossovers.front()),
               .rhs = static_cast<double>(crossovers.back()),
               .strict = true});
  bool monotone_non_increasing = true;
  for (std::size_t i = 1; i < crossovers.size(); ++i) {
    monotone_non_increasing =
        monotone_non_increasing && crossovers[i] <= crossovers[i - 1];
  }
  shape_check(monotone_non_increasing,
              "crossover shrinks monotonically with overhead scale");
  return claims_exit_code();
}
