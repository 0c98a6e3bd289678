// Ablation: the long-message broadcast design space.  The paper compares
// multicast against MPICH's binomial tree; later MPI implementations
// answered long-message broadcast with van de Geijn's scatter + ring
// allgather (each byte crosses ~2x instead of N-1 times).  How close does
// the best point-to-point algorithm get to one IP multicast?
#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;
using namespace mcmpi::bench;

struct LongBcastResult {
  double median_us = 0;
  std::uint64_t data_frames = 0;
};

LongBcastResult run(int procs, int payload, const std::string& algo,
                    const BenchOptions& options) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = options.seed;
  cluster::Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = options.reps;
  const auto result = cluster::measure_collective(
      cluster, exp, [payload, &algo](mpi::Proc& p, int) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, static_cast<std::size_t>(payload));
        }
        p.comm_world().coll().bcast(data, 0, algo);
      });
  return LongBcastResult{result.latencies_us.median(),
                         result.net_delta.host_tx_data_frames /
                             static_cast<std::uint64_t>(options.reps)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Ablation — long-message broadcast: binomial vs van de Geijn vs "
      "IP multicast (switch)");

  Table table({"procs", "bytes", "binomial us", "binomial frames",
               "scatter-allgather us", "s-a frames", "mcast-binary us",
               "mcast frames"});
  double vdg9 = 0;
  double tree9 = 0;
  double mcast9 = 0;
  std::uint64_t vdg_frames = 0;
  std::uint64_t mcast_frames = 0;
  for (int procs : {4, 9}) {
    for (int payload : {5000, 20000, 60000}) {
      const auto tree = run(procs, payload, "mpich", options);
      const auto vdg = run(procs, payload, "scatter-allgather", options);
      const auto mcast = run(procs, payload, "mcast-binary", options);
      if (procs == 9 && payload == 60000) {
        tree9 = tree.median_us;
        vdg9 = vdg.median_us;
        mcast9 = mcast.median_us;
        vdg_frames = vdg.data_frames;
        mcast_frames = mcast.data_frames;
      }
      table.add_row({std::to_string(procs), std::to_string(payload),
                     Table::num(tree.median_us),
                     std::to_string(tree.data_frames),
                     Table::num(vdg.median_us),
                     std::to_string(vdg.data_frames),
                     Table::num(mcast.median_us),
                     std::to_string(mcast.data_frames)});
    }
  }
  print_table("Long-message broadcast designs (latency + data frames/op)",
              table, options);

  shape_check({.text = "scatter+allgather beats the binomial tree for long "
                       "messages (why MPI implementations adopted it)",
               .lhs = tree9,
               .rhs = vdg9,
               .strict = true});
  shape_check({.text = "one IP multicast still beats the best point-to-point "
                       "algorithm (" +
                       Table::num(mcast9) + " vs " + Table::num(vdg9) +
                       " us at 9 procs x 60 kB)",
               .lhs = vdg9,
               .rhs = mcast9,
               .strict = true});
  shape_check({.text = "the frame economics: one multicast moves each byte "
                       "once in total; scatter+allgather wins on critical "
                       "path but moves more frames than even the tree",
               .lhs = static_cast<double>(vdg_frames),
               .rhs = static_cast<double>(mcast_frames),
               .min_ratio = 2.0});
  return claims_exit_code();
}
