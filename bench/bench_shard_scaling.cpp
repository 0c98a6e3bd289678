// Sharded-simulator scaling: wall-clock and merged scheduler counters for
// the SAME simulation run with 1, 2 and 4 shards on the parallel driver.
//
// Topology: 16 ranks in 4 switch segments joined by a full trunk mesh —
// the fig12-style scaling shape, one shard per segment at the top end.
// The workload (multicast broadcast + allreduce per repetition) floods
// every segment, so all four shards stay busy.
//
// What the bench claims:
//   * runs differing only in shard count have IDENTICAL per-repetition
//     latencies — sharded execution is bit-exact against the 1-shard
//     result;
//   * with >= 4 usable CPUs, wall(1 shard) / wall(4 shards) >= 2.0
//     (skipped on hosts that cannot physically run the shards in
//     parallel, e.g. single-core CI runners).
// Against the committed baseline, tools/bench_diff.py pins every
// per-shard-count counter like any other bench record.
#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "net/counters.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Sharded-simulator scaling — 16 ranks, 4 switch segments, shards "
      "1/2/4");

  constexpr int kProcs = 16;
  constexpr int kSegments = 4;
  const std::vector<int> sizes = {16 * 1024, 64 * 1024};

  struct Measured {
    int shards;
    int bytes;
    std::vector<double> latencies_us;
    double wall_ms;
  };
  std::vector<Measured> measured;

  Table table({"bytes", "shards", "median us", "wall ms", "events",
               "handoffs"});
  for (const int size : sizes) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      cluster::ClusterConfig config;
      config.num_procs = kProcs;
      config.num_segments = kSegments;
      config.sim_shards = shards;
      config.shard_driver = sim::ShardDriver::kParallel;
      config.network = cluster::NetworkType::kSwitch;
      config.seed = options.seed;
      config.hosts = cluster::make_uniform_hosts(kProcs);
      // A routed-backbone trunk: the larger lookahead widens the
      // conservative windows, so the parallel driver pays fewer barrier
      // rounds per simulated millisecond.
      config.trunk_latency = microseconds_f(100.0);
      cluster::Cluster cluster(config);

      cluster::ExperimentConfig exp;
      exp.reps = options.reps;
      exp.rep_interval = milliseconds(30);

      const auto bytes = static_cast<std::size_t>(size);
      const PointMeter meter;
      const auto result = cluster::measure_collective(
          cluster, exp, [bytes](mpi::Proc& p, int rep) {
            const mpi::Comm comm = p.comm_world();
            Buffer data(bytes, 0);
            const int root = rep % comm.size();
            if (p.rank() == root) {
              data = pattern_payload(static_cast<std::uint64_t>(rep), bytes);
            }
            comm.coll().bcast(data, root, "mcast-binary");
            const Buffer mine(256, static_cast<std::uint8_t>(p.rank()));
            (void)comm.coll().allreduce(mine, mpi::Op::kMax,
                                        mpi::Datatype::kByte);
          });
      const double wall_ms = meter.wall_ms();
      const double median = result.latencies_us.median();
      measured.push_back(Measured{static_cast<int>(shards), size,
                                  result.latencies_us.values(), wall_ms});
      table.add_row({std::to_string(size), std::to_string(shards),
                     Table::num(median), Table::num(wall_ms),
                     std::to_string(cluster.simulator().events_scheduled()),
                     std::to_string(cluster.simulator().handoffs())});
      meter.record({{"op", "bcast+allreduce"},
                    {"network", "switch"},
                    {"ranks", kProcs},
                    {"bytes", size},
                    {"shards", static_cast<int>(shards)}},
                   median, cluster.simulator());
    }
  }
  print_table("Sharded-simulator scaling (16 ranks, 4 switch segments)",
              table, options);

  // Shape checks: determinism across shard counts always; the speedup
  // claim only where the host can actually run the shards in parallel.
  for (const int size : sizes) {
    const Measured* one_shard = nullptr;
    const Measured* four_shards = nullptr;
    for (const Measured& m : measured) {
      if (m.bytes == size && m.shards == 1) {
        one_shard = &m;
      }
      if (m.bytes == size && m.shards == 4) {
        four_shards = &m;
      }
    }
    bool identical = true;
    for (const Measured& m : measured) {
      identical = identical && (m.bytes != size ||
                                m.latencies_us == one_shard->latencies_us);
    }
    shape_check(identical,
                "simulated latencies at " + std::to_string(size) +
                    " B are bit-identical across 1/2/4 shards");
    shape_check({.text = "4 shards at least halve wall time at " +
                         std::to_string(size) + " B (" +
                         Table::num(one_shard->wall_ms) + " -> " +
                         Table::num(four_shards->wall_ms) + " ms)",
                 .lhs = one_shard->wall_ms,
                 .rhs = four_shards->wall_ms,
                 .min_ratio = 2.0,
                 .min_hw_threads = 4});
  }
  return claims_exit_code();
}
