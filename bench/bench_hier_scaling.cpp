// Hierarchical-collective scaling: the fig12-style rank sweep taken across
// SEGMENTED topologies — mpich (binomial point-to-point) vs the flat
// multicast tree (mcast-binary) vs the hierarchical bcast (hier-mcast) at
// 64-1024 ranks spread over {2, 4, 8} switch segments joined by a routed
// trunk mesh (2 ms per hop — a routed/WAN backbone, the regime the
// hierarchy targets).
//
// Every simulated median is pinned against the committed baseline by
// tools/bench_diff.py, like any other bench record.  The bench's own
// claims: hier-mcast's simulated median is >= 1.2x faster than flat
// mcast-binary at every point with >= 4 segments and >= 256 ranks — the
// paper-style crossover: the flat tree's ack/scout rounds cross the slow
// trunks O(log N) times where the hierarchy pays each trunk once — and it
// beats mpich everywhere (deterministic, never hw-gated).
#include "bench_util.hpp"
#include "common/bytes.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Hierarchical bcast scaling — 64-1024 ranks over 2/4/8 switch "
      "segments, mpich vs flat multicast vs hier-mcast");

  struct SweepPoint {
    int ranks;
    int segments;
  };
  // The full 64->1024 rank ladder, each rank count at the segment counts
  // where the comparison is interesting; the big points keep the sweep's
  // wall time bounded by appearing once.
  const std::vector<SweepPoint> sweep = {
      {64, 2}, {64, 4}, {64, 8}, {256, 4}, {256, 8}, {1024, 8},
  };
  const std::vector<std::string> algos = {"mpich", "mcast-binary",
                                          "hier-mcast"};
  constexpr int kBytes = 2048;

  struct Measured {
    int ranks;
    int segments;
    std::string algo;
    double median_us;
  };
  std::vector<Measured> measured;

  Table table({"ranks", "segments", "algo", "median us", "wall ms",
               "events"});
  for (const SweepPoint& point : sweep) {
    for (const std::string& algo : algos) {
      cluster::ClusterConfig config;
      config.network = cluster::NetworkType::kSwitch;
      config.num_procs = point.ranks;
      config.num_segments = point.segments;
      config.shard_driver = sim::ShardDriver::kParallel;
      config.seed = options.seed;
      config.hosts = cluster::make_uniform_hosts(point.ranks);
      // A routed-backbone trunk mesh: crossing a trunk costs 2 ms, so the
      // sweep measures exactly what the hierarchy optimises — how often
      // each algorithm pays that hop.
      config.trunk_latency = microseconds_f(2000.0);
      cluster::Cluster cluster(config);

      cluster::ExperimentConfig exp;
      exp.reps = options.reps;
      // Wide spacing: the very first (warmup) repetition pays comm-splits,
      // RDP channel establishment and the pre-scoping multicast flood all
      // at once, and at 1024 ranks that backlog drains for ~200 ms of
      // virtual time.  Reps must not start on top of it — 250 ms keeps
      // every measured rep in steady state.
      exp.rep_interval = milliseconds(250);

      const PointMeter meter;
      const auto result = cluster::measure_collective(
          cluster, exp, [&algo](mpi::Proc& p, int rep) {
            Buffer data;
            if (p.rank() == 0) {
              data = pattern_payload(static_cast<std::uint64_t>(rep), kBytes);
            }
            p.comm_world().coll().bcast(data, 0, algo);
          });
      const double wall_ms = meter.wall_ms();

      const double median = result.latencies_us.median();
      meter.record({{"op", "bcast"},
                    {"algo", algo},
                    {"network", "switch"},
                    {"ranks", point.ranks},
                    {"bytes", kBytes},
                    {"segments", point.segments}},
                   median, cluster.simulator());
      measured.push_back(
          Measured{point.ranks, point.segments, algo, median});
      table.add_row({std::to_string(point.ranks),
                     std::to_string(point.segments), algo,
                     Table::num(median), Table::num(wall_ms),
                     std::to_string(cluster.simulator().events_scheduled())});
    }
  }
  print_table(
      "Hierarchical bcast scaling (2 KiB, switch segments, 2 ms trunks)",
      table, options);

  // Shape checks: the crossover claim — past 4 segments / 256 ranks the
  // hierarchy must beat the flat multicast tree by 1.2x (and mpich, which
  // pays the trunk on nearly every binomial edge, must trail it).
  for (const SweepPoint& point : sweep) {
    double mpich = 0;
    double flat = 0;
    double hier = 0;
    for (const Measured& m : measured) {
      if (m.ranks != point.ranks || m.segments != point.segments) {
        continue;
      }
      if (m.algo == "mpich") {
        mpich = m.median_us;
      } else if (m.algo == "mcast-binary") {
        flat = m.median_us;
      } else if (m.algo == "hier-mcast") {
        hier = m.median_us;
      }
    }
    const std::string label = std::to_string(point.ranks) + " ranks / " +
                              std::to_string(point.segments) + " segments";
    if (point.segments >= 4 && point.ranks >= 256) {
      shape_check({.text = "hier-mcast (" + Table::num(hier) +
                           " us) beats flat mcast-binary (" +
                           Table::num(flat) + " us) at " + label,
                   .lhs = flat,
                   .rhs = hier,
                   .min_ratio = 1.2});
    }
    shape_check({.text = "hier-mcast (" + Table::num(hier) +
                         " us) beats mpich (" + Table::num(mpich) + " us) at " +
                         label,
                 .lhs = mpich,
                 .rhs = hier,
                 .strict = true});
  }
  return claims_exit_code();
}
