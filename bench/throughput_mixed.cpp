// Throughput-mode engine bench: a multi-tenant mixed-collective workload
// (cluster/workload.hpp) over 16 ranks in 4 switch segments, swept across
// shard driver x shard count, with payload pooling on (plus one unpooled
// reference run).
//
// What the bench claims:
//   * per-collective completion latencies — and therefore the p50/p99
//     figures — are bit-identical across BOTH drivers and 1/2/4 shards
//     (the workload schedule is a pure function of the seed, and the
//     sharded simulator is bit-exact against the serial reference);
//   * payload pooling does not change virtual timing, only allocation:
//     the "no-pool" run agrees on every latency while its payload_allocs
//     figure is strictly larger than every pooled run's;
//   * with >= 4 usable CPUs, the parallel driver at 4 shards clears
//     1.5x the serial driver's wall-clock collectives/sec (collectives per
//     WALL second — compared within one run only, never against the
//     committed baseline).
// Against the committed baseline, tools/bench_diff.py pins p50 (as
// sim_time_us), p99_us, the collective count and every counter.
#include <algorithm>

#include "bench_util.hpp"
#include "cluster/workload.hpp"
#include "common/bytes.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Throughput-mode engine — multi-tenant mixed collectives, 16 ranks, "
      "4 switch segments, driver x shards sweep");

  constexpr int kProcs = 16;
  constexpr int kSegments = 4;

  cluster::WorkloadConfig workload;
  workload.tenants = 4;
  // --reps scales the stream length so the gate lane can run a shorter
  // sweep than the default standalone invocation.
  workload.collectives_per_tenant = std::max(8, options.reps);
  workload.mean_gap = microseconds_f(300.0);
  workload.min_bytes = 16;
  workload.max_bytes = 16 * 1024;
  workload.seed = options.seed;

  struct Measured {
    std::string driver;
    int shards = 0;
    bool pooled = true;
    cluster::WorkloadResult result;
    double wall_ms = 0;
    double wall_coll_per_sec = 0;
    std::uint64_t payload_allocs = 0;
  };
  std::vector<Measured> measured;

  Table table({"driver", "shards", "pool", "p50 us", "p99 us", "wall ms",
               "payload allocs", "event pool hits"});
  const auto run_one = [&](sim::ShardDriver driver, unsigned shards,
                           bool pooled) {
    cluster::ClusterConfig config;
    config.num_procs = kProcs;
    config.num_segments = kSegments;
    config.sim_shards = shards;
    config.shard_driver = driver;
    config.payload_pool = pooled;
    config.network = cluster::NetworkType::kSwitch;
    config.seed = options.seed;
    config.hosts = cluster::make_uniform_hosts(kProcs);
    // Routed-backbone trunk latency = the conservative lookahead; wide
    // windows keep barrier rounds cheap relative to useful work.
    config.trunk_latency = microseconds_f(100.0);
    cluster::Cluster cluster(config);

    const PointMeter meter;
    const cluster::WorkloadResult result =
        cluster::run_workload(cluster, workload);
    const double wall_ms = meter.wall_ms();
    const sim::SchedCounters sched = cluster.simulator().sched_counters();

    Measured m;
    m.driver = driver == sim::ShardDriver::kParallel ? "parallel" : "serial";
    m.shards = static_cast<int>(shards);
    m.pooled = pooled;
    m.result = result;
    m.wall_ms = wall_ms;
    m.wall_coll_per_sec = wall_ms > 0.0
                              ? static_cast<double>(result.collectives) /
                                    (wall_ms / 1000.0)
                              : 0.0;
    m.payload_allocs = meter.payload_delta().buffer_allocs;
    measured.push_back(m);

    table.add_row({m.driver, std::to_string(m.shards),
                   pooled ? "on" : "off", Table::num(result.p50_us),
                   Table::num(result.p99_us), Table::num(wall_ms),
                   std::to_string(m.payload_allocs),
                   std::to_string(sched.event_pool_hits)});
    // sim_time_us carries the p50 completion latency.
    meter.record({{"op", "mixed"},
                  {"algo", pooled ? "pooled" : "no-pool"},
                  {"network", "switch"},
                  {"ranks", kProcs},
                  {"bytes", -1},
                  {"shards", m.shards},
                  {"driver", m.driver}},
                 result.p50_us, cluster.simulator(),
                 {{"p99_us", result.p99_us},
                  {"collectives", result.collectives}});
  };

  for (const auto driver :
       {sim::ShardDriver::kSerial, sim::ShardDriver::kParallel}) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      run_one(driver, shards, /*pooled=*/true);
    }
  }
  // Unpooled reference: same workload, same timing, more allocations.
  run_one(sim::ShardDriver::kSerial, 1u, /*pooled=*/false);

  print_table(
      "Throughput-mode engine (16 ranks, 4 switch segments, mixed ops)",
      table, options);

  // Shape checks.  Determinism first: every run (both drivers, all shard
  // counts, pool on or off) must reproduce the reference run's
  // per-collective latencies exactly.
  const Measured& reference = measured.front();
  bool identical = true;
  for (const Measured& m : measured) {
    identical =
        identical && m.result.latencies_us == reference.result.latencies_us;
  }
  shape_check(identical,
              "per-collective latencies bit-identical across drivers, "
              "shard counts and pooling");

  const Measured& no_pool = measured.back();
  std::uint64_t pooled_max = 0;
  for (const Measured& m : measured) {
    if (m.pooled) {
      pooled_max = std::max(pooled_max, m.payload_allocs);
    }
  }
  shape_check({.text = "payload pooling strictly reduces payload buffer "
                       "allocations (" +
                       std::to_string(no_pool.payload_allocs) + " -> at most " +
                       std::to_string(pooled_max) + ")",
               .lhs = static_cast<double>(no_pool.payload_allocs),
               .rhs = static_cast<double>(pooled_max),
               .strict = true});

  const auto find = [&](const std::string& driver,
                        int shards) -> const Measured& {
    return *std::find_if(measured.begin(), measured.end(),
                         [&](const Measured& m) {
                           return m.pooled && m.driver == driver &&
                                  m.shards == shards;
                         });
  };
  const Measured& serial4 = find("serial", 4);
  const Measured& parallel4 = find("parallel", 4);
  shape_check({.text = "parallel driver clears 1.5x serial wall-clock "
                       "collectives/sec at 4 shards (" +
                       Table::num(serial4.wall_coll_per_sec) + " -> " +
                       Table::num(parallel4.wall_coll_per_sec) + " coll/s)",
               .lhs = parallel4.wall_coll_per_sec,
               .rhs = serial4.wall_coll_per_sec,
               .min_ratio = 1.5,
               .min_hw_threads = 4});
  return claims_exit_code();
}
