// Scheduler-cost benchmark: the 9-rank 64 KiB switch broadcast that the
// perf trajectory tracks across PRs (CHANGES.md).  Large fragmented
// payloads make scheduler overhead — process handoffs and per-event heap
// traffic — the dominant wall-clock cost, so this is the workload that
// shows whether the fiber scheduler, delay coalescing and batched fan-out
// actually pay.  Simulated medians must never move (the scheduler refactors
// are semantics-preserving); wall time and handoffs must only go down.
#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "net/counters.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv, "Scheduler cost — MPI_Bcast of 64 KiB, 9 processes, switch");

  constexpr int kProcs = 9;
  constexpr int kBytes = 64 * 1024;
  // The scout-multicast family from the registry (this bench tracks the
  // scheduler cost of the paper's contribution; other registered bcast
  // algorithms have their own benches).
  const std::vector<std::string> algos = registry_bcast_algos("mcast-");

  Table table({"algorithm", "median us", "wall ms", "handoffs/coll",
               "events/coll"});
  for (const std::string& label : algos) {
    cluster::ClusterConfig config;
    config.num_procs = kProcs;
    config.network = cluster::NetworkType::kSwitch;
    config.seed = options.seed;
    cluster::Cluster cluster(config);
    cluster::ExperimentConfig exp;
    exp.reps = options.reps;
    const int total_reps = exp.warmup_reps + exp.reps;

    const PointMeter meter;
    const auto result = cluster::measure_collective(
        cluster, exp, [&label](mpi::Proc& p, int) {
          Buffer data;
          if (p.rank() == 0) {
            data = pattern_payload(0xB0CA57, kBytes);
          }
          p.comm_world().coll().bcast(data, 0, label);
        });
    const double wall_ms = meter.wall_ms();

    // SchedCounters reaches benches through net/counters.hpp, next to the
    // frame and payload counters it is reported alongside.
    const net::SchedCounters& sched = cluster.simulator().sched_counters();
    const std::uint64_t handoffs_per_coll =
        sched.handoffs / static_cast<std::uint64_t>(total_reps);
    table.add_row({label, Table::num(result.latencies_us.median()),
                   Table::num(wall_ms),
                   std::to_string(handoffs_per_coll),
                   std::to_string(sched.events_executed /
                                  static_cast<std::uint64_t>(total_reps))});
    meter.record({{"op", label + "/64KiB"},
                  {"network", "switch"},
                  {"ranks", kProcs},
                  {"bytes", kBytes}},
                 result.latencies_us.median(), cluster.simulator());
  }
  print_table("Scheduler cost: 64 KiB MPI_Bcast, 9 procs, switch", table,
              options);
  return claims_exit_code();
}
