// Deterministic reduce/scatter algorithm sweep for the bench_diff perf
// gate: every applicable registry entry for the widened collective surface
// is measured at small and large payloads on an 8-rank switch, and its
// simulated median, events, handoffs and payload-copy counts are tracked
// across PRs (bench/baselines/BENCH_micro_collectives_sweep.json).  Records
// are keyed by (op, algo, ranks, bytes), so a newly registered reduce or
// scatter algorithm shows up as a new record without failing the gate,
// while a semantics change to an existing one fails it.
#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "mpi/group.hpp"
#include "net/counters.hpp"

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Reduce/scatter algorithm sweep — 8 processes, switch, perf-gate");

  constexpr int kProcs = 8;
  const std::vector<int> sizes = {1024, 16 * 1024};
  // A Proc-less communicator handle: predicates that consult per-rank state
  // (eager threshold, socket buffers) pass, which is what we want here —
  // the chosen sizes are comfortably inside every default limit.
  const mpi::Comm shape(
      std::make_shared<mpi::CommInfo>(0, mpi::Group::world(kProcs)), 0);

  Table table({"op", "algorithm", "bytes", "median us", "wall ms"});
  for (const coll::CollOp op : {coll::CollOp::kReduce, coll::CollOp::kScatter}) {
    for (const int size : sizes) {
      const auto bytes = static_cast<std::size_t>(size);
      for (const std::string& algo : coll::Registry::instance()
               .applicable_names(op, shape, bytes)) {
        cluster::ClusterConfig config;
        config.num_procs = kProcs;
        config.network = cluster::NetworkType::kSwitch;
        config.seed = options.seed;
        cluster::Cluster cluster(config);
        cluster::ExperimentConfig exp;
        exp.reps = options.reps;

        const PointMeter meter;
        const auto result = cluster::measure_collective(
            cluster, exp, [op, bytes, &algo](mpi::Proc& p, int rep) {
              const mpi::Comm comm = p.comm_world();
              if (op == coll::CollOp::kReduce) {
                const Buffer mine = pattern_payload(
                    static_cast<std::uint64_t>(rep + p.rank()), bytes);
                (void)comm.coll().reduce(mine, mpi::Op::kMax,
                                         mpi::Datatype::kByte, /*root=*/0,
                                         algo);
              } else {
                std::vector<Buffer> chunks;
                if (p.rank() == 0) {
                  for (int r = 0; r < kProcs; ++r) {
                    chunks.push_back(pattern_payload(
                        static_cast<std::uint64_t>(rep + r), bytes));
                  }
                }
                (void)comm.coll().scatter(chunks, /*root=*/0, bytes, algo);
              }
            });
        table.add_row({coll::to_string(op), algo, std::to_string(size),
                       Table::num(result.latencies_us.median()),
                       Table::num(meter.wall_ms())});
        meter.record({{"op", coll::to_string(op)},
                      {"algo", algo},
                      {"network", "switch"},
                      {"ranks", kProcs},
                      {"bytes", size}},
                     result.latencies_us.median(), cluster.simulator());
      }
    }
  }
  print_table("Reduce/scatter algorithm sweep: 8 procs, switch", table,
              options);
  return claims_exit_code();
}
