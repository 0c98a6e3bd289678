// Ablation: the eagle cluster is heterogeneous (four 500 MHz Compaqs, five
// 450 MHz Gateways).  Collective latency is a maximum over ranks, so the
// slowest machine sets the pace; this bench quantifies how much of the
// measured latency is the slow hosts' doing by comparing the real mix
// against hypothetical all-500 MHz and all-450 MHz clusters.
#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;
using namespace mcmpi::bench;

double run_mix(const std::vector<cluster::HostSpec>& hosts, int procs,
               const std::string& algo, int payload,
               const BenchOptions& options) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = options.seed;
  config.hosts = hosts;
  cluster::Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = options.reps;
  const auto result = cluster::measure_collective(
      cluster, exp, [&algo, payload](mpi::Proc& p, int) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, static_cast<std::size_t>(payload));
        }
        p.comm_world().coll().bcast(data, 0, algo);
      });
  return result.latencies_us.median();
}

std::vector<cluster::HostSpec> uniform_hosts(double mhz, int n) {
  std::vector<cluster::HostSpec> hosts(
      static_cast<std::size_t>(n), cluster::HostSpec{mhz, "uniform"});
  return hosts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Ablation — heterogeneous hosts: eagle mix vs uniform clusters");

  constexpr int kProcs = 9;
  const std::vector<cluster::HostSpec> eagle(
      cluster::kEagleHosts, cluster::kEagleHosts + cluster::kMaxEagleHosts);

  Table table({"bytes", "algo", "all-500MHz us", "eagle mix us",
               "all-450MHz us"});
  bool ordered_everywhere = true;
  for (int payload : {0, 2000, 5000}) {
    for (const std::string& algo : {"mpich", "mcast-binary"}) {
      const double fast =
          run_mix(uniform_hosts(500.0, kProcs), kProcs, algo, payload, options);
      const double mixed = run_mix(eagle, kProcs, algo, payload, options);
      const double slow =
          run_mix(uniform_hosts(450.0, kProcs), kProcs, algo, payload, options);
      ordered_everywhere =
          ordered_everywhere && fast <= mixed && mixed <= slow;
      table.add_row({std::to_string(payload), algo, Table::num(fast),
                     Table::num(mixed), Table::num(slow)});
    }
  }
  print_table("Broadcast latency vs host mix (9 procs, switch)", table,
              options);

  shape_check(ordered_everywhere,
              "all-fast <= eagle mix <= all-slow for every size and "
              "algorithm (the slowest rank paces the collective)");
  return claims_exit_code();
}
