// Jumbo-message broadcast sweep: the segmented/pipelined multicast engine
// (the mcast-segmented preset of coll/mcast_stream.hpp) against the MPICH
// point-to-point baseline at payloads far past the single-datagram ceiling.
//
// Two topologies: the paper's 9-machine switched segment, and a 16-machine
// two-segment switched fabric joined by a trunk.  Three payloads
// {1, 4, 16 MiB} x {mpich, mcast-segmented at window 1 (lockstep) and
// window 4 (pipelined)}.  The machine-readable records are keyed by the
// window and carry the engine's chunk counters; the bench's claims are
// that pipelining beats lockstep by >= 1.3x on both topologies and that
// the window-4 run keeps several chunks in flight.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coll/mcast_stream.hpp"
#include "common/bytes.hpp"

namespace mcmpi::bench {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

/// One measured variant: a registry algorithm, plus the segmented window
/// (0 marks a non-segmented baseline algorithm).
struct Variant {
  std::string label;
  std::string algo;
  int window = 0;
};

struct Topology {
  std::string title;
  int procs = 9;
  int segments = 1;
};

struct Measured {
  Point point;
  sim::SchedCounters sched;
};

Measured measure_jumbo(const Topology& topo, const Variant& v,
                       std::size_t bytes, const BenchOptions& options) {
  ClusterConfig config;
  config.network = NetworkType::kSwitch;
  config.num_procs = topo.procs;
  config.num_segments = topo.segments;
  config.seed = options.seed;
  if (topo.procs > 9) {
    config.hosts = cluster::make_uniform_hosts(topo.procs);
  }
  Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = options.reps;
  // Jumbo operations run for whole simulated seconds; keep every
  // repetition's pre-agreed start after the previous one finishes so the
  // measured latency is the operation itself, not accumulated overrun.
  exp.rep_interval = milliseconds(12000);

  const PointMeter meter;
  const auto result = cluster::measure_collective(
      cluster, exp, [&v, bytes](mpi::Proc& p, int) {
        if (v.window > 0) {
          coll::StreamConfig cfg =
              coll::preset_config(coll::StreamPreset::kSegmented);
          cfg.k = v.window;
          coll::set_stream_config(p, p.comm_world(),
                                  coll::StreamPreset::kSegmented, cfg);
        }
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(0xB0CA57, bytes);
        }
        p.comm_world().coll().bcast(data, 0, v.algo);
      });
  Measured m;
  m.point = Point{result.latencies_us.median(), result.latencies_us.min(),
                  result.latencies_us.max()};
  m.sched = cluster.simulator().sched_counters();
  Fields key{{"op", "jumbo-bcast"},
             {"algo", v.algo},
             {"network", cluster::to_string(config.network)},
             {"ranks", topo.procs},
             {"bytes", bytes}};
  if (v.window > 0) {  // the segmented engine's window
    key.emplace_back("window", v.window);
  }
  meter.record(std::move(key), m.point.median_us, cluster.simulator());
  return m;
}

int run(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Jumbo broadcast: segmented/pipelined multicast vs MPICH "
      "point-to-point at 1-16 MiB");

  const std::vector<std::size_t> sizes = {1u << 20, 4u << 20, 16u << 20};
  const std::vector<Variant> variants = {
      {"mpich", "mpich", 0},
      {"seg w1", "mcast-segmented", 1},
      {"seg w4", "mcast-segmented", 4},
  };
  const Topology switch9{"switch, 9 procs, 1 segment", 9, 1};
  const Topology dual16{"switch, 16 procs, 2 segments", 16, 2};

  // Indexed [variant][size] for the shape checks below.
  std::vector<std::vector<Measured>> nine;
  for (const Variant& v : variants) {
    std::vector<Measured> row;
    for (std::size_t bytes : sizes) {
      row.push_back(measure_jumbo(switch9, v, bytes, options));
    }
    nine.push_back(std::move(row));
  }

  std::vector<std::string> columns{"MiB"};
  for (const Variant& v : variants) {
    columns.push_back(v.label + " us");
  }
  Table table(columns);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i] >> 20)};
    for (std::size_t s = 0; s < variants.size(); ++s) {
      row.push_back(Table::num(nine[s][i].point.median_us));
    }
    table.add_row(std::move(row));
  }
  print_table("jumbo bcast — " + switch9.title, table, options);

  std::vector<Measured> dual;
  for (const Variant& v : variants) {
    dual.push_back(measure_jumbo(dual16, v, sizes.back(), options));
  }
  Table dual_table({"MiB", "mpich us", "seg w1 us", "seg w4 us"});
  dual_table.add_row({std::to_string(sizes.back() >> 20),
                      Table::num(dual[0].point.median_us),
                      Table::num(dual[1].point.median_us),
                      Table::num(dual[2].point.median_us)});
  print_table("jumbo bcast — " + dual16.title, dual_table, options);

  // The qualitative claims, checked at the largest payload (chunk count
  // dwarfs the fixed scout/ack overheads).
  const std::size_t last = sizes.size() - 1;
  const double w1 = nine[1][last].point.median_us;
  const double w4 = nine[2][last].point.median_us;
  shape_check({.text = "pipelining beats lockstep at 16 MiB, 9 procs (w1 " +
                       Table::num(w1) + " us vs w4 " + Table::num(w4) + " us)",
               .lhs = w1,
               .rhs = w4,
               .min_ratio = 1.3});
  shape_check({.text = "window-4 run overlaps chunks in flight (peak window " +
                       std::to_string(nine[2][last].sched.chunk_peak_window) +
                       ")",
               .lhs = static_cast<double>(
                   nine[2][last].sched.chunk_peak_window),
               .rhs = 1.0,
               .strict = true});
  shape_check({.text = "pipelining also wins across the two-segment trunk, "
                       "16 procs (w1 " +
                       Table::num(dual[1].point.median_us) + " us vs w4 " +
                       Table::num(dual[2].point.median_us) + " us)",
               .lhs = dual[1].point.median_us,
               .rhs = dual[2].point.median_us,
               .min_ratio = 1.3});
  return claims_exit_code();
}

}  // namespace
}  // namespace mcmpi::bench

int main(int argc, char** argv) { return mcmpi::bench::run(argc, argv); }
