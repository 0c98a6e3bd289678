// Jumbo-message broadcast sweep: the segmented/pipelined/striped multicast
// engine (the mcast-segmented preset of coll/mcast_stream.hpp) against the MPICH point-to-point baseline at
// payloads far past the single-datagram ceiling.
//
// Two topologies: the paper's 9-machine switched segment, and a 16-machine
// two-segment switched fabric joined by a trunk.  Three payloads
// {1, 4, 16 MiB} x {mpich, mcast-segmented at window 1 (lockstep) and
// window 4 (pipelined)} x lane counts {1, 2, 4}.  The machine-readable
// records carry the window/lane knobs and the engine's chunk counters, so
// the bench_diff gate can enforce that pipelining beats lockstep
// (--min-pipeline-speedup) and that striping strictly helps at window 1.
#include <cstdint>
#include <chrono>
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

/// One measured variant: a registry algorithm, plus the segmented knobs
/// (window = 0 marks a non-segmented baseline algorithm).
struct Variant {
  std::string label;
  std::string algo;
  int window = 0;
  int lanes = 0;
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

  const PayloadCounters payload_before = payload_counters();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto result = cluster::measure_collective(
      cluster, exp, [&v, bytes](mpi::Proc& p, int) {
        if (v.window > 0) {
          coll::StreamConfig cfg =
              coll::preset_config(coll::StreamPreset::kSegmented);
          cfg.k = v.window;
          cfg.lanes = v.lanes;
          coll::set_stream_config(p, p.comm_world(),
                                  coll::StreamPreset::kSegmented, cfg);
        }
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(0xB0CA57, bytes);
        }
        p.comm_world().coll().bcast(data, 0, v.algo);
      });
  const auto wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  const PayloadCounters payload_delta = payload_counters().since(payload_before);

  Measured m;
  m.point = Point{result.latencies_us.median(), result.latencies_us.min(),
                  result.latencies_us.max()};
  m.sched = cluster.simulator().sched_counters();
  record_bench(BenchRecord{
      .op = "jumbo-bcast",
      .algo = v.algo,
      .network = cluster::to_string(config.network),
      .ranks = topo.procs,
      .bytes = static_cast<std::int64_t>(bytes),
      .sim_time_us = m.point.median_us,
      .wall_time_ms = wall_ms,
      .events_scheduled = cluster.simulator().events_scheduled(),
      .handoffs = cluster.simulator().handoffs(),
      .payload_allocs = payload_delta.buffer_allocs,
      .payload_copies = payload_delta.byte_copies,
      .window = v.window,
      .lanes = v.lanes,
      .chunk_sent = m.sched.chunk_sent,
      .chunk_acked = m.sched.chunk_acked,
      .chunk_retried = m.sched.chunk_retried,
      .chunk_peak_window = m.sched.chunk_peak_window,
  });
  return m;
}

int run(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Jumbo broadcast: segmented/pipelined/striped multicast vs MPICH "
      "point-to-point at 1-16 MiB");

  const std::vector<std::size_t> sizes = {1u << 20, 4u << 20, 16u << 20};
  const std::vector<Variant> variants = {
      {"mpich", "mpich", 0, 0},
      {"seg w1 l1", "mcast-segmented", 1, 1},
      {"seg w1 l4", "mcast-segmented", 1, 4},
      {"seg w4 l1", "mcast-segmented", 4, 1},
      {"seg w4 l2", "mcast-segmented", 4, 2},
      {"seg w4 l4", "mcast-segmented", 4, 4},
  };
  const Topology switch9{"switch, 9 procs, 1 segment", 9, 1};
  // The two-segment fabric only needs the headline comparison.
  const Topology dual16{"switch, 16 procs, 2 segments", 16, 2};
  const std::vector<Variant> dual_variants = {variants[0], variants[1],
                                              variants[3]};

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
  for (const Variant& v : dual_variants) {
    dual.push_back(measure_jumbo(dual16, v, sizes.back(), options));
  }
  Table dual_table({"MiB", "mpich us", "seg w1 l1 us", "seg w4 l1 us"});
  dual_table.add_row({std::to_string(sizes.back() >> 20),
                      Table::num(dual[0].point.median_us),
                      Table::num(dual[1].point.median_us),
                      Table::num(dual[2].point.median_us)});
  print_table("jumbo bcast — " + dual16.title, dual_table, options);

  // The qualitative claims the ISSUE's perf gate rests on, checked at the
  // largest payload (chunk count dwarfs the fixed scout/ack overheads).
  const std::size_t last = sizes.size() - 1;
  const double w1 = nine[1][last].point.median_us;   // seg w1 l1
  const double w1l4 = nine[2][last].point.median_us; // seg w1 l4
  const double w4 = nine[3][last].point.median_us;   // seg w4 l1
  shape_check(w4 * 1.3 <= w1,
              "pipelining beats lockstep >= 1.3x at 16 MiB (w1 " +
                  Table::num(w1) + " us vs w4 " + Table::num(w4) + " us)");
  shape_check(w1l4 < w1,
              "4 lanes strictly beat 1 lane at window 1, 16 MiB (" +
                  Table::num(w1l4) + " us vs " + Table::num(w1) + " us)");
  shape_check(nine[3][last].sched.chunk_peak_window > 1,
              "window-4 run overlaps chunks in flight (peak window " +
                  std::to_string(nine[3][last].sched.chunk_peak_window) + ")");
  shape_check(dual[2].point.median_us < dual[1].point.median_us,
              "pipelining also wins across the two-segment trunk");
  return 0;
}

}  // namespace
}  // namespace mcmpi::bench

int main(int argc, char** argv) { return mcmpi::bench::run(argc, argv); }
