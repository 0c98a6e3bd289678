// Ablation: how kAuto broadcasts across segments on a lossy network.
//
// The trunk bridges forward every multicast frame, so one flat FEC stream
// (fec-mcast) reaches every segment in a single transmission.  The
// hierarchical alternative, hier-mcast, relays store-and-forward: the root
// unicasts the whole payload to each remote segment leader, each segment
// runs a point-to-point size round, and the leader multicasts again.  Under
// loss kAuto picks the flat stream whenever the payload fits one FEC
// window; this bench sweeps kAuto against explicit hier-mcast over 4-64
// uniform hosts on 2 and 4 switch segments, 100 us and 2 ms trunks, and
// 2/16/64 KiB payloads at 1% link loss, and checks every rank's bytes.
//
// Claims, at every point with at least 4 ranks per segment:
//   - on 100 us trunks, kAuto's median is <= 0.9x hier-mcast's, and
//     <= 0.7x at 64 KiB;
//   - on 2 ms trunks, it is <= 0.8x at 64 KiB, and the geometric mean of
//     the kAuto/hier-mcast ratios is <= 0.75.  A NACK round there crosses
//     the slow trunk twice, so a point's median can land on a recovery
//     round: at 64 ranks on 4 segments, the 2 and 16 KiB ratios ranged
//     from 0.4 to 1.1 over 16 seeds, so those points are not gated one by
//     one.
// Points with 1-2 ranks per segment leave the relay almost no
// intra-segment work to save, so they are gated only at <= 1.0x: the flat
// stream must not lose.  Its closest point is 2 KiB on a 2 ms trunk, at
// about 0.96x over seeds, because fec-mcast sends a payload below k frames
// as the frames it fills rather than as k sub-frame chunks.
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;

struct Shape {
  int ranks = 0;
  int segments = 0;
  SimTime trunk_latency = SimTime{};
  int bytes = 0;
};

struct Run {
  double median_us = 0;
  bool payload_ok = true;
};

Run run_case(const Shape& shape, const std::string& algo, int reps,
             std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.network = cluster::NetworkType::kSwitch;
  config.num_procs = shape.ranks;
  config.num_segments = shape.segments;
  config.trunk_latency = shape.trunk_latency;
  config.hosts = cluster::make_uniform_hosts(shape.ranks);
  config.faults.link.loss = 0.01;
  config.seed = seed;
  cluster::Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = reps;
  // Recovery under loss can back off past the trunk round trip; keep each
  // repetition's start clear of the previous one's tail.
  exp.rep_interval = milliseconds(200);
  std::vector<int> ok(static_cast<std::size_t>(shape.ranks), 1);
  const auto result = cluster::measure_collective(
      cluster, exp, [&](mpi::Proc& p, int rep) {
        const auto tag = static_cast<std::uint64_t>(rep + 1);
        const auto bytes = static_cast<std::size_t>(shape.bytes);
        // Every rank passes the payload size: kAuto resolves on it.
        Buffer data(bytes);
        if (p.rank() == 0) {
          data = pattern_payload(tag, bytes);
        }
        p.comm_world().coll().bcast(data, 0, algo);
        if (data.size() != bytes || !check_pattern(tag, data)) {
          ok[static_cast<std::size_t>(p.rank())] = 0;
        }
      });
  Run run;
  run.median_us = result.latencies_us.median();
  for (const int good : ok) {
    run.payload_ok = run.payload_ok && good != 0;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  int reps = 25;
  std::uint64_t seed = 2000;
  BenchOptions options;
  try {
    Flags flags(argc, argv);
    reps = static_cast<int>(flags.get_int("reps", reps, "reps/point"));
    seed = static_cast<std::uint64_t>(flags.get_int(
        "seed", static_cast<std::int64_t>(seed), "simulation seed"));
    options.csv = flags.get_bool("csv", false, "emit CSV");
    if (flags.help_requested()) {
      std::cout << flags.usage(
          "Ablation: lossy cross-segment bcast, kAuto vs hier-mcast");
      return 0;
    }
    flags.check_unknown();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return 2;  // a bad invocation, not a failed claim
  }

  Table table({"ranks", "segments", "trunk us", "bytes", "auto us",
               "hier-mcast us", "auto/hier"});
  bool payload_ok = true;
  double slow_trunk_log_ratio = 0;
  int slow_trunk_points = 0;
  for (const int ranks : {4, 8, 16, 64}) {
    for (const int segments : {2, 4}) {
      for (const int trunk_us : {100, 2000}) {
        for (const int bytes : {2048, 16 * 1024, 64 * 1024}) {
          const Shape shape{ranks, segments, microseconds(trunk_us), bytes};
          const Run automatic = run_case(shape, coll::kAuto, reps, seed);
          const Run hier = run_case(shape, "hier-mcast", reps, seed);
          payload_ok =
              payload_ok && automatic.payload_ok && hier.payload_ok;
          const double ratio = automatic.median_us / hier.median_us;
          table.add_row({std::to_string(ranks), std::to_string(segments),
                         std::to_string(trunk_us), std::to_string(bytes),
                         Table::num(automatic.median_us),
                         Table::num(hier.median_us), Table::num(ratio)});
          const bool slow_trunk = trunk_us >= 2000;
          double bound = 0.9;
          if (ranks / segments < 4) {
            bound = 1.0;
          } else {
            if (slow_trunk) {
              slow_trunk_log_ratio += std::log(ratio);
              ++slow_trunk_points;
            }
            if (bytes >= 64 * 1024) {
              bound = slow_trunk ? 0.8 : 0.7;
            } else if (slow_trunk) {
              continue;  // gated through the geometric mean below
            }
          }
          // automatic <= bound * hier, as hier >= automatic / bound.
          shape_check({.text = "kAuto <= " + Table::num(bound) +
                               "x hier-mcast at " + std::to_string(ranks) +
                               " ranks / " + std::to_string(segments) +
                               " segments, " + std::to_string(trunk_us) +
                               " us trunk, " + std::to_string(bytes) +
                               " B (" + Table::num(automatic.median_us) +
                               " vs " + Table::num(hier.median_us) + " us)",
                       .lhs = hier.median_us,
                       .rhs = automatic.median_us,
                       .min_ratio = 1.0 / bound});
        }
      }
    }
  }
  print_table("Lossy cross-segment bcast (1% link loss): kAuto vs hier-mcast",
              table, options);
  const double slow_trunk_geomean =
      std::exp(slow_trunk_log_ratio / slow_trunk_points);
  shape_check({.text = "geometric mean of kAuto/hier-mcast over the 2 ms "
                       "trunk points is <= 0.75 (" +
                       Table::num(slow_trunk_geomean) + ")",
               .lhs = 0.75,
               .rhs = slow_trunk_geomean});
  shape_check(payload_ok, "every rank received the root's bytes on every "
                          "repetition");
  return claims_exit_code();
}
