// Gate: kAuto's bcast picks against every registered bcast.
//
// The tuning table (coll/tuning.cpp) is hand-written; this bench is the
// measurement each of its bcast rules answers to.  It sweeps a fixed grid
// and, at every point, runs kAuto and every registered bcast that may run
// there (applicable to the communicator and payload, never lossy, and
// loss-tolerant on a lossy network), each with the same seed and entry
// skew, and checks every rank's bytes:
//   - topologies: the paper's 9 hosts on a hub, 9 hosts on a switch, and
//     16 hosts on 2 or 4 switch segments behind 100 us or 2 ms trunks;
//   - communicators: 2 ranks (comm ranks 0 and N-1, so the pair spans
//     segments) and the whole world;
//   - payloads on both sides of every size threshold: 1024 B (the old
//     scout crossover), 16 KiB (the NACK stream's), the FEC blast's fit in
//     the 256 KiB multicast receive buffer, the buffer itself and the
//     512000 B datagram ceiling;
//   - entry skew of 20 us (the paper's loosely synchronized SPMD ranks)
//     and of 1 ms, where a scout gather waits for the last rank and a NACK
//     stream does not;
//   - seeds 2000 and 2001.
//
// Claim, at every clean point: kAuto's simulated median is <= 1.10x the
// best applicable registered bcast's.  Simulated time is deterministic, so
// the gate is exact on any host.  Lossy points (1% link loss) print their
// ratio but are not gated.  One open-loop row sends back-to-back kAuto
// bcasts from one root and prints the receivers' socket-buffer drops.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coll/registry.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;

struct Topology {
  const char* name;
  cluster::NetworkType network;
  int hosts;
  int segments;
  int trunk_us;
};

struct Shape {
  Topology topo;
  int ranks = 0;  // 2, or topo.hosts
  std::size_t bytes = 0;
  int skew_us = 0;
  std::uint64_t seed = 0;
  double loss = 0;
};

cluster::ClusterConfig config_of(const Shape& s) {
  cluster::ClusterConfig config;
  config.network = s.topo.network;
  config.num_procs = s.topo.hosts;
  config.num_segments = s.topo.segments;
  if (s.topo.segments > 1) {
    config.trunk_latency = microseconds(s.topo.trunk_us);
    config.hosts = cluster::make_uniform_hosts(s.topo.hosts);
  }
  config.faults.link.loss = s.loss;
  config.seed = s.seed;
  return config;
}

/// The communicator a shape runs on: the world, or comm ranks 0 and N-1.
mpi::Comm comm_of(mpi::Proc& p, int ranks) {
  const mpi::Comm world = p.comm_world();
  if (ranks == world.size()) {
    return world;
  }
  const bool member = p.rank() == 0 || p.rank() == world.size() - 1;
  return p.split(world, member ? 0 : 1, p.rank());
}

struct Run {
  double median_us = 0;
  bool payload_ok = true;
};

/// The grid's payloads past this size take 17 ms or more, so 1 ms of entry
/// skew moves a repetition by a few percent: one measured repetition does.
constexpr std::size_t kOneRepBytes = 100000;

Run run_case(const Shape& s, const std::string& algo, int reps) {
  cluster::Cluster cluster(config_of(s));
  cluster::ExperimentConfig exp;
  exp.reps = s.bytes >= kOneRepBytes ? 1 : reps;
  exp.max_skew = microseconds(s.skew_us);
  // Loss recovery and 1 ms of skew can outlast the default spacing.
  exp.rep_interval = milliseconds(s.loss > 0 ? 200 : 100);
  std::vector<std::optional<mpi::Comm>> comms(
      static_cast<std::size_t>(s.topo.hosts));
  std::vector<int> ok(static_cast<std::size_t>(s.topo.hosts), 1);
  const auto result = cluster::measure_collective(
      cluster, exp, [&](mpi::Proc& p, int rep) {
        auto& comm = comms[static_cast<std::size_t>(p.rank())];
        if (!comm) {
          comm = comm_of(p, s.ranks);
        }
        if (comm->size() != s.ranks) {
          return;  // outside the pair
        }
        const auto tag = static_cast<std::uint64_t>(rep + 1);
        // Every rank passes the payload size: kAuto resolves on it.
        Buffer data(s.bytes);
        if (comm->rank() == 0) {
          data = pattern_payload(tag, s.bytes);
        }
        comm->coll().bcast(data, 0, algo);
        if (data.size() != s.bytes || !check_pattern(tag, data)) {
          ok[static_cast<std::size_t>(p.rank())] = 0;
        }
      });
  Run run;
  run.median_us = result.latencies_us.median();
  run.payload_ok = std::all_of(ok.begin(), ok.end(),
                               [](int good) { return good != 0; });
  return run;
}

/// The registered bcasts that may run at shape `s`, and what kAuto picks
/// there, as rank 0 of the shape's communicator resolves them.
struct Candidates {
  std::vector<std::string> algos;
  std::string pick;
};

Candidates candidates_of(const Shape& s) {
  cluster::Cluster cluster(config_of(s));
  Candidates out;
  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = comm_of(p, s.ranks);
    if (p.rank() != 0) {
      return;
    }
    out.pick = comm.coll().resolve(coll::CollOp::kBcast, s.bytes);
    for (const coll::CollAlgorithm& a : coll::Registry::instance().entries()) {
      if (a.op != coll::CollOp::kBcast || a.lossy ||
          (s.loss > 0 && !a.loss_tolerant) ||
          (a.applicable && !a.applicable(comm, s.bytes))) {
        continue;
      }
      out.algos.push_back(a.name);
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  int reps = 3;
  BenchOptions options;
  try {
    Flags flags(argc, argv);
    reps = static_cast<int>(flags.get_int("reps", reps, "reps/point"));
    options.csv = flags.get_bool("csv", false, "emit CSV");
    if (flags.help_requested()) {
      std::cout << flags.usage("Gate: kAuto bcast vs every registered bcast");
      return 0;
    }
    flags.check_unknown();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return 2;  // a bad invocation, not a failed claim
  }

  using cluster::NetworkType;
  const std::vector<Topology> topologies = {
      {"paper hub", NetworkType::kHub, 9, 1, 0},
      {"switch", NetworkType::kSwitch, 9, 1, 0},
      {"2 seg / 100 us", NetworkType::kSwitch, 16, 2, 100},
      {"2 seg / 2 ms", NetworkType::kSwitch, 16, 2, 2000},
      {"4 seg / 100 us", NetworkType::kSwitch, 16, 4, 100},
      {"4 seg / 2 ms", NetworkType::kSwitch, 16, 4, 2000},
  };
  // Both sides of every size threshold: 1024 B, the NACK stream's 16 KiB,
  // the FEC blast's fit in the receive buffer, the receive buffer itself
  // (a framed datagram must fit it) and the 512000 B datagram ceiling.
  const std::vector<std::size_t> sizes = {512,    2048,   16384,  24576,
                                          200000, 250000, 270000, 520000};

  Table table({"topology", "ranks", "bytes", "skew us", "seed", "loss",
               "auto", "auto us", "best", "best us", "auto/best"});
  bool payload_ok = true;
  const auto ratio_text = [](double ratio) {
    char text[16];
    std::snprintf(text, sizeof text, "%.3f", ratio);
    return std::string(text);
  };
  const auto sweep_point = [&](const Shape& s) {
    const Candidates c = candidates_of(s);
    const Run automatic = run_case(s, coll::kAuto, reps);
    payload_ok = payload_ok && automatic.payload_ok;
    std::string best;
    double best_us = 0;
    for (const std::string& algo : c.algos) {
      // kAuto's run is its pick's run: same algorithm, seed and skews.
      const Run run = algo == c.pick ? automatic : run_case(s, algo, reps);
      payload_ok = payload_ok && run.payload_ok;
      if (best.empty() || run.median_us < best_us) {
        best = algo;
        best_us = run.median_us;
      }
    }
    const double ratio = automatic.median_us / best_us;
    const std::string where =
        std::string(s.topo.name) + ", " + std::to_string(s.ranks) +
        " ranks, " + std::to_string(s.bytes) + " B, " +
        std::to_string(s.skew_us) + " us skew, seed " +
        std::to_string(s.seed);
    table.add_row({s.topo.name, std::to_string(s.ranks),
                   std::to_string(s.bytes), std::to_string(s.skew_us),
                   std::to_string(s.seed), s.loss > 0 ? "1%" : "0", c.pick,
                   Table::num(automatic.median_us), best,
                   Table::num(best_us), ratio_text(ratio)});
    if (s.loss > 0) {
      return;  // printed, not gated: the lossy rules are not on trial here
    }
    shape_check({.text = "kAuto (" + c.pick + ") <= 1.10x the best (" +
                         best + ") at " + where + " (" +
                         Table::num(automatic.median_us) + " vs " +
                         Table::num(best_us) + " us)",
                 .lhs = 1.10 * best_us,
                 .rhs = automatic.median_us});
  };

  for (const std::uint64_t seed : {2000, 2001}) {
    for (const Topology& topo : topologies) {
      for (const int ranks : {2, topo.hosts}) {
        for (const std::size_t bytes : sizes) {
          for (const int skew_us : {20, 1000}) {
            sweep_point({topo, ranks, bytes, skew_us, seed, 0.0});
          }
        }
      }
    }
  }
  // Lossy rows: one seed and skew, the payloads below the receive buffer.
  for (const Topology& topo : topologies) {
    for (const std::size_t bytes : {512, 2048}) {
      sweep_point({topo, topo.hosts, bytes, 20, 2000, 0.01});
    }
  }
  print_table("kAuto bcast vs the best registered bcast", table, options);
  shape_check(payload_ok, "every rank received the root's bytes at every "
                          "point, for every algorithm");

  // Open loop: the root of a NACK stream returns once it has sent, so
  // back-to-back bcasts from one root queue in the receivers' socket
  // buffers while ranks enter up to 1 ms apart.
  {
    const Shape s{topologies[3], 16, 16 * 1024, 1000, 2000, 0.0};
    constexpr int kBurst = 24;
    cluster::Cluster cluster(config_of(s));
    cluster::ExperimentConfig exp;
    exp.reps = reps;
    exp.max_skew = microseconds(s.skew_us);
    exp.rep_interval = milliseconds(200);
    std::vector<int> ok(16, 1);
    const auto result = cluster::measure_collective(
        cluster, exp, [&](mpi::Proc& p, int rep) {
          for (int i = 0; i < kBurst; ++i) {
            const auto tag = static_cast<std::uint64_t>(rep * kBurst + i + 1);
            Buffer data(s.bytes);
            if (p.rank() == 0) {
              data = pattern_payload(tag, s.bytes);
            }
            p.comm_world().coll().bcast(data, 0);
            if (data.size() != s.bytes || !check_pattern(tag, data)) {
              ok[static_cast<std::size_t>(p.rank())] = 0;
            }
          }
        });
    std::uint64_t drops = 0;
    for (int r = 0; r < 16; ++r) {
      drops += cluster.udp(r).stats().buffer_full_drops;
    }
    std::cout << "open loop: " << kBurst << " back-to-back kAuto bcasts of "
              << s.bytes << " B from rank 0, " << s.topo.name << ", "
              << s.skew_us << " us skew: median "
              << Table::num(result.latencies_us.median())
              << " us per burst, udp_buffer_full_drops " << drops << '\n';
    shape_check(std::all_of(ok.begin(), ok.end(),
                            [](int good) { return good != 0; }),
                "every rank received every bcast of the open-loop burst");
  }
  return claims_exit_code();
}
