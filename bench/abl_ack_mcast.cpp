// Ablation: the paper's §2 comparison of reliability strategies.
//
//   scout-binary / scout-linear — readiness is guaranteed *before* the data
//       is sent (the paper's contribution);
//   ack-mcast — ORNL/PVM style: send first, retransmit whole payloads until
//       everyone ACKs ("did not produce improvement in performance");
//   sequencer — Orca-style ordered multicast with NACK recovery (related
//       work; wins in steady state, pays on cold starts).
//
// Two experiments: (a) a well-synchronized broadcast sweep, (b) the same
// broadcast with one receiver entering `--stagger_us` late — the case that
// makes the ACK protocol retransmit full payloads while scouts just wait.
#include "coll/mcast_stream.hpp"
#include "coll/sequencer.hpp"

#include <map>

#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;

struct AblationResult {
  double median_us = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t retransmissions = 0;
};

AblationResult run_case(const std::string& algo, int procs, int payload,
                        SimTime stagger, int reps, std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = seed;
  cluster::Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = reps;
  // Give retransmission timers room: laggard + protocol recovery per rep.
  exp.rep_interval = milliseconds(80);
  std::uint64_t retransmissions = 0;
  const auto result = cluster::measure_collective(
      cluster, exp,
      [&algo, payload, stagger, procs, &retransmissions](mpi::Proc& p, int) {
        if (p.rank() == procs - 1 && stagger > kTimeZero) {
          p.self().delay(stagger);  // the laggard
        }
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, static_cast<std::size_t>(payload));
        }
        p.comm_world().coll().bcast(data, 0, algo);
        if (algo == "ack-mcast" && p.rank() == 0) {
          retransmissions = coll::stream_stats(p, p.comm_world()).retransmits;
        }
      });
  return AblationResult{result.latencies_us.median(),
                        result.net_delta.host_tx_data_frames, retransmissions};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  Flags flags(argc, argv);
  const auto reps = static_cast<int>(flags.get_int("reps", 15, "reps/point"));
  const auto seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 2000, "simulation seed"));
  // Default lateness exceeds the ACK protocol's 5 ms retransmit timeout, so
  // the root re-multicasts full payloads every repetition.
  const auto stagger_us = flags.get_int(
      "stagger_us", 8000, "how late the slow receiver enters (microseconds)");
  const bool csv = flags.get_bool("csv", false, "emit CSV");
  if (flags.help_requested()) {
    std::cout << flags.usage("Ablation: scout vs ACK vs sequencer multicast");
    return 0;
  }
  flags.check_unknown();
  BenchOptions options;
  options.reps = reps;
  options.seed = seed;
  options.csv = csv;

  constexpr int kProcs = 6;
  // Every registered multicast-based broadcast (the reliability-strategy
  // design space); the point-to-point baselines are outside this ablation,
  // and the hierarchical entries need more than this one switch segment.
  std::vector<std::string> algos;
  for (const std::string& name : registry_bcast_algos()) {
    if (name != "mpich" && name != "scatter-allgather" &&
        name.rfind("hier", 0) != 0) {
      algos.push_back(name);
    }
  }

  // (a) synchronized broadcasts.
  Table sync_table({"algorithm", "bytes", "median us", "data frames/rep"});
  std::map<std::string, double> sync_median_at_2k;
  for (const std::string& algo : algos) {
    for (int payload : {0, 2000, 5000}) {
      const auto r =
          run_case(algo, kProcs, payload, kTimeZero, reps, seed);
      if (payload == 2000) {
        sync_median_at_2k[algo] = r.median_us;
      }
      sync_table.add_row({algo, std::to_string(payload),
                          Table::num(r.median_us),
                          Table::num(static_cast<double>(r.data_frames) /
                                     reps)});
    }
  }
  print_table("Ablation (a): synchronized broadcast, 6 procs, switch",
              sync_table, options);

  // (b) one late receiver.
  Table late_table(
      {"algorithm", "median us", "data frames/rep", "ack retransmissions"});
  std::map<std::string, AblationResult> late;
  for (const std::string& algo : algos) {
    const auto r = run_case(algo, kProcs, 2000, microseconds(stagger_us),
                            reps, seed);
    late[algo] = r;
    late_table.add_row({algo, Table::num(r.median_us),
                        Table::num(static_cast<double>(r.data_frames) / reps),
                        algo == "ack-mcast" ? std::to_string(r.retransmissions)
                                            : "-"});
  }
  print_table("Ablation (b): same broadcast, one receiver " +
                  std::to_string(stagger_us) + " us late",
              late_table, options);

  shape_check(
      sync_median_at_2k["ack-mcast"] > sync_median_at_2k["mcast-linear"] * 0.8,
      "ACK-multicast does not beat scouts even when synchronized (the "
      "ORNL result)");
  shape_check(sync_median_at_2k["sequencer"] <
                  sync_median_at_2k["mcast-binary"],
              "sequencer wins in steady state (no per-bcast readiness "
              "handshake)");
  shape_check(late["ack-mcast"].retransmissions >=
                  static_cast<std::uint64_t>(reps),
              "the late receiver forces the ACK protocol to re-multicast "
              "every repetition");
  shape_check(static_cast<double>(late["ack-mcast"].data_frames) >=
                  1.8 * static_cast<double>(late["mcast-binary"].data_frames),
              "ACK-multicast burns ~2x the payload bandwidth of scouts when "
              "a receiver lags (scouts wait; it retransmits)");
  return 0;
}
