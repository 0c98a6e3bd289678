// Ablation: the paper's §5 concern, measured — "While we have not observed
// buffer overflow due to a set of fast senders overrunning a single
// receiver, it is possible this may occur in many-to-many communications
// and needs to be examined further."
//
// We examine it.  An 8-rank multicast allgather runs in two pacings:
// lockstep (one sender at a time — readiness implied, never loses) and
// blast (all senders at once — fast, but N-1 blocks converge on each
// receiver's socket buffer).  Sweeping the receive buffer size maps exactly
// where blast starts dropping blocks, while lockstep stays lossless at any
// buffer size, at a quantifiable latency premium.
#include "bench_util.hpp"
#include "common/bytes.hpp"

namespace {

using namespace mcmpi;

struct OverrunPoint {
  double median_us = 0;
  double missing_per_op = 0;  // blocks lost per operation, worst rank
  std::uint64_t drops = 0;    // UDP buffer-full drops over the run
};

OverrunPoint run_allgather(const std::string& algo, int procs, int block,
                           std::size_t rcvbuf, int reps, std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  config.seed = seed;
  config.mcast_rcvbuf_bytes = rcvbuf;
  cluster::Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = reps;
  exp.rep_interval = milliseconds(80);

  std::vector<std::int64_t> missing(static_cast<std::size_t>(procs), 0);
  const auto result = cluster::measure_collective(
      cluster, exp, [&algo, block, &missing](mpi::Proc& p, int) {
        const Buffer mine = pattern_payload(
            static_cast<std::uint64_t>(p.rank()),
            static_cast<std::size_t>(block));
        const auto blocks = p.comm_world().coll().allgather(mine, algo);
        // A lossy pacing leaves blocks it never received empty.
        for (const Buffer& b : blocks) {
          if (b.empty()) {
            ++missing[static_cast<std::size_t>(p.rank())];
          }
        }
      });

  std::int64_t worst = 0;
  for (std::int64_t m : missing) {
    worst = std::max(worst, m);
  }
  std::uint64_t drops = 0;
  for (int r = 0; r < procs; ++r) {
    drops += cluster.udp(r).stats().buffer_full_drops;
  }
  const int total_ops = reps + exp.warmup_reps;
  return OverrunPoint{result.latencies_us.median(),
                      static_cast<double>(worst) / total_ops, drops};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmpi;
  using namespace mcmpi::bench;
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Ablation — many-to-many overrun: blast vs lockstep allgather vs "
      "receive-buffer size");

  // Small blocks arrive every ~50 us of wire time but cost the receiver
  // ~200 us each to process — the receiver falls behind and the socket
  // buffer must absorb the difference.  (Big blocks cannot overrun: the
  // wire paces them slower than the receiver drains them.)  Buffers below
  // one datagram would starve even lockstep, so the sweep starts at 1 KiB.
  constexpr int kProcs = 8;
  constexpr int kBlock = 512;
  const std::vector<std::size_t> buffers = {1024, 2048, 4096, 65536};

  Table table({"rcvbuf bytes", "blast us", "blast missing/op", "udp drops",
               "lockstep us", "lockstep missing/op"});
  bool lockstep_always_clean = true;
  bool blast_drops_when_small = false;
  bool blast_clean_when_large = false;
  double blast_large_us = 0;
  double lockstep_large_us = 0;

  for (std::size_t rcvbuf : buffers) {
    const auto blast = run_allgather("mcast-blast", kProcs, kBlock, rcvbuf,
                                     options.reps, options.seed);
    const auto lockstep = run_allgather("mcast-lockstep", kProcs, kBlock,
                                        rcvbuf, options.reps, options.seed);
    lockstep_always_clean =
        lockstep_always_clean && lockstep.missing_per_op == 0;
    if (rcvbuf <= 2048 && blast.missing_per_op > 0) {
      blast_drops_when_small = true;
    }
    if (rcvbuf == 65536) {
      blast_clean_when_large = blast.missing_per_op == 0;
      blast_large_us = blast.median_us;
      lockstep_large_us = lockstep.median_us;
    }
    table.add_row({std::to_string(rcvbuf), Table::num(blast.median_us),
                   Table::num(blast.missing_per_op),
                   std::to_string(blast.drops), Table::num(lockstep.median_us),
                   Table::num(lockstep.missing_per_op)});
  }
  print_table("Many-to-many allgather, 8 procs x 512 B blocks, switch",
              table, options);

  shape_check(blast_drops_when_small,
              "blast pacing loses blocks once the receive buffer is small — "
              "the paper's overrun hazard is real");
  shape_check(lockstep_always_clean,
              "lockstep pacing never loses a block at any buffer size");
  shape_check(blast_clean_when_large,
              "a large receive buffer absorbs the blast (why the paper "
              "never observed the overrun)");
  shape_check(blast_clean_when_large && blast_large_us < lockstep_large_us,
              "when it survives, blast is faster than lockstep (" +
                  Table::num(blast_large_us) + " vs " +
                  Table::num(lockstep_large_us) + " us)");
  return claims_exit_code();
}
