#pragma once
/// \file workloads.hpp
/// The benchmark's four workloads, the schedules it generates for them from
/// the workload seed, and the closed-form result checks.
///
/// The program under test only ever sees generated inputs: cluster seeds,
/// payload patterns and the per-communicator arrival schedules below are
/// pure functions of (workload, seed), so two runs of one seed simulate the
/// same collectives bit for bit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"

namespace perfbench {

enum class Op : std::uint8_t {
  kBcast,
  kAllreduce,
  kAllgather,
  kReduce,
  kBarrier,
};
inline constexpr int kNumOps = 5;
const char* op_name(Op op);
mcmpi::coll::CollOp coll_op(Op op);

/// One scheduled collective of one communicator.
struct Item {
  std::int64_t at_ns = 0;  ///< scheduled start, offset from the pass base
  Op op = Op::kBcast;
  /// Payload bytes.  An allgather member contributes max(1, bytes / size).
  std::size_t bytes = 0;
  int root = 0;  ///< rank within the item's communicator
};

/// Per-member contribution of an allgather item (every op's bytes argument
/// for kAuto resolution goes through this too).
std::size_t call_bytes(const Item& item, int comm_size);

/// schedule[c] lists communicator c's items in the order they are called.
using Schedule = std::vector<std::vector<Item>>;

struct Workload {
  std::string name;
  int procs = 0;
  int segments = 1;
  mcmpi::cluster::NetworkType network = mcmpi::cluster::NetworkType::kHub;
  /// The paper's heterogeneous eagle machines (<= 9 hosts) instead of
  /// identical reference hosts.
  bool eagle_hosts = false;
  double trunk_us = 30.0;
  double link_loss = 0.0;
  mcmpi::sim::ShardDriver driver = mcmpi::sim::ShardDriver::kSerial;
  unsigned workers = 1;
  bool payload_pool = false;
  /// Ranks split into `comms` communicators by rank % comms (1 = the world).
  int comms = 1;
  /// Open loop: each communicator's arrivals are a Poisson stream; a rank
  /// enters at the arrival instant, or when its previous call returns if
  /// that is later.  Closed loop (the paper's §4 method): pre-agreed start
  /// instants spaced so the previous collective has finished, each rank
  /// entering after its own random skew.
  bool open_loop = false;
  int op_weight[kNumOps] = {};  ///< percent, indexed by Op
  std::size_t min_bytes = 0;
  std::size_t max_bytes = 0;
  bool log_sizes = false;  ///< log-uniform sizes, else uniform
  double gap_us = 0.0;     ///< open: mean Poisson gap; closed: base spacing
  double gap_ns_per_byte = 0.0;  ///< closed: extra spacing per payload byte
  int items_per_comm = 0;        ///< per pass
  /// Distinct schedules per run, one pass each.  Latencies and counts are
  /// pooled over one pass of each, so a run's tail percentiles rest on
  /// sub_seeds * comms * items_per_comm collectives.
  int sub_seeds = 0;

  mcmpi::cluster::ClusterConfig cluster_config(
      std::uint64_t seed, mcmpi::sim::ShardDriver shard_driver) const;
  /// The run's sub_seeds schedules.  Op counts are exact shares of
  /// op_weight, and sizes and Poisson gaps are stratified over all the
  /// run's items, so the run as a whole always samples the full mix.
  std::vector<Schedule> schedules(std::uint64_t seed) const;
  std::size_t items() const {
    return static_cast<std::size_t>(comms) *
           static_cast<std::size_t>(items_per_comm);
  }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// SplitMix64 finalizer over (a, b): derived seeds and pattern words.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Runs `item` through `coll` as communicator rank `me` of `size`, checks
/// this rank's result against its closed form, and returns whether it
/// matched.  `salt` names the item's payload patterns: bcast must equal the
/// root's pattern byte for byte, reduce/allreduce the byte-sum of every
/// member's pattern, allgather every member's own block.
bool execute(mcmpi::coll::Coll& coll, const Item& item, int me, int size,
             std::uint64_t salt);

}  // namespace perfbench
