#pragma once
/// \file pass.hpp
/// One pass: a fresh Cluster, one schedule run through World::run, every
/// result checked, and each layer's public counters read around the run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Counter deltas of one pass, keyed "<layer>.<counter>".  Holds more
/// counters than the metrics use: every one of them feeds the pass
/// fingerprint, so the determinism check covers them all.
using Counters = std::map<std::string, std::uint64_t>;

/// One span at a layer boundary.  Simulated times are virtual nanoseconds
/// (-1 when the span has no simulated extent); host times are steady-clock
/// nanoseconds since the benchmark started.
struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t coll = -1;  ///< collective id (pass-local item index)
  int rank = -1;
  std::int64_t sim_start = -1;
  std::int64_t sim_end = -1;
  std::int64_t host_start = 0;
  std::int64_t host_end = 0;
};

struct PassResult {
  double setup_s = 0.0;  ///< Cluster construction wall time
  double wall_s = 0.0;   ///< World::run wall time
  std::string error;     ///< what aborted the run (empty when it finished)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Completion latency of each successful collective: scheduled start to
  /// the last member's return, in simulated microseconds.  [0] holds the
  /// first half of each communicator's items, [1] the second half.
  std::vector<double> latency_us[2];
  /// Collectives whose scheduled start found a member still busy.
  std::size_t late_starts = 0;
  std::uint64_t payload_bytes = 0;  ///< user payload bytes moved
  Counters counters;
  /// Hash of every latency and counter: must repeat for a repeated schedule.
  std::uint64_t fingerprint = 0;

  // Filled only by traced passes.
  std::vector<Span> spans;
  std::map<std::string, std::uint64_t> algo_counts;  ///< kAuto pick per item
  std::vector<double> service_us[kNumOps];  ///< rank entry -> last exit
  std::vector<double> finish_skew_us;       ///< last - first member exit
  std::vector<double> queue_wait_us;        ///< scheduled start -> rank entry
};

/// Host nanoseconds since the benchmark started (the trace's time base).
std::int64_t host_now_ns();

/// Linear-interpolated percentile (p in [0, 100]); 0 for no values.
double percentile(std::vector<double> values, double p);

/// Runs `schedule` on a fresh cluster for (workload, cluster_seed) under
/// `driver`.  Never throws for a failing collective: exceptions (protocol
/// hard errors, DeadlockError) end the run and count every collective that
/// had not completed correctly on all members as failed.
PassResult run_pass(const Workload& workload, const Schedule& schedule,
                    std::uint64_t cluster_seed, mcmpi::sim::ShardDriver driver,
                    bool traced);

}  // namespace perfbench
