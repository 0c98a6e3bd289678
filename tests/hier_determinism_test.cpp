// Determinism matrix for the hierarchical collectives and the resharded
// multi-segment simulator:
//
//   * worker counts {1, 2, 4} × {serial, parallel} driver × {fiber, thread}
//     backend produce BIT-IDENTICAL latencies and merged scheduler/frame
//     counters on 2- and 4-segment topologies — including hubs, whose
//     CSMA/CD backoffs now draw from per-device RNG streams, and the merged
//     SchedCounters, which are a pure function of the simulation now that
//     the cluster always creates one logical shard per segment;
//   * retransmit-style wait_until deadlines landing exactly on a
//     conservative window boundary fire at their exact simulated time under
//     both drivers (the satellite-3 boundary regression), charged wakes
//     crossing a boundary included.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "net/counters.hpp"
#include "sim/wait.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

// ------------------------------------------- window-boundary regression

/// What the boundary workload leaves behind: (label, wake time ns) pairs in
/// wake order, plus the merged scheduler counters.
struct BoundaryTrace {
  std::vector<std::pair<std::string, std::int64_t>> wakes;
  sim::SchedCounters sched;
  std::uint64_t events_scheduled = 0;

  bool operator==(const BoundaryTrace& other) const {
    return wakes == other.wakes &&
           sched.handoffs == other.sched.handoffs &&
           sched.coalesced_delays == other.sched.coalesced_delays &&
           sched.events_executed == other.sched.events_executed &&
           events_scheduled == other.events_scheduled;
  }
};

/// Two shards, 10 us lookahead.  Shard 1 keeps cross-shard traffic flowing
/// so shard 0's rounds really are clamped to lookahead-sized windows; on
/// shard 0, timed waits expire exactly ON window boundaries (10 us, 20 us)
/// and a charged wake straddles one (notify at 8 us + 4 us charge = 12 us).
BoundaryTrace run_boundary(sim::ShardDriver driver, unsigned workers) {
  BoundaryTrace trace;
  const SimTime lookahead = microseconds(10);
  sim::ShardingConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = lookahead;
  cfg.driver = driver;
  cfg.workers = workers;
  sim::Simulator sim(/*seed=*/3, sim::default_execution_backend(), cfg);

  // Shard 1: cross traffic in 2 us steps, far past the last deadline, so
  // every shard-0 window ends exactly at a multiple of the lookahead.
  sim.spawn_on(1, "ticker", [&sim](sim::SimProcess& self) {
    for (int i = 0; i < 30; ++i) {
      sim.schedule_cross(0, self.now() + microseconds(10), [] {});
      self.delay(microseconds(2));
    }
  });

  sim::WaitQueue never;          // nobody notifies: pure timeouts
  sim::WaitQueue charged_queue;  // notified with a wake charge
  bool charged_ready = false;

  sim.spawn_on(0, "timeout-on-boundary", [&](sim::SimProcess& self) {
    // Deadline exactly at one window boundary...
    EXPECT_FALSE(never.wait_until(self, microseconds(10)));
    trace.wakes.emplace_back("boundary-10us", self.now().count());
    // ...and exactly at the next (relative deadline hits t = 20 us).
    EXPECT_FALSE(never.wait_until(self, microseconds(20)));
    trace.wakes.emplace_back("boundary-20us", self.now().count());
  });

  sim.spawn_on(0, "charged-across-boundary", [&](sim::SimProcess& self) {
    const auto result = sim::wait_for_until_charged(
        self, charged_queue, /*deadline=*/microseconds(25),
        [&] { return charged_ready; }, [] { return microseconds(4); });
    EXPECT_TRUE(result.satisfied);
    EXPECT_TRUE(result.absorbed);
    trace.wakes.emplace_back("charged-12us", self.now().count());
  });

  sim.spawn_on(0, "notifier", [&](sim::SimProcess& self) {
    self.delay(microseconds(8));  // wake charge lands at 12 us — inside
    charged_ready = true;         // the round AFTER the 10 us boundary
    charged_queue.notify_one();
  });

  sim.run();
  trace.sched = sim.sched_counters();
  trace.events_scheduled = sim.events_scheduled();
  return trace;
}

TEST(WindowBoundary, TimersOnTheBoundaryFireAtTheirExactSimulatedTime) {
  const BoundaryTrace serial = run_boundary(sim::ShardDriver::kSerial, 1);
  // Wakes in virtual-time order: boundary-10us, charged-12us, boundary-20us.
  ASSERT_EQ(serial.wakes.size(), 3u);
  EXPECT_EQ(serial.wakes[0],
            (std::pair<std::string, std::int64_t>{"boundary-10us",
                                                  microseconds(10).count()}));
  EXPECT_EQ(serial.wakes[1],
            (std::pair<std::string, std::int64_t>{"charged-12us",
                                                  microseconds(12).count()}));
  EXPECT_EQ(serial.wakes[2],
            (std::pair<std::string, std::int64_t>{"boundary-20us",
                                                  microseconds(20).count()}));
}

TEST(WindowBoundary, BoundaryTimersAreIdenticalAcrossDriversAndWorkers) {
  const BoundaryTrace reference = run_boundary(sim::ShardDriver::kSerial, 1);
  for (const unsigned workers : {1u, 2u}) {
    const BoundaryTrace parallel =
        run_boundary(sim::ShardDriver::kParallel, workers);
    EXPECT_TRUE(reference == parallel)
        << "boundary wake divergence with " << workers << " workers";
  }
}

// ------------------------------------------------- hier workload matrix

/// Everything one hierarchical run leaves behind that the matrix compares.
struct Trace {
  std::vector<double> latencies_us;
  net::NetCounters net;
  sim::SchedCounters sched;
  std::uint64_t events_scheduled = 0;

  bool same_times(const Trace& other) const {
    return latencies_us == other.latencies_us;
  }
  bool same_counters(const Trace& other) const {
    return net.host_tx_frames == other.net.host_tx_frames &&
           net.host_tx_bytes == other.net.host_tx_bytes &&
           net.deliveries == other.net.deliveries &&
           net.collisions == other.net.collisions &&
           sched.handoffs == other.sched.handoffs &&
           sched.coalesced_delays == other.sched.coalesced_delays &&
           sched.batched_callbacks == other.sched.batched_callbacks &&
           sched.events_executed == other.sched.events_executed &&
           events_scheduled == other.events_scheduled;
  }
};

/// One hierarchical mixed-collective run: kAuto bcast/allreduce/barrier
/// under the default tuning table plus an explicit hier allgather,
/// over non-uniform per-pair trunk latencies (so the adaptive lookahead
/// matrix is actually in play).
Trace run_hier_workload(NetworkType network, int procs, int segments,
                        unsigned workers, sim::ShardDriver driver,
                        sim::ExecutionBackend backend =
                            sim::default_execution_backend()) {
  ClusterConfig config;
  config.network = network;
  config.num_procs = procs;
  config.num_segments = segments;
  config.sim_shards = workers;
  config.shard_driver = driver;
  config.sim_backend = backend;
  config.seed = 19;
  config.trunk_latency_of = [](int a, int b) {
    // Asymmetric mesh: the (0, 1) trunk is fast, pairs touching the last
    // segment are slow, everything else uses the uniform default.
    if (a == 0 && b == 1) {
      return microseconds(20);
    }
    return SimTime{};
  };
  if (procs > cluster::kMaxEagleHosts) {
    config.hosts = cluster::make_uniform_hosts(procs);
  }
  Cluster cluster(config);

  cluster::ExperimentConfig exp;
  exp.reps = 4;
  exp.warmup_reps = 1;
  constexpr std::size_t kBytes = 8192;
  const auto result = cluster::measure_collective(
      cluster, exp, [](mpi::Proc& p, int rep) {
        const mpi::Comm comm = p.comm_world();
        const int root = rep % comm.size();
        Buffer data(kBytes, 0);
        if (p.rank() == root) {
          data = pattern_payload(static_cast<std::uint64_t>(rep), kBytes);
        }
        comm.coll().bcast(data, root);  // kAuto -> nack-mcast
        EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(rep), data));

        const Buffer mine = pattern_payload(
            static_cast<std::uint64_t>(p.rank()) * 131 + 5, 2048);
        const Buffer agreed = comm.coll().allreduce(
            mine, mpi::Op::kBor, mpi::Datatype::kByte);  // kAuto -> hier
        EXPECT_EQ(agreed.size(), 2048u);

        const auto blocks =
            comm.coll().allgather(std::span<const std::uint8_t>(
                                      mine.data(), 512),
                                  "hier");
        EXPECT_EQ(blocks.size(), static_cast<std::size_t>(comm.size()));

        comm.coll().barrier();  // kAuto -> mcast
      });

  Trace trace;
  trace.latencies_us = result.latencies_us.values();
  trace.net = cluster.net_counters();
  trace.sched = cluster.simulator().sched_counters();
  trace.events_scheduled = cluster.simulator().events_scheduled();
  return trace;
}

struct MatrixCase {
  NetworkType network;
  int procs;
  int segments;
};

class HierMatrix : public ::testing::TestWithParam<MatrixCase> {};

INSTANTIATE_TEST_SUITE_P(
    Topologies, HierMatrix,
    ::testing::Values(MatrixCase{NetworkType::kSwitch, 8, 4},
                      MatrixCase{NetworkType::kSwitch, 7, 2},
                      MatrixCase{NetworkType::kHub, 6, 2},
                      MatrixCase{NetworkType::kHub, 8, 4}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      const MatrixCase& c = info.param;
      return cluster::to_string(c.network) + std::to_string(c.procs) + "p" +
             std::to_string(c.segments) + "seg";
    });

// The acceptance matrix: every worker count and both drivers produce the
// bit-identical run — latencies AND counters — on every topology,
// CSMA/CD hubs included (per-device backoff streams + one logical shard
// per segment make the schedule a pure function of the topology).
TEST_P(HierMatrix, WorkerCountAndDriverNeverChangeTheRun) {
  const MatrixCase& c = GetParam();
  const Trace reference = run_hier_workload(c.network, c.procs, c.segments, 1,
                                            sim::ShardDriver::kSerial);
  ASSERT_EQ(reference.latencies_us.size(), 4u);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const auto driver :
         {sim::ShardDriver::kSerial, sim::ShardDriver::kParallel}) {
      if (workers == 1 && driver == sim::ShardDriver::kSerial) {
        continue;  // the reference itself
      }
      const Trace run =
          run_hier_workload(c.network, c.procs, c.segments, workers, driver);
      EXPECT_TRUE(reference.same_times(run))
          << "latency divergence at " << workers << " workers, "
          << (driver == sim::ShardDriver::kSerial ? "serial" : "parallel");
      EXPECT_TRUE(reference.same_counters(run))
          << "counter divergence at " << workers << " workers, "
          << (driver == sim::ShardDriver::kSerial ? "serial" : "parallel");
    }
  }
}

TEST(HierMatrixCross, FiberAndThreadBackendsMatch) {
  const Trace fiber =
      run_hier_workload(NetworkType::kSwitch, 8, 4, 2,
                        sim::ShardDriver::kParallel,
                        sim::ExecutionBackend::kFiber);
  const Trace thread =
      run_hier_workload(NetworkType::kSwitch, 8, 4, 2,
                        sim::ShardDriver::kParallel,
                        sim::ExecutionBackend::kThread);
  EXPECT_TRUE(fiber.same_times(thread));
  EXPECT_TRUE(fiber.same_counters(thread));
}

// The merged SchedCounters of a fixed multi-segment run are pinned: any
// future change that makes them depend on shard layout (or silently alters
// the schedule) trips this before it can corrupt a committed baseline.
TEST(HierMatrixCross, MergedSchedCountersArePinned) {
  const Trace t = run_hier_workload(NetworkType::kSwitch, 8, 4, 4,
                                    sim::ShardDriver::kParallel);
  const Trace again = run_hier_workload(NetworkType::kSwitch, 8, 4, 2,
                                        sim::ShardDriver::kSerial);
  EXPECT_TRUE(t.same_counters(again));
  EXPECT_TRUE(t.same_times(again));
  // Exact pins (update deliberately, with the schedule change that owns
  // them): the values must be a pure function of the simulation.
  EXPECT_EQ(t.sched.events_executed, 4361u) << "PIN-events_executed";
  EXPECT_EQ(t.sched.handoffs, 538u) << "PIN-handoffs";
  EXPECT_EQ(t.events_scheduled, 4780u) << "PIN-events_scheduled";
}

}  // namespace
}  // namespace mcmpi
