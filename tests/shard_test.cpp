// Sharded-simulator oracle tests.
//
// The determinism contract of the sharded simulator (docs/ARCHITECTURE.md,
// "Sharded parallel simulation"):
//
//   1. The parallel driver (worker threads + conservative window barriers)
//      is BIT-IDENTICAL to the serial reference driver at every shard
//      count: same per-repetition latencies, same merged scheduler
//      counters, same frame counters.
//   2. A topology whose work lands on one shard (every single-segment
//      cluster, whatever the shard count) is bit-identical to the classic
//      unsharded simulator, counters included.
//   3. Simulated timestamps AND counters are independent of the configured
//      shard count on every medium: the cluster always creates one logical
//      shard per segment (sim_shards only sets the worker count the
//      parallel driver multiplexes them onto), and CSMA/CD backoffs draw
//      from per-device RNG streams, so hubs are covered too.
//
// Plus bridge-level behaviour: unicast routing, multicast flooding, split
// horizon, and the trunk latency floor.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "net/bridge.hpp"
#include "net/counters.hpp"
#include "net/nic.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

/// Everything one simulation run leaves behind that the oracle compares.
struct Trace {
  std::vector<double> latencies_us;  // per measured repetition
  net::NetCounters net;              // summed over segments
  sim::SchedCounters sched;          // merged over shards
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

/// A small mixed-collective workload: bcast + allreduce + barrier per rep.
Trace run_workload(NetworkType network, int procs, int segments,
                   unsigned shards, sim::ShardDriver driver,
                   int payload_bytes = 2048,
                   sim::ExecutionBackend backend =
                       sim::default_execution_backend()) {
  ClusterConfig config;
  config.network = network;
  config.num_procs = procs;
  config.num_segments = segments;
  config.sim_shards = shards;
  config.shard_driver = driver;
  config.sim_backend = backend;
  config.seed = 7;
  if (procs > cluster::kMaxEagleHosts) {
    config.hosts = cluster::make_uniform_hosts(procs);
  }
  Cluster cluster(config);

  cluster::ExperimentConfig exp;
  exp.reps = 4;
  exp.warmup_reps = 1;
  const auto bytes = static_cast<std::size_t>(payload_bytes);
  const auto result = cluster::measure_collective(
      cluster, exp, [bytes](mpi::Proc& p, int rep) {
        const mpi::Comm comm = p.comm_world();
        Buffer data(bytes, 0);
        if (p.rank() == rep % comm.size()) {
          data = pattern_payload(static_cast<std::uint64_t>(rep), bytes);
        }
        comm.coll().bcast(data, rep % comm.size(), "mcast-binary");
        EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(rep), data));

        const Buffer mine = pattern_payload(
            static_cast<std::uint64_t>(p.rank()) * 131 + 5, 256);
        const Buffer sum = comm.coll().allreduce(mine, mpi::Op::kBor,
                                                 mpi::Datatype::kByte);
        EXPECT_EQ(sum.size(), 256u);

        comm.coll().barrier("mpich");
      });

  Trace trace;
  trace.latencies_us = result.latencies_us.values();
  trace.net = cluster.net_counters();
  trace.sched = cluster.simulator().sched_counters();
  trace.events_scheduled = cluster.simulator().events_scheduled();
  return trace;
}

// ----------------------------------------------------------------- bridges

TEST(Bridge, UnicastCrossesTheTrunkIntact) {
  ClusterConfig config;
  config.network = NetworkType::kSwitch;
  config.num_procs = 4;
  config.num_segments = 2;
  config.sim_shards = 1;
  Cluster cluster(config);
  ASSERT_EQ(cluster.segment_of_rank(0), 0);
  ASSERT_EQ(cluster.segment_of_rank(3), 1);

  Buffer received;
  SimTime sent_at{}, got_at{};
  cluster.world().run([&](mpi::Proc& p) {
    const Buffer payload = pattern_payload(42, 900);
    if (p.rank() == 0) {
      sent_at = p.self().now();
      p.send(p.comm_world(), 3, 77, payload);
    } else if (p.rank() == 3) {
      received = p.recv(p.comm_world(), 0, 77);
      got_at = p.self().now();
    }
  });
  EXPECT_TRUE(check_pattern(42, received));
  EXPECT_EQ(received.size(), 900u);
  // The one-way path must include at least one trunk hop.
  EXPECT_GE(got_at - sent_at, cluster.config().trunk_latency);
  // Exactly one trunk joins two segments, and it forwarded in both
  // directions (eager data one way, transport ack back).
  ASSERT_EQ(cluster.bridges().size(), 1u);
  EXPECT_GT(cluster.bridges().front()->forwarded_frames(), 0u);
}

TEST(Bridge, MulticastFloodsEverySegmentOnce) {
  ClusterConfig config;
  config.network = NetworkType::kSwitch;
  config.num_procs = 6;
  config.num_segments = 3;
  config.sim_shards = 1;
  Cluster cluster(config);
  ASSERT_EQ(cluster.bridges().size(), 3u);  // full mesh over 3 segments

  int delivered = 0;
  cluster.world().run([&](mpi::Proc& p) {
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(9, 4000);
    } else {
      data.resize(4000);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-linear");
    EXPECT_TRUE(check_pattern(9, data));
    ++delivered;
  });
  EXPECT_EQ(delivered, 6);
  // Split horizon: the multicast data crossed each of the two trunks off
  // segment 0 exactly once per frame; the trunk joining segments 1 and 2
  // never re-forwarded it (scout unicasts and the payload all originate
  // elsewhere... it still carries scouts towards the root's segment).
  const net::NetCounters total = cluster.net_counters();
  EXPECT_EQ(total.queue_drops, 0u);
}

TEST(Bridge, LocalTrafficStaysOffTheTrunk) {
  ClusterConfig config;
  config.network = NetworkType::kSwitch;
  config.num_procs = 4;
  config.num_segments = 2;
  config.sim_shards = 1;
  Cluster cluster(config);

  // Ranks 0 and 1 share segment 0: their exchange must not be forwarded.
  cluster.world().run([&](mpi::Proc& p) {
    if (p.rank() == 0) {
      p.send(p.comm_world(), 1, 5, pattern_payload(1, 64));
    } else if (p.rank() == 1) {
      (void)p.recv(p.comm_world(), 0, 5);
    }
  });
  EXPECT_EQ(cluster.bridges().front()->forwarded_frames(), 0u);
}

TEST(Bridge, SameShardTrunkReturnsPooledPayloadsAtOnce) {
  // A trunk whose two ports share a shard hands nothing to another shard:
  // a pooled payload that crossed it is reusable as soon as it dies.  The
  // one-shard loop drains remote returns only when a run starts, so a
  // buffer parked there would stay leased for the rest of the run and
  // every crossed frame would allocate afresh.
  sim::ShardingConfig sharding;
  sharding.payload_pool = true;
  sim::Simulator sim(1, sim::default_execution_backend(), sharding);
  ASSERT_EQ(sim.num_shards(), 1u);
  net::Switch seg0(sim);
  net::Switch seg1(sim);
  net::Nic sender(sim, net::MacAddr::host(1), "h1");
  sender.set_segment(0);
  sender.attach_to(seg0);
  net::Nic receiver(sim, net::MacAddr::host(2), "h2");
  receiver.set_segment(1);
  receiver.attach_to(seg1);
  int received = 0;
  receiver.set_rx_handler([&received](const net::Frame&) { ++received; });
  const net::Bridge bridge(
      sim, {&seg0, 0, 0, net::MacAddr::host(0xB0000000u), "trunk/seg0"},
      {&seg1, 1, 0, net::MacAddr::host(0xB0000001u), "trunk/seg1"},
      microseconds(100), [](net::MacAddr mac) {
        return mac == net::MacAddr::host(1)   ? 0
               : mac == net::MacAddr::host(2) ? 1
                                              : -1;
      });
  const PayloadPool& pool = *sim.shard(0).payload_pool();
  // Sends `frames` frames 1 ms apart, each one crossing the trunk alone,
  // in one run; returns the run's pool misses.
  const auto misses_of_run = [&](int frames) {
    const std::uint64_t before = pool.misses();
    for (int k = 0; k < frames; ++k) {
      sim.schedule_after(milliseconds(k + 1), [&sender, k] {
        net::Frame frame;
        frame.dst = net::MacAddr::host(2);
        frame.payload = PayloadRef::copy_of(
            pattern_payload(static_cast<std::uint64_t>(k), 1000));
        sender.send(frame);
      });
    }
    sim.run();
    return pool.misses() - before;
  };
  const std::uint64_t short_run = misses_of_run(4);
  const std::uint64_t long_run = misses_of_run(64);
  EXPECT_EQ(received, 68);
  EXPECT_EQ(bridge.forwarded_frames(), 68u);
  EXPECT_LE(long_run, short_run);
}

// ---------------------------------------------------------- driver oracle

struct OracleCase {
  NetworkType network;
  int procs;
  int segments;
};

class ShardOracle : public ::testing::TestWithParam<OracleCase> {};

INSTANTIATE_TEST_SUITE_P(
    Topologies, ShardOracle,
    ::testing::Values(OracleCase{NetworkType::kHub, 5, 1},
                      OracleCase{NetworkType::kSwitch, 6, 1},
                      OracleCase{NetworkType::kSwitch, 6, 2},
                      OracleCase{NetworkType::kHub, 6, 2}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      const OracleCase& c = info.param;
      return cluster::to_string(c.network) + std::to_string(c.procs) + "p" +
             std::to_string(c.segments) + "seg";
    });

// Contract 1: serial and parallel drivers are bit-identical at every shard
// count — latencies, scheduler counters, frame counters, event totals.
TEST_P(ShardOracle, ParallelDriverMatchesSerialReference) {
  const OracleCase& c = GetParam();
  for (unsigned shards : {1u, 2u, 4u}) {
    const Trace serial = run_workload(c.network, c.procs, c.segments, shards,
                                      sim::ShardDriver::kSerial);
    const Trace parallel = run_workload(c.network, c.procs, c.segments,
                                        shards, sim::ShardDriver::kParallel);
    EXPECT_TRUE(serial.same_times(parallel))
        << "latency divergence at " << shards << " shards";
    EXPECT_TRUE(serial.same_counters(parallel))
        << "counter divergence at " << shards << " shards";
    ASSERT_EQ(serial.latencies_us.size(), 4u);
  }
}

// Contract 2: on a single-segment topology every shard count collapses to
// the classic unsharded run — bit-identical counters included.
TEST_P(ShardOracle, SingleSegmentIsUnshardedWhateverTheShardCount) {
  const OracleCase& c = GetParam();
  if (c.segments != 1) {
    GTEST_SKIP() << "single-segment contract";
  }
  const Trace classic = run_workload(c.network, c.procs, 1, 1,
                                     sim::ShardDriver::kSerial);
  for (unsigned shards : {2u, 4u}) {
    for (const auto driver :
         {sim::ShardDriver::kSerial, sim::ShardDriver::kParallel}) {
      const Trace sharded =
          run_workload(c.network, c.procs, 1, shards, driver);
      EXPECT_TRUE(classic.same_times(sharded));
      EXPECT_TRUE(classic.same_counters(sharded));
    }
  }
}

// Contract 3: the configured shard count never changes the run — the
// cluster keeps one logical shard per segment regardless, so timestamps
// AND every counter are bit-identical whether the windows run on one
// worker or many.
TEST(ShardOracleCross, SwitchTimestampsIndependentOfShardCount) {
  const Trace one = run_workload(NetworkType::kSwitch, 6, 2, 1,
                                 sim::ShardDriver::kSerial);
  for (unsigned shards : {2u, 4u}) {
    const Trace sharded = run_workload(NetworkType::kSwitch, 6, 2, shards,
                                       sim::ShardDriver::kParallel);
    EXPECT_TRUE(one.same_times(sharded))
        << "simulated latencies changed at " << shards << " shards";
    EXPECT_TRUE(one.same_counters(sharded))
        << "counters changed at " << shards << " shards";
  }
}

// Contract 3 on a hub: CSMA/CD backoffs draw from per-device splitmix64
// streams keyed by device id, not from whichever shard owns the segment,
// so the collision schedule survives resharding bit-for-bit too.
TEST(ShardOracleCross, HubBackoffsIndependentOfShardCount) {
  const Trace one = run_workload(NetworkType::kHub, 6, 2, 1,
                                 sim::ShardDriver::kSerial);
  EXPECT_GT(one.net.collisions, 0u)
      << "workload never collided: the contract is vacuous on this topology";
  for (unsigned shards : {2u, 4u}) {
    const Trace sharded = run_workload(NetworkType::kHub, 6, 2, shards,
                                       sim::ShardDriver::kParallel);
    EXPECT_TRUE(one.same_times(sharded))
        << "simulated latencies changed at " << shards << " shards";
    EXPECT_TRUE(one.same_counters(sharded))
        << "counters changed at " << shards << " shards";
  }
}

// The execution backends (fibers vs the thread-per-process oracle) must
// stay bit-identical under sharding too — including with worker threads
// resuming thread-backend contexts across shards.
TEST(ShardOracleCross, FiberAndThreadBackendsMatchWhenSharded) {
  const Trace fiber =
      run_workload(NetworkType::kSwitch, 6, 2, 2, sim::ShardDriver::kParallel,
                   2048, sim::ExecutionBackend::kFiber);
  const Trace thread =
      run_workload(NetworkType::kSwitch, 6, 2, 2, sim::ShardDriver::kParallel,
                   2048, sim::ExecutionBackend::kThread);
  EXPECT_TRUE(fiber.same_times(thread));
  EXPECT_TRUE(fiber.same_counters(thread));
}

// A ≥16-rank four-segment sweep shape — the bench_shard_scaling topology —
// stays deterministic under the parallel driver.
TEST(ShardOracleCross, SixteenRankFourSegmentSweepIsDeterministic) {
  const Trace a = run_workload(NetworkType::kSwitch, 16, 4, 4,
                               sim::ShardDriver::kParallel, 8192);
  const Trace b = run_workload(NetworkType::kSwitch, 16, 4, 4,
                               sim::ShardDriver::kParallel, 8192);
  EXPECT_TRUE(a.same_times(b));
  EXPECT_TRUE(a.same_counters(b));
  const Trace serial = run_workload(NetworkType::kSwitch, 16, 4, 4,
                                    sim::ShardDriver::kSerial, 8192);
  EXPECT_TRUE(a.same_times(serial));
  EXPECT_TRUE(a.same_counters(serial));
}

}  // namespace
}  // namespace mcmpi
