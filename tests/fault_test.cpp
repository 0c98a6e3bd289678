// Fault-injection subsystem tests: MCMPI_FAULTS parsing, the determinism
// contract (one drop schedule per seed, bit-identical across shard counts,
// shard drivers and execution backends), recovery-protocol behavior under
// loss/duplication/reorder (the nack-mcast, ack-mcast and mcast-segmented
// presets of the stream engine), the
// loss-tolerant conformance sweep, background cross traffic and per-host
// speed skew.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "coll/mcast_stream.hpp"
#include "coll/registry.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;
using net::fault::FaultConfig;
using net::fault::FaultProfile;

// ------------------------------------------------------------- env syntax

TEST(FaultConfigParse, ParsesEveryKey) {
  const FaultConfig c = FaultConfig::parse(
      "loss=0.01,burst=0.02:0.25:0.5,dup=0.001,reorder=0.01,jitter_us=80,"
      "trunk_loss=0.02,seed=7,skew=0.1,xflows=4,xframes=100,xbytes=256,"
      "xinterval_us=300");
  EXPECT_DOUBLE_EQ(c.link.loss, 0.01);
  EXPECT_DOUBLE_EQ(c.link.ge_good_to_bad, 0.02);
  EXPECT_DOUBLE_EQ(c.link.ge_bad_to_good, 0.25);
  EXPECT_DOUBLE_EQ(c.link.ge_loss_bad, 0.5);
  EXPECT_DOUBLE_EQ(c.link.duplicate, 0.001);
  EXPECT_DOUBLE_EQ(c.link.reorder, 0.01);
  EXPECT_EQ(c.link.reorder_jitter, microseconds(80));
  EXPECT_DOUBLE_EQ(c.trunk.loss, 0.02);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.host_speed_skew, 0.1);
  EXPECT_EQ(c.cross_flows, 4);
  EXPECT_EQ(c.cross_frames, 100);
  EXPECT_EQ(c.cross_bytes, 256u);
  EXPECT_EQ(c.cross_interval, microseconds(300));
  EXPECT_TRUE(c.enabled());
  EXPECT_TRUE(c.lossy());
}

TEST(FaultConfigParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultConfig::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultConfig::parse("loss=abc"), std::invalid_argument);
  EXPECT_THROW((void)FaultConfig::parse("loss"), std::invalid_argument);
  EXPECT_THROW((void)FaultConfig::parse("burst=0.1:0.2"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultConfig::parse("loss=1.5"), std::invalid_argument);
}

TEST(FaultConfigParse, ErrorsNameThePairAndOffendingToken) {
  // MCMPI_FAULTS typos must be findable from the message alone: every
  // parse error names the pair (1-based position + text) and the token.
  const auto message = [](const std::string& spec) {
    try {
      (void)FaultConfig::parse(spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string bad_value = message("loss=0.1,dup=abc");
  EXPECT_NE(bad_value.find("pair 2 ('dup=abc')"), std::string::npos)
      << bad_value;
  EXPECT_NE(bad_value.find("offending token 'abc'"), std::string::npos)
      << bad_value;
  const std::string bad_key = message("loss=0.1,bogus=1");
  EXPECT_NE(bad_key.find("pair 2 ('bogus=1')"), std::string::npos) << bad_key;
  EXPECT_NE(bad_key.find("unknown key 'bogus'"), std::string::npos)
      << bad_key;
  const std::string bad_burst = message("burst=0.1:0.2");
  EXPECT_NE(bad_burst.find("pair 1 ('burst=0.1:0.2')"), std::string::npos)
      << bad_burst;
  EXPECT_NE(bad_burst.find("offending token '0.1:0.2'"), std::string::npos)
      << bad_burst;
  const std::string no_value = message("loss");
  EXPECT_NE(no_value.find("pair 1 ('loss')"), std::string::npos) << no_value;
  EXPECT_NE(no_value.find("expected key=value"), std::string::npos)
      << no_value;
}

TEST(FaultConfigParse, DisabledByDefaultAndDupAloneIsNotLossy) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  const FaultConfig dup = FaultConfig::parse("dup=0.1");
  EXPECT_TRUE(dup.enabled());
  EXPECT_FALSE(dup.lossy());  // duplication alone cannot lose payload
}

// ------------------------------------------------- determinism contract

struct FaultyRun {
  std::vector<Buffer> buffers;  // last bcast result per rank
  std::int64_t end_ns = 0;
  sim::SchedCounters sched;
};

/// An adversarial multi-segment workload: 8 ranks over 4 switched
/// segments, link loss + duplication + reorder plus trunk loss, three
/// broadcasts (two NACK-recovered multicasts, one reliable-p2p mpich).
FaultyRun run_faulty(unsigned shards, sim::ShardDriver driver,
                     sim::ExecutionBackend backend) {
  ClusterConfig config;
  config.num_procs = 8;
  config.num_segments = 4;
  config.network = NetworkType::kSwitch;
  config.seed = 77;
  config.sim_shards = shards;
  config.shard_driver = driver;
  config.sim_backend = backend;
  config.faults.link.loss = 0.02;
  config.faults.link.duplicate = 0.01;
  config.faults.link.reorder = 0.02;
  config.faults.trunk.loss = 0.01;
  Cluster cluster(config);

  FaultyRun run;
  run.buffers.resize(8);
  cluster.world().run([&](mpi::Proc& p) {
    for (int rep = 0; rep < 2; ++rep) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(5 + rep, 3000);
      }
      p.comm_world().coll().bcast(data, 0, "nack-mcast");
      run.buffers[static_cast<std::size_t>(p.rank())] = std::move(data);
    }
    Buffer data;
    if (p.rank() == 1) {
      data = pattern_payload(9, 2000);
    }
    p.comm_world().coll().bcast(data, 1, "mpich");
  });
  run.end_ns = cluster.simulator().now().count();
  run.sched = cluster.simulator().sched_counters();
  return run;
}

void expect_same_schedule(const FaultyRun& a, const FaultyRun& b,
                          const std::string& what) {
  EXPECT_EQ(a.end_ns, b.end_ns) << what;
  EXPECT_EQ(a.sched.frames_dropped, b.sched.frames_dropped) << what;
  EXPECT_EQ(a.sched.frames_duplicated, b.sched.frames_duplicated) << what;
  EXPECT_EQ(a.sched.frames_reordered, b.sched.frames_reordered) << what;
  EXPECT_EQ(a.sched.nacks_sent, b.sched.nacks_sent) << what;
  EXPECT_EQ(a.sched.nacks_suppressed, b.sched.nacks_suppressed) << what;
  EXPECT_EQ(a.sched.retransmits, b.sched.retransmits) << what;
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  for (std::size_t r = 0; r < a.buffers.size(); ++r) {
    EXPECT_EQ(a.buffers[r], b.buffers[r]) << what << ", rank " << r;
  }
}

TEST(FaultDeterminism, ScheduleIsIdenticalAcrossShardCountsAndDrivers) {
  const auto backend = sim::default_execution_backend();
  const FaultyRun reference =
      run_faulty(1, sim::ShardDriver::kSerial, backend);
  ASSERT_GT(reference.sched.frames_dropped, 0u);  // the workload is faulty
  for (unsigned shards : {1u, 2u, 4u}) {
    for (sim::ShardDriver driver :
         {sim::ShardDriver::kSerial, sim::ShardDriver::kParallel}) {
      if (shards == 1 && driver == sim::ShardDriver::kSerial) {
        continue;  // that is the reference itself
      }
      const FaultyRun run = run_faulty(shards, driver, backend);
      expect_same_schedule(
          reference, run,
          std::to_string(shards) + " shard(s), " +
              (driver == sim::ShardDriver::kSerial ? "serial" : "parallel") +
              " driver");
    }
  }
}

TEST(FaultDeterminism, ScheduleIsIdenticalAcrossExecutionBackends) {
  const FaultyRun fiber =
      run_faulty(2, sim::ShardDriver::kSerial, sim::ExecutionBackend::kFiber);
  const FaultyRun thread =
      run_faulty(2, sim::ShardDriver::kSerial, sim::ExecutionBackend::kThread);
  expect_same_schedule(fiber, thread, "fiber vs thread backend");
}

// ------------------------------------------------ recovery under faults

ClusterConfig faulty_config(int procs, NetworkType net,
                            const FaultProfile& link, std::uint64_t seed = 11) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = seed;
  config.faults.link = link;
  return config;
}

/// Runs one explicit-algorithm broadcast and checks every rank got the
/// root's exact bytes.
void check_bcast(Cluster& cluster, const std::string& algo,
                 std::size_t payload) {
  const int procs = cluster.num_procs();
  std::vector<int> ok(static_cast<std::size_t>(procs), 0);
  bool applicable = true;
  cluster.world().run([&](mpi::Proc& p) {
    // Registry applicability: the conformance sweeps cross every
    // loss-tolerant algorithm with every topology, and the hierarchical
    // entries reject single-segment clusters — skip those combinations.
    const coll::CollAlgorithm& a =
        coll::Registry::instance().get(coll::CollOp::kBcast, algo);
    if (a.applicable && !a.applicable(p.comm_world(), payload)) {
      applicable = false;  // same verdict on every rank
      return;
    }
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(99, payload);
    }
    p.comm_world().coll().bcast(data, 0, algo);
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == payload && check_pattern(99, data);
  });
  if (!applicable) {
    return;
  }
  for (int r = 0; r < procs; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << algo << ", rank " << r;
  }
}

TEST(NackMcast, RecoversAtOneAndFivePercentLoss) {
  for (NetworkType net : {NetworkType::kHub, NetworkType::kSwitch}) {
    for (double loss : {0.01, 0.05}) {
      Cluster cluster(faulty_config(9, net, FaultProfile{.loss = loss}));
      check_bcast(cluster, "nack-mcast", 4000);
      check_bcast(cluster, "nack-mcast", 4000);  // sequences continue
      EXPECT_GT(cluster.simulator().sched_counters().frames_dropped, 0u)
          << cluster::to_string(net) << " loss " << loss;
    }
  }
}

TEST(NackMcast, GapsDriveNacksAndRetransmissions) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  for (int i = 0; i < 4; ++i) {
    check_bcast(cluster, "nack-mcast", 4000);
  }
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.nacks_sent, 0u);
  EXPECT_GT(sched.retransmits, 0u);
}

TEST(NackMcast, TotalLossIsAHardErrorNotAHang) {
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 1.0}));
  EXPECT_THROW(
      cluster.world().run([&](mpi::Proc& p) {
        coll::StreamConfig cfg =
            coll::preset_config(coll::StreamPreset::kNack);
        cfg.timeout = milliseconds(1);
        cfg.max_retries = 3;
        coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kNack,
                                cfg);
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, 500);
        }
        p.comm_world().coll().bcast(data, 0, "nack-mcast");
      }),
      std::runtime_error);
}

// The sequencer is a point-to-point handoff to rank 0 in front of
// nack-mcast, so a non-zero root's broadcasts recover through the stream
// engine and its NACKs and re-multicasts land in the scheduler counters.
TEST(Sequencer, NonZeroRootRecoversAndCountsNacks) {
  constexpr int kProcs = 9;
  constexpr int kRoot = 2;
  constexpr std::size_t kBytes = 4000;
  Cluster cluster(
      faulty_config(kProcs, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  for (int i = 0; i < 4; ++i) {
    const auto seed = static_cast<std::uint64_t>(40 + i);
    std::vector<int> ok(kProcs, 0);
    cluster.world().run([&](mpi::Proc& p) {
      Buffer data;
      if (p.rank() == kRoot) {
        data = pattern_payload(seed, kBytes);
      }
      p.comm_world().coll().bcast(data, kRoot, "sequencer");
      ok[static_cast<std::size_t>(p.rank())] =
          data.size() == kBytes && check_pattern(seed, data);
    });
    for (int r = 0; r < kProcs; ++r) {
      EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "bcast " << i
                                                   << " rank " << r;
    }
  }
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.nacks_sent, 0u);
  EXPECT_GT(sched.retransmits, 0u);
}

TEST(Sequencer, TotalLossIsAHardErrorNotAHang) {
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 1.0}));
  try {
    cluster.world().run([&](mpi::Proc& p) {
      coll::StreamConfig cfg = coll::preset_config(coll::StreamPreset::kNack);
      cfg.timeout = milliseconds(1);
      cfg.max_retries = 3;
      coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kNack,
                              cfg);
      Buffer data;
      if (p.rank() == 1) {
        data = pattern_payload(1, 500);
      }
      p.comm_world().coll().bcast(data, 1, "sequencer");
    });
    FAIL() << "total loss must end in a hard error";
  } catch (const std::runtime_error& e) {
    // The error names the engine that gave up.
    EXPECT_NE(std::string(e.what()).find("nack-mcast"), std::string::npos)
        << e.what();
  }
}

TEST(NackMcast, BoundedHistoryOverflowIsAHardError) {
  // A fire-and-forget root racing three broadcasts past a one-frame
  // retransmission history: a receiver that lost frame 0 NACKs into a
  // history that has already evicted it, exhausts its retries, and must
  // get the documented hard error — never a silent hang.  The same racing
  // workload under an ample history recovers completely.
  const auto run_once = [](std::uint64_t seed, std::size_t history,
                           int max_retries) {
    Cluster cluster(faulty_config(5, NetworkType::kSwitch,
                                  FaultProfile{.loss = 0.4}, seed));
    cluster.world().run([&](mpi::Proc& p) {
      coll::StreamConfig cfg = coll::preset_config(coll::StreamPreset::kNack);
      cfg.history_frames = history;
      cfg.timeout = milliseconds(1);
      cfg.timeout_cap = milliseconds(8);
      cfg.max_retries = max_retries;
      coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kNack,
                              cfg);
      for (int i = 0; i < 3; ++i) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(40 + i, 2000);
        }
        p.comm_world().coll().bcast(data, 0, "nack-mcast");
        EXPECT_TRUE(check_pattern(40 + i, data)) << "rank " << p.rank();
      }
    });
  };
  bool overflowed = false;
  std::uint64_t bad_seed = 0;
  for (std::uint64_t seed = 1; seed <= 24 && !overflowed; ++seed) {
    try {
      run_once(seed, 1, 6);
    } catch (const std::runtime_error&) {
      overflowed = true;
      bad_seed = seed;
    }
  }
  EXPECT_TRUE(overflowed);  // 40% loss reliably outruns a 1-frame history
  run_once(bad_seed, 64, 50);  // ample history: same races, full recovery
}

/// Expects set_stream_config to reject `preset`'s defaults after `mutate`.
template <typename Mutate>
void expect_rejected(mpi::Proc& p, coll::StreamPreset preset, Mutate mutate) {
  coll::StreamConfig bad = coll::preset_config(preset);
  mutate(bad);
  EXPECT_THROW(coll::set_stream_config(p, p.comm_world(), preset, bad),
               std::invalid_argument);
}

TEST(NackMcast, RejectsOutOfRangeParams) {
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([&](mpi::Proc& p) {
    constexpr auto kNack = coll::StreamPreset::kNack;
    expect_rejected(p, kNack, [](auto& c) { c.timeout = kTimeZero; });
    expect_rejected(p, kNack, [](auto& c) { c.backoff = 0.5; });
    expect_rejected(p, kNack, [](auto& c) { c.max_retries = -1; });
  });
}

TEST(AckMcast, BackoffRecoversAtFivePercentLoss) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  std::uint64_t root_retransmissions = 0;
  cluster.world().run([&](mpi::Proc& p) {
    coll::StreamConfig cfg = coll::preset_config(coll::StreamPreset::kAck);
    cfg.timeout = milliseconds(2);
    cfg.backoff = 2.0;
    cfg.timeout_cap = milliseconds(80);
    cfg.max_retries = 100;
    coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kAck, cfg);
    for (int i = 0; i < 4; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(i, 4000);
      }
      p.comm_world().coll().bcast(data, 0, "ack-mcast");
      EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
    }
    if (p.rank() == 0) {
      root_retransmissions = coll::stream_stats(p, p.comm_world()).retransmits;
    }
  });
  EXPECT_GT(root_retransmissions, 0u);
  EXPECT_GT(cluster.simulator().sched_counters().retransmits, 0u);
}

TEST(AckMcast, RetryCapTurnsTotalLossIntoAnError) {
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 1.0}));
  EXPECT_THROW(
      cluster.world().run([&](mpi::Proc& p) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, 500);
        }
        coll::StreamConfig cfg = coll::preset_config(coll::StreamPreset::kAck);
        cfg.timeout = milliseconds(1);
        cfg.max_retries = 3;
        coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kAck,
                                cfg);
        p.comm_world().coll().bcast(data, 0, "ack-mcast");
      }),
      std::runtime_error);
}

TEST(AckMcast, RejectsOutOfRangeParams) {
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([&](mpi::Proc& p) {
    constexpr auto kAck = coll::StreamPreset::kAck;
    expect_rejected(p, kAck, [](auto& c) { c.timeout = kTimeZero; });
    expect_rejected(p, kAck, [](auto& c) { c.backoff = 0.9; });
    // Below the timeout.
    expect_rejected(p, kAck, [](auto& c) { c.timeout_cap = microseconds(1); });
  });
}

TEST(Segmented, PerChunkRecoveryUnderLoss) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.02}));
  const std::size_t payload = 48 * 1024;
  std::vector<int> ok(9, 0);
  cluster.world().run([&](mpi::Proc& p) {
    coll::StreamConfig config =
        coll::preset_config(coll::StreamPreset::kSegmented);
    config.chunk_bytes = 4096;
    config.k = 4;
    config.timeout = milliseconds(2);
    config.backoff = 2.0;
    config.timeout_cap = milliseconds(400);
    config.max_retries = 50;
    coll::set_stream_config(p, p.comm_world(), coll::StreamPreset::kSegmented,
                            config);
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(7, payload);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == payload && check_pattern(7, data);
  });
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.chunk_retried, 0u);
  EXPECT_GT(sched.retransmits, 0u);
}

TEST(FaultInjection, DuplicationIsTolerated) {
  Cluster cluster(faulty_config(9, NetworkType::kSwitch,
                                FaultProfile{.duplicate = 0.3}));
  check_bcast(cluster, "nack-mcast", 4000);
  check_bcast(cluster, "sequencer", 4000);
  EXPECT_GT(cluster.simulator().sched_counters().frames_duplicated, 0u);
}

TEST(FaultInjection, ReorderIsTolerated) {
  FaultProfile profile;
  profile.reorder = 0.3;
  profile.reorder_jitter = microseconds(100);
  Cluster cluster(faulty_config(9, NetworkType::kSwitch, profile));
  check_bcast(cluster, "nack-mcast", 4000);
  check_bcast(cluster, "mpich", 4000);
  EXPECT_GT(cluster.simulator().sched_counters().frames_reordered, 0u);
}

// -------------------------------------------------- conformance sweep

std::vector<std::string> loss_tolerant_bcasts() {
  std::vector<std::string> names;
  for (const coll::CollAlgorithm& algo : coll::Registry::instance().entries()) {
    if (algo.op == coll::CollOp::kBcast && algo.loss_tolerant) {
      names.push_back(algo.name);
    }
  }
  return names;
}

TEST(FaultConformance, EveryLossTolerantBcastDeliversUnderLoss) {
  const std::vector<std::string> algos = loss_tolerant_bcasts();
  ASSERT_GE(algos.size(), 5u);  // mpich, ack/nack-mcast, sequencer, ...
  struct Topo {
    NetworkType net;
    int segments;
  };
  const std::vector<Topo> topologies = {{NetworkType::kHub, 1},
                                        {NetworkType::kSwitch, 1},
                                        {NetworkType::kSwitch, 2}};
  for (const std::string& algo : algos) {
    for (const Topo& topo : topologies) {
      for (double loss : {0.01, 0.05}) {
        ClusterConfig config =
            faulty_config(6, topo.net, FaultProfile{.loss = loss});
        config.num_segments = topo.segments;
        if (topo.segments > 1) {
          config.faults.trunk.loss = loss;
        }
        Cluster cluster(config);
        check_bcast(cluster, algo, 2500);
      }
    }
  }
}

TEST(FaultConformance, AutoSelectionAvoidsLossIntolerantAlgorithms) {
  // On a lossy wire kAuto must not pick a recovery-free multicast (which
  // would deliver short or hang): the tuned pick completes and delivers.
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  std::vector<int> ok(9, 0);
  cluster.world().run([&](mpi::Proc& p) {
    EXPECT_TRUE(p.network_lossy());
    for (int i = 0; i < 3; ++i) {
      // kAuto requires equal-sized buffers on every rank (the matching
      // count rule) so all ranks resolve the same algorithm.
      Buffer data(2000);
      if (p.rank() == 0) {
        data = pattern_payload(i, 2000);
      }
      p.comm_world().coll().bcast(data, 0);  // kAuto
      ok[static_cast<std::size_t>(p.rank())] =
          data.size() == 2000u && check_pattern(i, data);
    }
  });
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// --------------------------------------- environment knobs and ambiance

TEST(FaultInjection, CrossTrafficLoadsTheWire) {
  ClusterConfig config = faulty_config(4, NetworkType::kSwitch, {});
  config.faults.cross_flows = 4;
  config.faults.cross_frames = 30;
  config.faults.cross_bytes = 512;
  config.faults.cross_interval = microseconds(200);
  Cluster cluster(config);
  cluster.world().run(
      [](mpi::Proc& p) { p.comm_world().coll().barrier("mpich"); });
  std::uint64_t stray = 0;
  for (int r = 0; r < 4; ++r) {
    stray += cluster.udp(r).stats().no_socket_drops;
  }
  // The flows aim at a port nobody listens on; their datagrams must have
  // arrived somewhere and been dropped there.
  EXPECT_GT(stray, 0u);
  EXPECT_EQ(cluster.fault_plane(), nullptr);  // pure load, no link faults
}

TEST(FaultInjection, SpeedSkewIsDeterministicPerSeed) {
  auto run_once = [](double skew) {
    ClusterConfig config = faulty_config(6, NetworkType::kSwitch, {});
    config.faults.host_speed_skew = skew;
    Cluster cluster(config);
    cluster.world().run(
        [](mpi::Proc& p) { p.comm_world().coll().barrier("mpich"); });
    return cluster.simulator().now().count();
  };
  const auto skewed = run_once(0.2);
  EXPECT_EQ(skewed, run_once(0.2));   // same seed, same heterogeneity
  EXPECT_NE(skewed, run_once(0.0));   // skew actually changes timing
}

TEST(FaultEnv, ClusterPicksUpEnvironmentProfile) {
  if (std::getenv("MCMPI_FAULTS") == nullptr) {
    GTEST_SKIP() << "MCMPI_FAULTS not set (run via the fault_env_lane "
                    "CTest entry)";
  }
  // Plain config, no explicit faults: the cluster must adopt the env
  // profile, flag the network lossy, and recovery must still deliver.
  ClusterConfig config;
  config.num_procs = 6;
  config.network = NetworkType::kSwitch;
  config.seed = 3;
  Cluster cluster(config);
  ASSERT_NE(cluster.fault_plane(), nullptr);
  // Enough frames on the wire that the lane's 2% loss profile is
  // guaranteed to fire for this (deterministic) seed.
  for (int i = 0; i < 4; ++i) {
    check_bcast(cluster, "nack-mcast", 16000);
  }
  EXPECT_GT(cluster.simulator().sched_counters().frames_dropped, 0u);
}

}  // namespace
}  // namespace mcmpi
