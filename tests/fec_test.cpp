// Reliable-multicast stream engine tests (coll/mcast_stream.hpp): GF(256)
// algebra (inverses, the all-ones XOR row, any-k-subset invertibility of
// the stacked generator), randomized encode/erase/decode round-trips with
// ragged tails, stream geometry (below k frames of payload, one chunk per
// frame it fills) and config validation, ONE conformance
// matrix against mpich over every preset (ack-mcast, nack-mcast, fec-mcast,
// mcast-segmented) x topologies x loss modes x sizes x roots, the adaptive
// parity ratchet (and that it reads only evidence the root can see), the
// NACK fallback and its hard-error cap, a small payload's frame count and
// latency against nack-mcast, the presets' separate
// retransmission histories, lossy-gated auto-selection, parity
// generations in an ack-feedback stream (clean-wire parity accounting,
// jumbo reconstruction under loss), and receivers that take the stream
// geometry from the wire even when their own receive buffer differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "common/assert.hpp"
#include "coll/gf256.hpp"
#include "coll/registry.hpp"
#include "coll/mcast_stream.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;
using net::fault::FaultProfile;
namespace gf256 = coll::gf256;

// ----------------------------------------------------------- GF(256)

TEST(Gf256Algebra, MulHasIdentitiesAndCommutes) {
  for (int a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(ua, 0), 0);
    EXPECT_EQ(gf256::mul(0, ua), 0);
    EXPECT_EQ(gf256::mul(ua, 1), ua);
    EXPECT_EQ(gf256::mul(1, ua), ua);
    for (int b = 0; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(gf256::mul(ua, ub), gf256::mul(ub, ua));
    }
  }
}

TEST(Gf256Algebra, MulDistributesOverXor) {
  // Exhaustive over (a, b) for a sample of multipliers c — the full triple
  // product space is 16M checks for no extra coverage of the table.
  for (const int c : {1, 2, 3, 29, 91, 142, 255}) {
    const auto uc = static_cast<std::uint8_t>(c);
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(ua ^ ub), uc),
                  gf256::mul(ua, uc) ^ gf256::mul(ub, uc));
      }
    }
  }
}

TEST(Gf256Algebra, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    const std::uint8_t ia = gf256::inv(ua);
    EXPECT_EQ(gf256::mul(ua, ia), 1) << "a = " << a;
    EXPECT_EQ(gf256::inv(ia), ua) << "a = " << a;
  }
}

TEST(Gf256Algebra, ParityRowZeroIsAllOnes) {
  // The column normalization pins row 0 to all-ones — the r=1 XOR fast
  // path (RAID-5 parity) on every k.
  for (const int k : {1, 2, 8, 32, 100, 255}) {
    EXPECT_EQ(gf256::max_parity(k), 256 - k);
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(gf256::parity_coef(0, j, k), 1) << "k " << k << " j " << j;
    }
  }
}

TEST(Gf256Algebra, AnyKRowsOfTheStackedGeneratorAreInvertible) {
  // MDS: every k-row subset of the (k+r) x k stacked generator [I; C] is
  // nonsingular, i.e. ANY k delivered chunks reconstruct the data.
  // Exhaustive over the subset lattice for small (k, r).
  for (const int k : {2, 4, 8}) {
    const int r = std::min(4, gf256::max_parity(k));
    const int n = k + r;
    std::vector<int> select(static_cast<std::size_t>(n), 0);
    std::fill(select.begin(), select.begin() + k, 1);
    int subsets = 0;
    do {
      std::vector<std::vector<std::uint8_t>> m;
      for (int row = 0; row < n; ++row) {
        if (select[static_cast<std::size_t>(row)] == 0) {
          continue;
        }
        std::vector<std::uint8_t> coefs(static_cast<std::size_t>(k), 0);
        for (int j = 0; j < k; ++j) {
          coefs[static_cast<std::size_t>(j)] =
              row < k ? (row == j ? 1 : 0)
                      : gf256::parity_coef(row - k, j, k);
        }
        m.push_back(std::move(coefs));
      }
      EXPECT_TRUE(gf256::invertible(std::move(m)))
          << "k " << k << ", subset " << subsets;
      ++subsets;
    } while (std::prev_permutation(select.begin(), select.end()));
    EXPECT_GT(subsets, 1);
  }
}

TEST(Gf256Algebra, MulAccXorFastPathAndRaggedTails) {
  const std::vector<std::uint8_t> data = {0x12, 0x34, 0x56, 0x78, 0x9A};
  std::vector<std::uint8_t> acc = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> before = acc;

  gf256::mul_acc(acc, data, 0);  // coef 0: no-op
  EXPECT_EQ(acc, before);

  gf256::mul_acc(acc, data, 1);  // coef 1: plain XOR, tail untouched
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::uint8_t contrib = i < data.size() ? data[i] : 0;
    EXPECT_EQ(acc[i], before[i] ^ contrib) << "i = " << i;
  }

  acc = before;
  gf256::mul_acc(acc, data, 0x5B);  // generic coef: per-byte field product
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::uint8_t contrib =
        i < data.size() ? gf256::mul(data[i], 0x5B) : 0;
    EXPECT_EQ(acc[i], before[i] ^ contrib) << "i = " << i;
  }
}

TEST(Gf256Codec, RandomizedEncodeEraseDecodeRoundTrips) {
  std::mt19937 rng(0xFEC2026);
  for (int trial = 0; trial < 150; ++trial) {
    const int k = 1 + static_cast<int>(rng() % 12);
    const int r =
        1 + static_cast<int>(rng() % static_cast<unsigned>(
                                         std::min(4, gf256::max_parity(k))));
    const std::size_t plen = 1 + rng() % 96;

    // Chunks are full-length except a ragged final one (the wire shape).
    std::vector<Buffer> original(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const std::size_t len = j == k - 1 ? 1 + rng() % plen : plen;
      Buffer& chunk = original[static_cast<std::size_t>(j)];
      chunk.resize(len);
      for (std::uint8_t& b : chunk) {
        b = static_cast<std::uint8_t>(rng());
      }
    }

    std::vector<Buffer> parity(static_cast<std::size_t>(r));
    std::vector<std::span<std::uint8_t>> pspans;
    for (Buffer& row : parity) {
      row.assign(plen, 0);
      pspans.emplace_back(row);
    }
    std::vector<std::span<const std::uint8_t>> dspans;
    for (const Buffer& chunk : original) {
      dspans.emplace_back(chunk);
    }
    gf256::encode_parity(dspans, pspans);

    // Erase up to r random data chunks, recover them from a random (sorted)
    // parity subset of matching size — MDS says any subset works.
    const int erasures =
        static_cast<int>(rng() % static_cast<unsigned>(std::min(r, k) + 1));
    std::vector<int> order(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      order[static_cast<std::size_t>(j)] = j;
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<int> missing(order.begin(), order.begin() + erasures);
    std::sort(missing.begin(), missing.end());

    std::vector<int> prow_order(static_cast<std::size_t>(r));
    for (int i = 0; i < r; ++i) {
      prow_order[static_cast<std::size_t>(i)] = i;
    }
    std::shuffle(prow_order.begin(), prow_order.end(), rng);
    std::vector<int> rows(prow_order.begin(), prow_order.begin() + erasures);
    std::sort(rows.begin(), rows.end());

    std::vector<std::span<const std::uint8_t>> delivered = dspans;
    for (const int j : missing) {
      delivered[static_cast<std::size_t>(j)] = {};
    }
    std::vector<gf256::ParityRow> prows;
    for (const int i : rows) {
      prows.push_back({i, parity[static_cast<std::size_t>(i)]});
    }
    std::vector<Buffer> rebuilt(missing.size());
    std::vector<std::span<std::uint8_t>> outs;
    for (std::size_t m = 0; m < missing.size(); ++m) {
      rebuilt[m].resize(
          original[static_cast<std::size_t>(missing[m])].size());
      outs.emplace_back(rebuilt[m]);
    }
    gf256::decode(delivered, prows, missing, outs);
    for (std::size_t m = 0; m < missing.size(); ++m) {
      EXPECT_EQ(rebuilt[m], original[static_cast<std::size_t>(missing[m])])
          << "trial " << trial << " k " << k << " r " << r << " chunk "
          << missing[m];
    }
  }
}

// ------------------------------------------------------ plan and config

using coll::StreamPreset;

TEST(StreamPlanGeometry, CoversEmptySmallAndJumboTotals) {
  // The fec-mcast preset (k = 8, overhead = 1/8), planned with no receive
  // buffer clamp.
  const coll::StreamConfig cfg;
  const coll::StreamPlan empty = coll::stream_plan(0, cfg, SIZE_MAX);
  EXPECT_EQ(empty.chunk_bytes, 1u);
  EXPECT_EQ(empty.n_data, 1);
  EXPECT_EQ(empty.windows, 1);

  const coll::StreamPlan one = coll::stream_plan(1, cfg, SIZE_MAX);
  EXPECT_EQ(one.chunk_bytes, 1u);
  EXPECT_EQ(one.n_data, 1);
  EXPECT_EQ(one.windows, 1);
  EXPECT_GT(one.wire_bytes, 1u);  // headers + at least one parity chunk

  const coll::StreamPlan mid = coll::stream_plan(100000, cfg, SIZE_MAX);
  EXPECT_EQ(mid.chunk_bytes, 12500u);
  EXPECT_EQ(mid.n_data, 8);
  EXPECT_EQ(mid.windows, 1);
  EXPECT_GT(mid.wire_bytes, 100000u);

  // A total past the datagram ceiling clamps the chunk and spills into
  // multiple windows of k.
  const coll::StreamPlan jumbo = coll::stream_plan(8u << 20, cfg, SIZE_MAX);
  EXPECT_GE(static_cast<std::size_t>(jumbo.n_data) * jumbo.chunk_bytes,
            8u << 20);
  EXPECT_EQ(jumbo.windows, (jumbo.n_data + cfg.k - 1) / cfg.k);
  EXPECT_GT(jumbo.windows, 1);

  // Below k full frames the payload splits into the frames it fills, not
  // into k sub-frame chunks: one frame carries 1472 - 48 = 1424 B of chunk.
  // From k * 1424 B on the chunk is total / k again.
  struct Row {
    std::size_t total;
    int n_data;
    std::size_t chunk_bytes;
  };
  for (const Row& row : {Row{1424, 1, 1424}, Row{1425, 2, 713},
                         Row{2048, 2, 1024}, Row{8192, 6, 1366},
                         Row{11392, 8, 1424}, Row{11393, 8, 1425}}) {
    const coll::StreamPlan plan = coll::stream_plan(row.total, cfg, SIZE_MAX);
    EXPECT_EQ(plan.n_data, row.n_data) << row.total << " B";
    EXPECT_EQ(plan.chunk_bytes, row.chunk_bytes) << row.total << " B";
    EXPECT_EQ(plan.windows, 1) << row.total << " B";
  }
  // A k = 1 preset (nack-mcast) sends the payload whole.
  const coll::StreamPlan nack = coll::stream_plan(
      8192, coll::preset_config(StreamPreset::kNack), SIZE_MAX);
  EXPECT_EQ(nack.n_data, 1);
  EXPECT_EQ(nack.chunk_bytes, 8192u);

  // Adaptive plans budget the receive buffer for the ratchet's ceiling.
  coll::StreamConfig adaptive = cfg;
  adaptive.adaptive = true;
  EXPECT_GT(coll::stream_plan(100000, adaptive, SIZE_MAX).wire_bytes,
            mid.wire_bytes);
}

ClusterConfig faulty_config(int procs, NetworkType net,
                            const FaultProfile& link,
                            std::uint64_t seed = 11) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = seed;
  config.faults.link = link;
  return config;
}

/// The mcast-segmented preset with the given geometry and parity, tuned
/// for a lossy wire (backed-off 2 ms timer, finite retry cap).
coll::StreamConfig seg_fec_config(std::size_t chunk, int window, int lanes,
                                  double overhead) {
  coll::StreamConfig cfg = coll::preset_config(StreamPreset::kSegmented);
  cfg.chunk_bytes = chunk;
  cfg.k = window;
  cfg.lanes = lanes;
  cfg.overhead = overhead;
  cfg.timeout = milliseconds(2);
  cfg.backoff = 2.0;
  cfg.timeout_cap = milliseconds(400);
  cfg.max_retries = 50;
  return cfg;
}

TEST(StreamConfig, RejectsOutOfRangeValues) {
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    const auto expect_bad = [&](const coll::StreamConfig& bad) {
      EXPECT_THROW(coll::set_stream_config(p, p.comm_world(),
                                           StreamPreset::kFec, bad),
                   std::invalid_argument);
    };
    const auto with = [](auto mutate) {
      coll::StreamConfig c;
      mutate(c);
      return c;
    };
    expect_bad(with([](auto& c) { c.k = 0; }));
    expect_bad(with([](auto& c) { c.k = 256; }));  // parity needs k <= 255
    expect_bad(with([](auto& c) { c.k = 70000; }));
    expect_bad(with([](auto& c) { c.lanes = 0; }));
    expect_bad(with([](auto& c) { c.lanes = 17; }));
    expect_bad(with([](auto& c) { c.overhead = -0.1; }));
    expect_bad(with([](auto& c) { c.overhead = 2.5; }));
    expect_bad(with([](auto& c) {
      c.adaptive = true;
      c.overhead = 0.75;  // above the ratchet's ceiling
    }));
    expect_bad(with([](auto& c) {
      c.adaptive = true;
      c.overhead = 0.0;  // nothing to ratchet
    }));
    expect_bad(with([](auto& c) { c.timeout = kTimeZero; }));
    expect_bad(with([](auto& c) { c.backoff = 0.5; }));
    expect_bad(with([](auto& c) { c.timeout_cap = microseconds(1); }));
    expect_bad(with([](auto& c) { c.max_retries = -1; }));
    expect_bad(with([](auto& c) { c.aggregation_window = microseconds(-1); }));
    expect_bad(with([](auto& c) { c.history_frames = 0; }));
    // A generation must fit GF(256) only when parity is on.
    coll::StreamConfig wide = coll::preset_config(StreamPreset::kSegmented);
    wide.k = 256;
    EXPECT_NO_THROW(coll::set_stream_config(p, p.comm_world(),
                                            StreamPreset::kSegmented, wide));
    // The defaults themselves round-trip.
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec,
                            coll::StreamConfig{});
    EXPECT_EQ(
        coll::stream_config(p, p.comm_world(), StreamPreset::kFec).k, 8);
  });
}

TEST(StreamConfig, PresetsAreTunedIndependently) {
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    coll::StreamConfig fec = coll::preset_config(StreamPreset::kFec);
    fec.k = 16;
    fec.timeout = milliseconds(7);
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec, fec);
    EXPECT_EQ(coll::stream_config(p, p.comm_world(), StreamPreset::kFec).k,
              16);
    const coll::StreamConfig& seg =
        coll::stream_config(p, p.comm_world(), StreamPreset::kSegmented);
    EXPECT_EQ(seg.k, 4);
    EXPECT_EQ(seg.chunk_bytes, 64u * 1024);
    EXPECT_EQ(seg.timeout, milliseconds(50));
    EXPECT_EQ(seg.backoff, 1.0);
    EXPECT_EQ(
        coll::stream_config(p, p.comm_world(), StreamPreset::kAck).timeout,
        milliseconds(5));
    EXPECT_EQ(coll::stream_config(p, p.comm_world(), StreamPreset::kNack)
                  .history_frames,
              64u);
  });
}

// -------------------------------------------------- conformance matrix

TEST(StreamConformance, EveryPresetMatchesMpichAcrossRanksTopologiesLossRoots) {
  struct Topo {
    NetworkType net;
    int segments;
    const char* name;
  };
  const std::vector<Topo> topologies = {{NetworkType::kHub, 1, "hub"},
                                        {NetworkType::kSwitch, 1, "switch"},
                                        {NetworkType::kSwitch, 2, "2-seg"}};
  struct LossMode {
    const char* name;
    FaultProfile profile;
  };
  const std::vector<LossMode> modes = {
      {"clean", FaultProfile{}},
      {"loss1", FaultProfile{.loss = 0.01}},
      {"loss5", FaultProfile{.loss = 0.05}},
      {"bursty", FaultProfile{.ge_good_to_bad = 0.02,
                              .ge_bad_to_good = 0.25,
                              .ge_loss_bad = 0.5}},
  };
  for (const StreamPreset preset :
       {StreamPreset::kAck, StreamPreset::kNack, StreamPreset::kFec,
        StreamPreset::kSegmented}) {
    const std::string algo = coll::to_string(preset);
    // fec-mcast, the preset built for loss, sweeps the rank axis; the
    // others run at one size that exercises several receivers per segment.
    const std::vector<int> rank_counts =
        preset == StreamPreset::kFec ? std::vector<int>{2, 3, 9, 16}
                                     : std::vector<int>{6};
    // Empty, one byte, 1 KiB, ragged (a multiple of no preset's k), and
    // 64 KiB; the segmented preset also streams past the datagram ceiling,
    // ending in a ragged chunk.
    std::vector<std::size_t> sizes = {0, 1, 1024, 10007, 65536};
    if (preset == StreamPreset::kFec) {
      // Just past one and two frames of chunk: ragged last chunks in
      // streams cut into fewer than k chunks.
      sizes.insert(sizes.end(), {1425, 4097});
    }
    if (preset == StreamPreset::kSegmented) {
      sizes.push_back((1u << 20) + 4097);
    }
    for (const int ranks : rank_counts) {
      for (const Topo& topo : topologies) {
        for (const LossMode& mode : modes) {
          ClusterConfig config = faulty_config(ranks, topo.net, mode.profile);
          config.num_segments = topo.segments;
          if (topo.segments > 1) {
            config.trunk_latency = milliseconds(2);
            if (mode.profile.lossy()) {
              config.faults.trunk.loss = 0.02;  // the lossy trunk
            }
          }
          if (ranks > cluster::kMaxEagleHosts) {
            config.hosts = cluster::make_uniform_hosts(ranks);
          }
          const std::string what = algo + ", " + std::to_string(ranks) +
                                   " ranks, " + topo.name + ", " + mode.name;
          Cluster cluster(config);
          std::vector<int> ok(static_cast<std::size_t>(ranks), 1);
          cluster.world().run([&](mpi::Proc& p) {
            if (preset == StreamPreset::kNack) {
              // nack-mcast does not chunk: a lost 100 KB datagram is a lost
              // stream, and bursty loss on the lossy trunk can take more
              // rounds than its default cap (the hard-error tests pin it).
              coll::StreamConfig cfg = coll::preset_config(preset);
              cfg.max_retries = 0;
              coll::set_stream_config(p, p.comm_world(), preset, cfg);
            }
            for (const int root : {1, ranks - 1}) {
              for (const std::size_t bytes : sizes) {
                Buffer got;
                Buffer ref;
                if (p.rank() == root) {
                  got = pattern_payload(bytes + 7, bytes);
                  ref = pattern_payload(bytes + 7, bytes);
                }
                p.comm_world().coll().bcast(got, root, algo);
                p.comm_world().coll().bcast(ref, root, "mpich");
                if (got.size() != bytes || got != ref ||
                    !check_pattern(bytes + 7, got)) {
                  ok[static_cast<std::size_t>(p.rank())] = 0;
                }
              }
              if (ranks == 2) {
                break;  // roots 1 and ranks - 1 coincide
              }
            }
          });
          for (int r = 0; r < ranks; ++r) {
            EXPECT_TRUE(ok[static_cast<std::size_t>(r)])
                << what << ", rank " << r;
          }
        }
      }
    }
  }
}

TEST(StreamConformance, EveryFeedbackParityLaneAndReadinessCombination) {
  // The engine's knobs beyond the presets: each feedback mode with and
  // without parity, over one and three lanes, with and without scouts,
  // under loss, with back-to-back streams from rotating roots (so a
  // receiver can meet the next stream's frames, on lanes this stream
  // leaves empty, before it has finished this one).
  constexpr int kRanks = 5;
  for (const coll::Feedback feedback :
       {coll::Feedback::kAck, coll::Feedback::kNack}) {
    for (const double overhead : {0.0, 0.25}) {
      for (const int lanes : {1, 3}) {
        for (const coll::Readiness readiness :
             {coll::Readiness::kNone, coll::Readiness::kScout}) {
          Cluster cluster(faulty_config(kRanks, NetworkType::kSwitch,
                                        FaultProfile{.loss = 0.03}, 5));
          std::vector<int> ok(kRanks, 1);
          cluster.world().run([&](mpi::Proc& p) {
            coll::StreamConfig cfg = seg_fec_config(0, 4, lanes, overhead);
            cfg.feedback = feedback;
            cfg.readiness = readiness;
            cfg.timeout_cap = milliseconds(50);
            cfg.max_retries = 0;
            coll::set_stream_config(p, p.comm_world(),
                                    StreamPreset::kSegmented, cfg);
            for (int rep = 0; rep < 3; ++rep) {
              const int root = (rep + 1) % kRanks;
              for (const std::size_t bytes : {std::size_t{0}, std::size_t{1},
                                              std::size_t{10007},
                                              std::size_t{40000}}) {
                Buffer data;
                if (p.rank() == root) {
                  data = pattern_payload(bytes + rep, bytes);
                }
                p.comm_world().coll().bcast(data, root, "mcast-segmented");
                if (data.size() != bytes || !check_pattern(bytes + rep, data)) {
                  ok[static_cast<std::size_t>(p.rank())] = 0;
                }
              }
            }
            const std::vector<Buffer> all = p.comm_world().coll().allgather(
                pattern_payload(p.rank(), 5000), "mcast-segmented");
            for (int r = 0; r < kRanks; ++r) {
              if (all[static_cast<std::size_t>(r)] !=
                  pattern_payload(r, 5000)) {
                ok[static_cast<std::size_t>(p.rank())] = 0;
              }
            }
          });
          for (int r = 0; r < kRanks; ++r) {
            EXPECT_TRUE(ok[static_cast<std::size_t>(r)])
                << "feedback " << static_cast<int>(feedback) << ", overhead "
                << overhead << ", lanes " << lanes << ", readiness "
                << static_cast<int>(readiness) << ", rank " << r;
          }
        }
      }
    }
  }
}

TEST(FecMcast, EmptyBroadcastDelivers) {
  for (const double loss : {0.0, 0.05}) {
    Cluster cluster(faulty_config(3, NetworkType::kSwitch,
                                  FaultProfile{.loss = loss}));
    cluster.world().run([](mpi::Proc& p) {
      Buffer data;
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_EQ(data.size(), 0u);
    });
  }
}

TEST(FecMcast, SmallPayloadSendsOneFramePerChunk) {
  // On a clean switch a sub-window payload costs one data frame per
  // Ethernet frame it fills plus one parity frame, so its latency stays
  // near nack-mcast's single datagram instead of paying k per-message
  // costs for k sub-frame chunks.
  constexpr int kReps = 5;
  const auto measure = [](const std::string& algo, std::size_t bytes) {
    Cluster cluster(faulty_config(9, NetworkType::kSwitch, FaultProfile{}));
    cluster::ExperimentConfig exp;
    exp.reps = kReps;
    return cluster::measure_collective(
        cluster, exp, [&](mpi::Proc& p, int rep) {
          Buffer data(bytes);
          if (p.rank() == 0) {
            data = pattern_payload(rep, bytes);
          }
          p.comm_world().coll().bcast(data, 0, algo);
          EXPECT_TRUE(check_pattern(rep, data)) << algo << ", rank "
                                                << p.rank();
        });
  };
  struct Case {
    std::size_t bytes;
    std::uint64_t frames;  // data chunks + 1 parity frame
    double max_vs_nack;
  };
  for (const Case& c : {Case{1024, 2, 1.05}, Case{2048, 3, 1.15}}) {
    const auto fec = measure("fec-mcast", c.bytes);
    const auto nack = measure("nack-mcast", c.bytes);
    EXPECT_EQ(fec.net_delta.host_tx_frames, kReps * c.frames)
        << c.bytes << " B";
    EXPECT_LE(fec.latencies_us.median(),
              c.max_vs_nack * nack.latencies_us.median())
        << c.bytes << " B";
  }
}

// ------------------------------------------------ recovery and counters

TEST(FecMcast, CleanWireSendsParityButNeverDecodes) {
  Cluster cluster(faulty_config(9, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    for (int i = 0; i < 4; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(i, 64000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  // 64000 B under k=8 is one window per op, overhead 1/8 -> exactly one
  // parity frame each; none of it is ever consumed on a clean wire.
  EXPECT_EQ(sched.parity_sent, 4u);
  EXPECT_EQ(sched.parity_used, 0u);
  EXPECT_EQ(sched.fec_decodes, 0u);
  EXPECT_EQ(sched.fec_fallbacks, 0u);
  EXPECT_EQ(sched.frames_dropped, 0u);
}

TEST(FecMcast, LowLossIsAbsorbedByInWindowDecodes) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.01}));
  cluster.world().run([](mpi::Proc& p) {
    for (int i = 0; i < 4; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(i, 64000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_EQ(sched.parity_sent, 4u);
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.fec_decodes, 0u);
  EXPECT_GE(sched.parity_used, sched.fec_decodes);
}

coll::StreamConfig fec_with(SimTime timeout, SimTime cap, int max_retries) {
  coll::StreamConfig cfg = coll::preset_config(StreamPreset::kFec);
  cfg.timeout = timeout;
  cfg.timeout_cap = cap;
  cfg.max_retries = max_retries;
  return cfg;
}

TEST(FecMcast, LossBeyondParityFallsBackToNackAndDelivers) {
  Cluster cluster(
      faulty_config(5, NetworkType::kSwitch, FaultProfile{.loss = 0.3}));
  cluster.world().run([](mpi::Proc& p) {
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec,
                            fec_with(milliseconds(1), milliseconds(16), 30));
    for (int i = 0; i < 2; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(30 + i, 16000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(30 + i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.fec_fallbacks, 0u);  // parity alone could not absorb 30%
  EXPECT_GT(sched.retransmits, 0u);    // the history served the NACKs
}

TEST(StreamRecovery, PresetsKeepTheirOwnRetransmissionHistory) {
  // fec-mcast then nack-mcast back to back under loss, with no barrier: the
  // root blasts both streams and returns while its receivers are still
  // recovering the fec-mcast one.  The nack-mcast stream retains into its
  // own 64-frame history, so it must not evict the 200 frames fec-mcast's
  // 256-frame history still has to serve.
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  std::uint64_t unserved = 0;
  cluster.world().run([&](mpi::Proc& p) {
    coll::StreamConfig fec = coll::preset_config(StreamPreset::kFec);
    fec.chunk_bytes = 1024;
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec, fec);
    Buffer big;
    if (p.rank() == 0) {
      big = pattern_payload(1, 200 * 1024);
    }
    p.comm_world().coll().bcast(big, 0, "fec-mcast");
    for (int i = 0; i < 3; ++i) {
      Buffer small;
      if (p.rank() == 0) {
        small = pattern_payload(50 + i, 2000);
      }
      p.comm_world().coll().bcast(small, 0, "nack-mcast");
      EXPECT_TRUE(check_pattern(50 + i, small)) << "rank " << p.rank();
    }
    EXPECT_TRUE(check_pattern(1, big)) << "rank " << p.rank();
    if (p.rank() == 0) {
      unserved = coll::stream_stats(p, p.comm_world()).nacks_unserved;
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.fec_fallbacks, 0u);  // fec-mcast did need its history
  EXPECT_EQ(unserved, 0u);
}

TEST(FecMcast, TotalLossIsAHardErrorNotAHang) {
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 1.0}));
  EXPECT_THROW(
      cluster.world().run([](mpi::Proc& p) {
        coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec,
                                fec_with(milliseconds(1), milliseconds(50), 3));
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, 500);
        }
        p.comm_world().coll().bcast(data, 0, "fec-mcast");
      }),
      std::runtime_error);
}

TEST(FecMcast, AdaptiveRatchetRaisesOverheadUnderLossOnly) {
  const auto run_adaptive = [](const FaultProfile& profile, double* working,
                               std::uint64_t* raises) {
    Cluster cluster(faulty_config(6, NetworkType::kSwitch, profile));
    cluster.world().run([&](mpi::Proc& p) {
      coll::StreamConfig cfg = coll::preset_config(StreamPreset::kFec);
      cfg.adaptive = true;  // floor 1/8, ceiling 1/2
      coll::set_stream_config(p, p.comm_world(), StreamPreset::kFec, cfg);
      for (int i = 0; i < 8; ++i) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(i, 16000);
        }
        p.comm_world().coll().bcast(data, 0, "fec-mcast");
        EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
        // Pace the operations (the §4 method's spaced starts): the root
        // returns right after its blast, and the receivers' recovery
        // requests — its only evidence of loss — need a round trip to
        // reach it before the next encode.
        p.self().delay(milliseconds(20));
      }
      if (p.rank() == 0) {
        *working = coll::stream_working_overhead(p, p.comm_world(),
                                                 StreamPreset::kFec);
        *raises = coll::stream_stats(p, p.comm_world()).overhead_raises;
      }
    });
  };
  double working = 0.0;
  std::uint64_t raises = 0;
  run_adaptive(FaultProfile{.loss = 0.05}, &working, &raises);
  EXPECT_GT(working, 0.125);  // recovery requests ratcheted the parity up
  EXPECT_GE(raises, 1u);
  run_adaptive(FaultProfile{}, &working, &raises);
  EXPECT_DOUBLE_EQ(working, 0.125);  // a clean wire stays at the floor
  EXPECT_EQ(raises, 0u);
}

TEST(FecMcast, AdaptiveRatchetIgnoresLossItsRootCannotSee) {
  // Two segments behind a 30%-lossy trunk; the links themselves are clean.
  // Segment 0's sub-communicator streams adaptive fec-mcast entirely inside
  // its segment while the world communicator's mpich bcasts lose frames on
  // the trunk.  Nothing of the sub-communicator's stream is ever lost, so
  // its root has no evidence to raise parity on — the ratchet must stay at
  // the floor even though the root's shard counts trunk drops.
  ClusterConfig config = faulty_config(8, NetworkType::kSwitch, FaultProfile{});
  config.num_segments = 2;
  config.faults.trunk.loss = 0.3;
  Cluster cluster(config);
  const int seg0 = cluster.segment_of_rank(0);
  double working = 0.0;
  std::uint64_t raises = 0;
  cluster.world().run([&](mpi::Proc& p) {
    const bool mine = cluster.segment_of_rank(p.rank()) == seg0;
    const mpi::Comm sub = p.split(p.comm_world(), mine ? 0 : 1, p.rank());
    if (mine) {
      coll::StreamConfig cfg = coll::preset_config(StreamPreset::kFec);
      cfg.adaptive = true;
      coll::set_stream_config(p, sub, StreamPreset::kFec, cfg);
      // fec-mcast has no readiness handshake: join the group before the
      // root's first blast, so a late join does not cost the first frames
      // (that loss WOULD be visible to the root, as NACKs).
      (void)p.mcast_channel(sub);
      sub.coll().barrier("mpich");
    }
    for (int i = 0; i < 8; ++i) {
      Buffer world_data;
      if (p.rank() == 0) {
        world_data = pattern_payload(100 + i, 6000);
      }
      p.comm_world().coll().bcast(world_data, 0, "mpich");
      EXPECT_TRUE(check_pattern(100 + i, world_data)) << "rank " << p.rank();
      if (mine) {
        Buffer data;
        if (sub.rank() == 0) {
          data = pattern_payload(i, 16000);
        }
        sub.coll().bcast(data, 0, "fec-mcast");
        EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
      }
    }
    if (mine && sub.rank() == 0) {
      working = coll::stream_working_overhead(p, sub, StreamPreset::kFec);
      raises = coll::stream_stats(p, sub).overhead_raises;
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);  // the trunk did drop world traffic
  EXPECT_EQ(sched.parity_used, 0u);     // ... but no stream frame was lost
  EXPECT_EQ(sched.fec_fallbacks, 0u);
  EXPECT_DOUBLE_EQ(working, 0.125);
  EXPECT_EQ(raises, 0u);
}

TEST(FecMcast, LossyAutoSelectionPrefersFec) {
  // The default tuning table gates the fec-mcast rule on a lossy network:
  // clean-wire schedules are untouched, lossy ones pre-empt mcast-binary.
  Cluster lossy(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  lossy.world().run([](mpi::Proc& p) {
    EXPECT_TRUE(p.network_lossy());
    const coll::Coll facade = p.comm_world().coll();
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 64 * 1024), "fec-mcast");
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 512), "mpich");
    // Payloads past fec-mcast's single-blast window fall through to the
    // (loss-tolerant) segmented pipeline.
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 16u << 20),
              "mcast-segmented");
  });
  Cluster clean(faulty_config(9, NetworkType::kSwitch, FaultProfile{}));
  clean.world().run([](mpi::Proc& p) {
    EXPECT_FALSE(p.network_lossy());
    EXPECT_EQ(p.comm_world().coll().resolve(coll::CollOp::kBcast, 64 * 1024),
              "mcast-binary");
  });
}

// ------------------------------- parity generations in an ack stream


TEST(SegmentedFec, CleanWireSendsParityAndNeverDecodes) {
  Cluster cluster(faulty_config(5, NetworkType::kSwitch, FaultProfile{}));
  const std::size_t payload = 256 * 1024;
  cluster.world().run([&](mpi::Proc& p) {
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kSegmented,
                            seg_fec_config(4096, 4, 2, 0.25));
    Buffer seg;
    Buffer ref;
    if (p.rank() == 0) {
      seg = pattern_payload(21, payload);
      ref = pattern_payload(21, payload);
    }
    p.comm_world().coll().bcast(seg, 0, "mcast-segmented");
    p.comm_world().coll().bcast(ref, 0, "mpich");
    EXPECT_EQ(seg, ref) << "rank " << p.rank();
    EXPECT_TRUE(check_pattern(21, seg)) << "rank " << p.rank();
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  // 64 chunks over 2 lanes = 32 per lane, in generations of window 4 with
  // ceil(4 * 0.25) = 1 parity frame each: 16 parity frames, none consumed.
  EXPECT_EQ(sched.parity_sent, 16u);
  EXPECT_EQ(sched.parity_used, 0u);
  EXPECT_EQ(sched.fec_decodes, 0u);
  EXPECT_EQ(sched.frames_dropped, 0u);
}

TEST(SegmentedFec, JumboBcastRecoversViaParityUnderLoss) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.01}));
  const std::size_t payload = 16u << 20;
  std::vector<int> ok(9, 0);
  cluster.world().run([&](mpi::Proc& p) {
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kSegmented,
                            seg_fec_config(65536, 8, 2, 0.25));
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(16, payload);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == payload && check_pattern(16, data);
  });
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.parity_sent, 0u);
  EXPECT_GT(sched.fec_decodes, 0u);  // generation losses healed in-window
  EXPECT_GE(sched.parity_used, sched.fec_decodes);
}

TEST(SegmentedFec, ReceiversTakeGeometryFromTheWire) {
  // One receiver runs a smaller multicast receive buffer than the root.
  // The root sizes chunks from ITS buffer; a receiver that derived the
  // chunk size from its own would place rebuilt chunks at the wrong
  // offsets and return corrupt bytes without any error.
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.01}));
  const std::size_t payload = 2u << 20;
  std::vector<int> ok(9, 0);
  cluster.world().run([&](mpi::Proc& p) {
    if (p.rank() == 4) {
      p.set_mcast_recv_buffer(128 * 1024);  // before any channel exists
    }
    coll::set_stream_config(p, p.comm_world(), StreamPreset::kSegmented,
                            seg_fec_config(65536, 8, 1, 0.25));
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(44, payload);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == payload && check_pattern(44, data);
  });
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  EXPECT_GT(cluster.simulator().sched_counters().fec_decodes, 0u);
}

}  // namespace
}  // namespace mcmpi
