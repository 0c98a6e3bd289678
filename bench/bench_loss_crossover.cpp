// Loss-crossover sweep: the recovery schemes of every loss-tolerant
// single-datagram broadcast against rising link loss.
//
// Six protocols — ack-mcast (sender-initiated, ORNL style), nack-mcast
// (receiver-driven SRM style), the sequencer (token-ordered with NACK
// recovery), the segmented pipeline (per-chunk acks, window 4) and the
// FEC-coded multicast at two parity overheads (1/8 and 1/4) — each
// measured at five link-fault profiles: a clean wire, 0.1%, 1% and 5%
// independent loss, and a Gilbert–Elliott bursty profile.  Two topologies
// per rank count (9 and 16 switched hosts): the paper's single switch, and
// a 2-segment cluster joined by a 2 ms trunk — the high-latency regime
// where any recovery round trip costs four orders of magnitude more than a
// LAN hop.  The machine-readable records carry the loss label, the
// fault/recovery counters and the FEC parity counters, so the bench_diff
// gate can enforce both headline claims: receiver-driven NACK recovery
// overtakes sender-side ACK collection as loss rises
// (--min-loss-advantage), and zero-round-trip FEC recovery overtakes the
// NACK protocol on the slow trunk once loss is heavy enough to make NACK
// round trips routine (--min-fec-advantage).  The zero-loss records pin
// the fault path's zero-overhead default — and FEC's deterministic parity
// cost (parity_sent > 0, parity_used == 0 on a clean wire).
#include <algorithm>
#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coll/mcast_stream.hpp"
#include "common/bytes.hpp"

namespace mcmpi::bench {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;

constexpr std::size_t kPayloadBytes = 16 * 1024;

struct LossProfile {
  std::string label;
  net::fault::FaultProfile profile;
};

struct Variant {
  std::string label;
  /// Record/baseline algorithm name ("fec-mcast-1/8" distinguishes the two
  /// parity configurations of the one engine).
  std::string algo;
  /// Registry engine name the bcast actually dispatches to.
  std::string engine;
  /// FEC parity ratio for fec-mcast variants; 0 for everything else.
  double fec_overhead = 0.0;
};

/// One network shape: the paper's single segment, or two segments behind a
/// slow trunk (the regime where recovery round trips dominate).
struct Topology {
  std::string label;
  int segments = 1;
  SimTime trunk_latency = SimTime{};
};

struct Measured {
  Point point;
  sim::SchedCounters sched;
};

std::vector<LossProfile> loss_profiles() {
  std::vector<LossProfile> profiles;
  profiles.push_back({"0", {}});
  profiles.push_back({"0.1%", {.loss = 0.001}});
  profiles.push_back({"1%", {.loss = 0.01}});
  profiles.push_back({"5%", {.loss = 0.05}});
  // Bursty: ~7% of frames land in the bad state (0.02 / (0.02 + 0.25)),
  // where half of them drop — a ~3.7% mean rate arriving in clumps, the
  // regime that separates NACK schemes from ACK schemes.
  profiles.push_back({"bursty",
                      {.ge_good_to_bad = 0.02, .ge_bad_to_good = 0.25,
                       .ge_loss_bad = 0.5}});
  return profiles;
}

/// Per-communicator recovery knobs tuned for a lossy wire: exponential
/// backoff everywhere (a fixed timer livelocks under sustained loss) and
/// finite retry caps so an impossible run dies with a diagnosis instead of
/// hanging the bench.  `silence` is the base timer before any recovery
/// action — it must clear the topology's worst-case delivery delay, or the
/// remote segment's receivers fire spurious NACKs on a clean wire (2 ms of
/// trunk makes the protocols' 2 ms LAN defaults exactly too tight).
/// Idempotent; called at the top of every repetition.
void configure_recovery(mpi::Proc& p, const Variant& v, SimTime silence) {
  coll::StreamPreset preset;
  if (v.engine == "ack-mcast") {
    preset = coll::StreamPreset::kAck;
  } else if (v.engine == "nack-mcast") {
    preset = coll::StreamPreset::kNack;
  } else if (v.engine == "mcast-segmented") {
    preset = coll::StreamPreset::kSegmented;
  } else if (v.engine == "fec-mcast") {
    preset = coll::StreamPreset::kFec;
  } else {
    return;  // the sequencer already defaults to a backed-off, capped timer
  }
  coll::StreamConfig config = coll::preset_config(preset);
  config.timeout = silence;
  if (preset == coll::StreamPreset::kAck) {
    config.backoff = 2.0;
    config.timeout_cap = milliseconds(80);
    config.max_retries = 200;
  } else if (preset == coll::StreamPreset::kSegmented) {
    config.chunk_bytes = 4096;
    config.backoff = 2.0;
    config.timeout_cap = milliseconds(400);
    config.max_retries = 50;
  } else if (preset == coll::StreamPreset::kFec) {
    config.overhead = v.fec_overhead;
    config.timeout_cap = milliseconds(400);
    config.max_retries = 50;
  }
  coll::set_stream_config(p, p.comm_world(), preset, config);
}

Measured measure_loss(int procs, const Topology& topo, const LossProfile& lp,
                      const Variant& v, const BenchOptions& options) {
  ClusterConfig config;
  config.network = NetworkType::kSwitch;
  config.num_procs = procs;
  config.seed = options.seed;
  config.faults.link = lp.profile;
  if (topo.segments > 1) {
    config.num_segments = topo.segments;
    config.trunk_latency = topo.trunk_latency;
  }
  if (procs > 9) {
    config.hosts = cluster::make_uniform_hosts(procs);
  }
  Cluster cluster(config);
  cluster::ExperimentConfig exp;
  exp.reps = options.reps;
  // Recovery under 5% loss can back off into tens of milliseconds; keep
  // each repetition's pre-agreed start clear of the previous one's tail.
  exp.rep_interval = milliseconds(2000);

  // Clear the worst-case delivery delay: on the trunk topology a remote
  // receiver sees nothing until the blast crosses the 2 ms trunk, so the
  // LAN-tuned 2 ms silence timer would NACK spuriously on a clean wire.
  const SimTime silence = topo.segments > 1
                              ? topo.trunk_latency * 3
                              : milliseconds(2);

  const PayloadCounters payload_before = payload_counters();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto result = cluster::measure_collective(
      cluster, exp, [&v, silence](mpi::Proc& p, int) {
        configure_recovery(p, v, silence);
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(0xB0CA57, kPayloadBytes);
        }
        p.comm_world().coll().bcast(data, 0, v.engine);
      });
  const auto wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  const PayloadCounters payload_delta =
      payload_counters().since(payload_before);

  Measured m;
  m.point = Point{result.latencies_us.median(), result.latencies_us.min(),
                  result.latencies_us.max()};
  m.sched = cluster.simulator().sched_counters();
  record_bench(BenchRecord{
      .op = "loss-bcast",
      .algo = v.algo,
      .network = cluster::to_string(config.network),
      .ranks = procs,
      .bytes = static_cast<std::int64_t>(kPayloadBytes),
      .sim_time_us = m.point.median_us,
      .wall_time_ms = wall_ms,
      .events_scheduled = cluster.simulator().events_scheduled(),
      .handoffs = cluster.simulator().handoffs(),
      .payload_allocs = payload_delta.buffer_allocs,
      .payload_copies = payload_delta.byte_copies,
      // Single-segment records keep segments = 0 (field omitted from the
      // JSON), so the pre-trunk baseline rows' keys are unchanged.
      .segments = topo.segments > 1 ? topo.segments : 0,
      .loss = lp.label,
      .frames_dropped = m.sched.frames_dropped,
      .frames_duplicated = m.sched.frames_duplicated,
      .frames_reordered = m.sched.frames_reordered,
      .nacks_sent = m.sched.nacks_sent,
      .nacks_suppressed = m.sched.nacks_suppressed,
      .retransmits = m.sched.retransmits,
      .parity_sent = m.sched.parity_sent,
      .parity_used = m.sched.parity_used,
      .fec_decodes = m.sched.fec_decodes,
      .fec_fallbacks = m.sched.fec_fallbacks,
  });
  return m;
}

int run(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(
      argc, argv,
      "Loss crossover: ack-mcast vs nack-mcast vs sequencer vs segmented "
      "vs fec-mcast broadcast under rising link loss");

  const std::vector<LossProfile> profiles = loss_profiles();
  const std::vector<Variant> variants = {
      {"ack-mcast", "ack-mcast", "ack-mcast"},
      {"nack-mcast", "nack-mcast", "nack-mcast"},
      {"sequencer", "sequencer", "sequencer"},
      {"seg w4", "mcast-segmented", "mcast-segmented"},
      {"fec 1/8", "fec-mcast-1/8", "fec-mcast", 0.125},
      {"fec 1/4", "fec-mcast-1/4", "fec-mcast", 0.25},
  };
  const std::vector<Topology> topologies = {
      {"switch", 1, SimTime{}},
      {"2seg 2ms trunk", 2, milliseconds(2)},
  };
  const std::vector<int> rank_counts = {9, 16};

  // Indexed [topology][rank_count][profile][variant] for the shape checks.
  std::vector<std::vector<std::vector<std::vector<Measured>>>> all;
  for (const Topology& topo : topologies) {
    std::vector<std::vector<std::vector<Measured>>> by_ranks;
    for (int procs : rank_counts) {
      std::vector<std::vector<Measured>> by_profile;
      for (const LossProfile& lp : profiles) {
        std::vector<Measured> row;
        for (const Variant& v : variants) {
          row.push_back(measure_loss(procs, topo, lp, v, options));
        }
        by_profile.push_back(std::move(row));
      }
      by_ranks.push_back(std::move(by_profile));

      std::vector<std::string> columns{"loss"};
      for (const Variant& v : variants) {
        columns.push_back(v.label + " us");
      }
      Table table(columns);
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        std::vector<std::string> row{profiles[i].label};
        for (std::size_t s = 0; s < variants.size(); ++s) {
          row.push_back(Table::num(by_ranks.back()[i][s].point.median_us));
        }
        table.add_row(std::move(row));
      }
      print_table("loss crossover — " + topo.label + ", " +
                      std::to_string(procs) + " procs, 16 KiB bcast",
                  table, options);
    }
    all.push_back(std::move(by_ranks));
  }

  constexpr std::size_t kAck = 0, kNack = 1, kFec8 = 4, kFec4 = 5;

  // Zero-loss sanity: the fault path's default really is zero faults,
  // nack-mcast's clean-wire claim (no control traffic at all) holds, and
  // FEC's deterministic cost shows as parity sent but never consumed.
  bool clean = true;
  bool fec_idle = true;
  for (std::size_t g = 0; g < topologies.size(); ++g) {
    for (std::size_t t = 0; t < rank_counts.size(); ++t) {
      for (std::size_t s = 0; s < variants.size(); ++s) {
        const auto& m = all[g][t][0][s];
        clean = clean && m.sched.frames_dropped == 0 &&
                m.sched.frames_duplicated == 0 &&
                m.sched.frames_reordered == 0;
      }
      clean = clean && all[g][t][0][kNack].sched.nacks_sent == 0;
      for (std::size_t s : {kFec8, kFec4}) {
        const auto& m = all[g][t][0][s];
        fec_idle = fec_idle && m.sched.parity_sent > 0 &&
                   m.sched.parity_used == 0 && m.sched.fec_decodes == 0 &&
                   m.sched.fec_fallbacks == 0;
      }
    }
  }
  shape_check(clean, "zero-loss profile injects no faults and nack-mcast "
                     "sends no NACKs on a clean wire");
  shape_check(fec_idle, "clean-wire fec-mcast pays its parity bandwidth "
                        "(parity_sent > 0) but never decodes");

  // Faults actually bite: at 5% loss the injector drops frames, every
  // recovery scheme retransmits or decodes, and the FEC windows actually
  // consume parity.
  bool bites = true;
  bool fec_decodes = true;
  for (std::size_t g = 0; g < topologies.size(); ++g) {
    for (std::size_t t = 0; t < rank_counts.size(); ++t) {
      const auto& row = all[g][t][3];
      for (const Measured& m : row) {
        bites = bites && m.sched.frames_dropped > 0;
      }
      bites = bites && row[kAck].sched.retransmits > 0 &&
              row[kNack].sched.nacks_sent > 0 &&
              row[kNack].sched.retransmits > 0;
      for (std::size_t s : {kFec8, kFec4}) {
        fec_decodes = fec_decodes && row[s].sched.fec_decodes > 0 &&
                      row[s].sched.parity_used > 0;
      }
    }
  }
  shape_check(bites,
              "5% loss drops frames on every run and drives retransmissions");
  shape_check(fec_decodes,
              "5% loss drives in-window FEC decodes that consume parity");

  // The headline crossovers.  First the paper pair: receiver-driven NACK
  // recovery is no slower than sender-side ACK collection once loss
  // reaches 1%, on the paper's single-segment testbed (the bench_diff gate
  // re-checks this from the records; on the trunk topology the claim only
  // re-emerges at heavy loss, so that sweep is gated on the FEC claim
  // below instead).
  for (std::size_t t = 0; t < rank_counts.size(); ++t) {
    for (std::size_t i : {std::size_t{2}, std::size_t{3}}) {
      const double ack = all[0][t][i][kAck].point.median_us;
      const double nack = all[0][t][i][kNack].point.median_us;
      shape_check(nack <= ack,
                  "nack-mcast <= ack-mcast at " + profiles[i].label +
                      " loss, switch, " + std::to_string(rank_counts[t]) +
                      " procs (" + Table::num(nack) + " vs " +
                      Table::num(ack) + " us)");
    }
  }
  // Then the FEC claim: on the 2 ms trunk at 5% loss, zero-round-trip
  // in-window recovery beats waiting out a NACK round trip — the
  // best-configured FEC variant is no slower than nack-mcast (bench_diff
  // re-checks via --min-fec-advantage).
  for (std::size_t t = 0; t < rank_counts.size(); ++t) {
    const auto& row = all[1][t][3];
    const double nack = row[kNack].point.median_us;
    const double fec = std::min(row[kFec8].point.median_us,
                                row[kFec4].point.median_us);
    shape_check(fec <= nack,
                "fec-mcast <= nack-mcast at 5% loss on the 2 ms trunk, " +
                    std::to_string(rank_counts[t]) + " procs (" +
                    Table::num(fec) + " vs " + Table::num(nack) + " us)");
  }
  return 0;
}

}  // namespace
}  // namespace mcmpi::bench

int main(int argc, char** argv) { return mcmpi::bench::run(argc, argv); }
