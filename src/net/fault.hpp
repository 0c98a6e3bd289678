#pragma once
/// \file fault.hpp
/// Adversarial-network fault injection: per-link fault models.
///
/// The paper's entire reliability story (ack-mcast's ORNL ack discipline,
/// nack-mcast's receiver-driven recovery, the segmented pipeline's per-chunk
/// retransmission) exists because UDP multicast is lossy — this layer makes
/// the simulated network actually adversarial so those recovery paths are
/// exercised, tested and benchmarked instead of shipping dead.
///
/// A FaultModel sits on one LINK — one (delivery edge, receiver) pair: a
/// hub's repeater-to-station edge, a switch's egress port, or a bridge's
/// trunk hop.  It composes four stages, consulted once per frame:
///
///   * independent loss     — drop with probability `loss`;
///   * Gilbert–Elliott loss — a two-state Markov chain (good/bad) advanced
///     once per frame; in the bad state frames drop with `ge_loss_bad`
///     (bursty loss, the regime that separates NACK schemes from ACK
///     schemes);
///   * duplication          — deliver a second copy, back to back;
///   * reorder              — delay THIS delivery by a bounded jitter, so
///     it lands behind frames transmitted after it.
///
/// Determinism discipline: every decision is a pure function of
/// (fault seed, link id, per-link frame index).  The per-stage draws come
/// from a splitmix64 chain keyed by exactly that triple — no shared RNG,
/// no state outside the link — and the Gilbert–Elliott state advances once
/// per frame, so the whole drop schedule of a link is fixed by its own
/// delivery order.  Each link's deliveries are executed by the one shard
/// that owns its segment (trunk decisions by the ingress port's shard), and
/// shard event order is bit-identical across shard counts, serial/parallel
/// drivers and fiber/thread backends — therefore so is the fault schedule.
/// The frames_dropped/duplicated/reordered counters land in the executing
/// shard's SchedCounters, merging like every other scheduler counter.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/sched_counters.hpp"

namespace mcmpi::net::fault {

/// One link's fault stages; everything off by default.
struct FaultProfile {
  /// Independent per-frame drop probability.
  double loss = 0.0;
  /// Gilbert–Elliott two-state chain: P(good->bad) and P(bad->good) per
  /// frame; frames seen in the bad state drop with `ge_loss_bad`.
  double ge_good_to_bad = 0.0;
  double ge_bad_to_good = 0.0;
  double ge_loss_bad = 0.0;
  /// Per-frame duplication probability (a second copy, back to back).
  double duplicate = 0.0;
  /// Per-frame reorder probability; a reordered frame is delivered late by
  /// a uniform draw from (0, reorder_jitter].
  double reorder = 0.0;
  SimTime reorder_jitter = microseconds(50);

  bool active() const {
    return loss > 0.0 || ge_good_to_bad > 0.0 || duplicate > 0.0 ||
           reorder > 0.0;
  }
  /// May this profile drop or reorder frames?  (Duplication alone is
  /// harmless to every framed receiver — stale duplicates are skipped.)
  bool lossy() const {
    return loss > 0.0 || (ge_good_to_bad > 0.0 && ge_loss_bad > 0.0) ||
           reorder > 0.0;
  }
};

/// Immutable, cluster-wide fault configuration the delivery edges share.
/// Owned by the cluster; networks and bridges hold a const pointer.
struct FaultPlane {
  FaultProfile link;   ///< host delivery edges (hub stations, switch ports)
  FaultProfile trunk;  ///< bridge trunk hops
  std::uint64_t seed = 0;
};

/// What happens to one frame on one link.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  /// > 0: deliver this frame late by that much (reorder).
  SimTime extra_delay = kTimeZero;
};

/// Uniform [0, 1) hash of (seed, salt) — the stateless draw primitive the
/// fault stages and the per-host speed skew share.
double hash_unit(std::uint64_t seed, std::uint64_t salt);

/// One link's deterministic fault state.
class FaultModel {
 public:
  FaultModel(const FaultProfile& profile, std::uint64_t seed,
             std::uint64_t link_id)
      : profile_(profile), seed_(seed), link_id_(link_id) {}

  /// Decides the fate of the link's next frame (advancing the per-link
  /// frame index and Gilbert–Elliott state) and counts it into `counters`
  /// — pass the executing shard's counters.
  FaultDecision next(sim::SchedCounters& counters);

  std::uint64_t frames_seen() const { return frame_index_; }

 private:
  FaultProfile profile_;
  std::uint64_t seed_ = 0;
  std::uint64_t link_id_ = 0;
  std::uint64_t frame_index_ = 0;
  bool ge_bad_ = false;
};

/// Per-owner bank of link models.  Each Network (and each bridge port)
/// owns its own bank, so the lazily grown map is only ever touched by the
/// one shard executing that component — no cross-shard mutation exists.
class LinkFaultBank {
 public:
  /// (Re)binds the bank to a plane; `trunk` selects which profile applies.
  void reset(const FaultPlane* plane, bool trunk) {
    plane_ = plane;
    trunk_ = trunk;
    models_.clear();
  }

  /// The link's model, created on first use; nullptr when no plane is
  /// attached or the selected profile is entirely off (the zero-overhead
  /// default: delivery code skips the fault path completely).
  FaultModel* model_for(std::uint64_t link_id);

 private:
  const FaultPlane* plane_ = nullptr;
  bool trunk_ = false;
  std::unordered_map<std::uint64_t, FaultModel> models_;
};

/// Cluster-level fault configuration: the link/trunk profiles plus the
/// adversarial environment knobs (background cross traffic, per-host CPU
/// speed skew).  Parsed from the MCMPI_FAULTS environment variable when the
/// ClusterConfig does not set one explicitly.
struct FaultConfig {
  FaultProfile link;
  FaultProfile trunk;
  /// 0 derives the fault seed from the cluster seed.
  std::uint64_t seed = 0;
  /// ±fraction applied to each host's cpu_mhz via a deterministic per-host
  /// draw (0.1 = hosts run up to 10% faster or slower than spec'd).
  double host_speed_skew = 0.0;
  /// Background cross-traffic generator: `cross_flows` sender processes
  /// (flow i starts at host i mod N, targets another host's unused UDP
  /// port), each pacing `cross_frames` datagrams of `cross_bytes` at a
  /// jittered `cross_interval` — pure wire load that contends with the
  /// collectives under test.
  int cross_flows = 0;
  int cross_frames = 0;
  std::size_t cross_bytes = 512;
  SimTime cross_interval = microseconds(500);

  bool enabled() const {
    return link.active() || trunk.active() || host_speed_skew > 0.0 ||
           cross_flows > 0;
  }
  /// May frames be dropped or reordered anywhere?  Gates kAuto away from
  /// loss-intolerant algorithms (Proc::network_lossy).
  bool lossy() const { return link.lossy() || trunk.lossy(); }

  /// Parses the MCMPI_FAULTS syntax: comma-separated key=value pairs.
  ///   loss=0.01           independent link loss probability
  ///   burst=GB:BG:L       Gilbert–Elliott (P(g->b), P(b->g), loss in bad)
  ///   dup=0.001           duplication probability
  ///   reorder=0.01        reorder probability
  ///   jitter_us=50        reorder delay bound (microseconds)
  ///   trunk_loss=0.01     independent loss on bridge trunks
  ///   seed=7              fault seed (default: derived from cluster seed)
  ///   skew=0.1            per-host cpu speed skew fraction
  ///   xflows=4            background cross-traffic flows
  ///   xframes=200         datagrams per flow
  ///   xbytes=512          payload bytes per datagram
  ///   xinterval_us=500    mean inter-datagram gap (microseconds)
  /// Throws std::invalid_argument on unknown keys or malformed values.
  static FaultConfig parse(const std::string& spec);

  /// MCMPI_FAULTS from the environment; a disabled config when unset/empty.
  static FaultConfig from_env();
};

}  // namespace mcmpi::net::fault
