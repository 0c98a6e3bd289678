#pragma once
/// \file cluster.hpp
/// One-call construction of a simulated testbed: N hosts on one or more
/// hub/switch segments (joined by fixed-latency trunks), full protocol
/// stacks, and an MPI world on top.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/calibration.hpp"
#include "inet/rdp.hpp"
#include "inet/udp.hpp"
#include "mpi/world.hpp"
#include "net/bridge.hpp"
#include "net/fault.hpp"
#include "net/hub.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::cluster {

enum class NetworkType { kHub, kSwitch };

std::string to_string(NetworkType type);
NetworkType parse_network(const std::string& name);

/// Simulator shard count from MCMPI_SIM_SHARDS (default 1).  Read once.
unsigned default_sim_shards();

struct ClusterConfig {
  int num_procs = 4;
  NetworkType network = NetworkType::kHub;
  std::uint64_t seed = 1;
  /// Process model for the simulator: fibers by default, threads as the
  /// fallback/oracle (both produce bit-identical runs; see
  /// docs/ARCHITECTURE.md).  Honors MCMPI_SIM_BACKEND unless overridden.
  sim::ExecutionBackend sim_backend = sim::default_execution_backend();
  /// Number of network segments (each its own hub or switch, all of
  /// `network` type) joined by a full mesh of trunks.  Hosts are assigned
  /// to segments in contiguous blocks.  1 = the paper's single-segment
  /// testbed.
  int num_segments = 1;
  /// Trunk hop latency between segments (backbone store-and-forward +
  /// propagation).  Doubles as the sharded simulator's conservative
  /// lookahead (per-pair when trunk_latency_of refines it).
  SimTime trunk_latency = microseconds_f(30.0);
  /// Optional per-pair trunk latency: called once per segment pair (a < b)
  /// at construction; returning a non-positive time falls back to
  /// trunk_latency.  Null = uniform trunk_latency.  Feeds both the bridges
  /// and the simulator's per-pair lookahead matrix, so a slow WAN trunk
  /// between two segments no longer throttles every other shard's window.
  std::function<SimTime(int, int)> trunk_latency_of;
  /// Worker threads the sharded simulator multiplexes the segments onto
  /// (the simulator always creates one LOGICAL shard per segment, so
  /// timings and scheduler counters are a pure function of the topology —
  /// never of this count).  Honors MCMPI_SIM_SHARDS unless overridden;
  /// clamped to the segment count.  A single-segment cluster always
  /// behaves exactly like an unsharded one.
  unsigned sim_shards = default_sim_shards();
  /// Thread model executing a multi-shard simulation's rounds.  The serial
  /// driver is the determinism reference; the parallel driver must be (and
  /// is tested to be) bit-identical.  Honors MCMPI_SIM_SHARD_DRIVER.
  sim::ShardDriver shard_driver = sim::default_shard_driver();
  /// Per-shard payload buffer pooling (see sim::ShardingConfig).  Off by
  /// default so committed bench baselines keep their payload_allocs pins;
  /// throughput-mode runs opt in.
  bool payload_pool = false;
  CostParams costs;
  net::Hub::Params hub;
  net::Switch::Params switch_params;
  std::int64_t eager_threshold = 64 * 1024;
  /// Multicast-channel receive buffer per rank (SO_RCVBUF analogue).
  std::size_t mcast_rcvbuf_bytes = 256 * 1024;
  /// Collective auto-selection rules (coll/tuning.hpp rule syntax).  Empty
  /// defers to MCMPI_COLL_TUNING, then to the paper-crossover defaults.
  std::string coll_tuning;
  /// Adversarial-network fault injection (per-link loss/burst/dup/reorder,
  /// per-host speed skew, background cross traffic).  Disabled by default;
  /// a disabled config defers to the MCMPI_FAULTS environment variable.
  /// When loss or reorder is configured, every proc is flagged
  /// network-lossy and kAuto restricts itself to loss-tolerant algorithms.
  net::fault::FaultConfig faults;
  /// Host table; defaults to the paper's eagle cluster mix (nine machines —
  /// pass make_uniform_hosts(n) explicitly for bigger topologies).
  std::vector<HostSpec> hosts;
};

/// A complete simulated cluster.  Builds (bottom-up): simulator (sharded
/// when configured), per-segment network, trunk bridges, per-host NIC + IP
/// + UDP + RDP + cost model, then the MPI world with every rank pinned to
/// its segment's shard.
///
/// Member declaration order is load-bearing: the simulator is declared
/// last so it is destroyed FIRST — tearing it down unwinds any still-parked
/// rank processes while the sockets and stacks their stacks reference are
/// still alive.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *sim_; }
  mpi::World& world() { return *world_; }
  int num_procs() const { return config_.num_procs; }

  int num_segments() const { return config_.num_segments; }
  /// Segment a rank's host sits on (contiguous blocks).
  int segment_of_rank(int rank) const;
  /// Simulator shard owning a segment.  Identity: the cluster always
  /// creates one logical shard per segment and multiplexes them onto
  /// `sim_shards` workers, so the event schedule never depends on the
  /// worker count.
  unsigned shard_of_segment(int segment) const;
  /// Trunk latency between two distinct segments (trunk_latency_of when
  /// set and positive, else the uniform trunk_latency).
  SimTime trunk_latency(int seg_a, int seg_b) const;

  /// Segment 0's network — the whole network of a single-segment cluster.
  net::Network& network() { return *networks_.front(); }
  net::Network& network(int segment) {
    return *networks_.at(static_cast<std::size_t>(segment));
  }
  /// Trunks, in (a, b) pair order over segments (empty when single-segment).
  const std::vector<std::unique_ptr<net::Bridge>>& bridges() const {
    return bridges_;
  }

  /// Frame counters summed over every segment (equals network().counters()
  /// on a single-segment cluster).
  net::NetCounters net_counters() const;
  void reset_net_counters();

  /// The attached fault plane, or nullptr when fault injection is off.
  const net::fault::FaultPlane* fault_plane() const {
    return fault_plane_.get();
  }
  /// The seed the fault models (and speed skew) actually used.
  std::uint64_t fault_seed() const { return fault_seed_; }

  /// Host stack access for tests.
  inet::UdpStack& udp(int rank) { return *hosts_.at(static_cast<std::size_t>(rank))->udp; }
  inet::IpStack& ip(int rank) { return *hosts_.at(static_cast<std::size_t>(rank))->ip; }
  net::Nic& nic(int rank) { return *hosts_.at(static_cast<std::size_t>(rank))->nic; }

 private:
  struct Host {
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<inet::IpStack> ip;
    std::unique_ptr<inet::UdpStack> udp;
    std::unique_ptr<inet::RdpEndpoint> rdp;
    std::unique_ptr<CalibratedCosts> costs;
  };

  ClusterConfig config_;
  /// Shared by every network and bridge (const pointer); declared right
  /// after the config so it outlives all of them.
  std::unique_ptr<net::fault::FaultPlane> fault_plane_;
  std::uint64_t fault_seed_ = 0;
  inet::ArpTable arp_;
  /// MAC -> segment table the trunk bridges route unicast with; declared
  /// before the bridges that capture it.
  std::unordered_map<net::MacAddr, int> mac_segments_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<net::Network>> networks_;  // one per segment
  std::vector<std::unique_ptr<net::Bridge>> bridges_;
  /// Sender sockets of the background cross-traffic flows; destroyed after
  /// the simulator (which unwinds the flow processes using them).
  std::vector<std::unique_ptr<inet::UdpSocket>> cross_sockets_;
  std::unique_ptr<mpi::World> world_;
  std::unique_ptr<sim::Simulator> sim_;  // destroyed first — see class doc
};

}  // namespace mcmpi::cluster
