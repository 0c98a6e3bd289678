#include "cluster/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "coll/hier.hpp"
#include "coll/tuning.hpp"
#include "common/assert.hpp"

namespace mcmpi::cluster {

std::string to_string(NetworkType type) {
  return type == NetworkType::kHub ? "hub" : "switch";
}

NetworkType parse_network(const std::string& name) {
  if (name == "hub") {
    return NetworkType::kHub;
  }
  if (name == "switch") {
    return NetworkType::kSwitch;
  }
  throw std::invalid_argument("unknown network type: " + name);
}

unsigned default_sim_shards() {
  static const unsigned cached = [] {
    const char* env = std::getenv("MCMPI_SIM_SHARDS");
    if (env != nullptr && *env != '\0') {
      const long value = std::strtol(env, nullptr, 10);
      if (value >= 1 && value <= 0xFFFF) {
        return static_cast<unsigned>(value);
      }
    }
    return 1u;
  }();
  return cached;
}

int Cluster::segment_of_rank(int rank) const {
  MC_EXPECTS(rank >= 0 && rank < config_.num_procs);
  // Contiguous blocks, first segments one host larger on uneven splits.
  const auto r = static_cast<std::int64_t>(rank);
  return static_cast<int>(r * config_.num_segments / config_.num_procs);
}

unsigned Cluster::shard_of_segment(int segment) const {
  MC_EXPECTS(segment >= 0 && segment < config_.num_segments);
  // Identity: one logical shard per segment (workers multiplex them), so
  // scheduler counters and timings are a pure function of the topology.
  return static_cast<unsigned>(segment);
}

SimTime Cluster::trunk_latency(int seg_a, int seg_b) const {
  MC_EXPECTS(seg_a != seg_b);
  MC_EXPECTS(seg_a >= 0 && seg_a < config_.num_segments);
  MC_EXPECTS(seg_b >= 0 && seg_b < config_.num_segments);
  if (config_.trunk_latency_of) {
    // Latency is symmetric; query with the canonical (low, high) order so
    // asymmetric user callbacks cannot desynchronize the two directions.
    const SimTime t = config_.trunk_latency_of(std::min(seg_a, seg_b),
                                               std::max(seg_a, seg_b));
    if (t > kTimeZero) {
      return t;
    }
  }
  return config_.trunk_latency;
}

net::NetCounters Cluster::net_counters() const {
  net::NetCounters total;
  for (const auto& network : networks_) {
    total += network->counters();
  }
  return total;
}

void Cluster::reset_net_counters() {
  for (const auto& network : networks_) {
    network->reset_counters();
  }
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  MC_EXPECTS_MSG(config_.num_procs >= 1, "need at least one process");
  MC_EXPECTS_MSG(config_.num_segments >= 1 &&
                     config_.num_segments <= config_.num_procs,
                 "segments must be between 1 and the process count");
  MC_EXPECTS_MSG(config_.sim_shards >= 1, "need at least one shard");
  MC_EXPECTS_MSG(config_.num_segments == 1 ||
                     config_.trunk_latency > kTimeZero,
                 "multi-segment topologies need a positive trunk latency");
  if (config_.hosts.empty()) {
    config_.hosts.assign(kEagleHosts, kEagleHosts + kMaxEagleHosts);
  }
  MC_EXPECTS_MSG(
      config_.num_procs <= static_cast<int>(config_.hosts.size()),
      "more processes than hosts (one process per machine, as in the paper)");
  if (!config_.faults.enabled()) {
    config_.faults = net::fault::FaultConfig::from_env();
  }
  const net::fault::FaultConfig& faults = config_.faults;
  fault_seed_ =
      faults.seed != 0 ? faults.seed : config_.seed ^ 0xFA017ULL;

  // One logical shard per segment; `sim_shards` only sizes the worker pool
  // the parallel driver multiplexes those shards onto.  Per-pair trunk
  // latencies (when configured) become the simulator's lookahead matrix so
  // one slow trunk does not throttle unrelated shard pairs.
  const auto num_shards = static_cast<unsigned>(config_.num_segments);
  sim::ShardingConfig sharding{num_shards, config_.trunk_latency,
                               config_.shard_driver, config_.payload_pool};
  sharding.workers = std::min(config_.sim_shards, num_shards);
  if (config_.num_segments > 1 && config_.trunk_latency_of) {
    sharding.lookahead_matrix.assign(
        static_cast<std::size_t>(num_shards) * num_shards, kTimeZero);
    for (int a = 0; a < config_.num_segments; ++a) {
      for (int b = a + 1; b < config_.num_segments; ++b) {
        const SimTime t = trunk_latency(a, b);
        const auto ab = static_cast<std::size_t>(a) * num_shards +
                        static_cast<std::size_t>(b);
        const auto ba = static_cast<std::size_t>(b) * num_shards +
                        static_cast<std::size_t>(a);
        sharding.lookahead_matrix[ab] = t;
        sharding.lookahead_matrix[ba] = t;
      }
    }
  }
  sim_ = std::make_unique<sim::Simulator>(config_.seed, config_.sim_backend,
                                          std::move(sharding));

  // One network per segment.  Multi-segment hubs get private per-device
  // backoff streams keyed by (seed, segment): with several collision
  // domains live, drawing from the executing shard's RNG would make
  // timings a function of the shard layout.  Single-segment hubs keep the
  // legacy shard-0 stream the committed baselines pin.
  for (int s = 0; s < config_.num_segments; ++s) {
    if (config_.network == NetworkType::kHub) {
      auto hub = std::make_unique<net::Hub>(*sim_, config_.hub);
      if (config_.num_segments > 1) {
        hub->seed_backoff_stream(config_.seed, static_cast<std::uint64_t>(s));
      }
      networks_.push_back(std::move(hub));
    } else {
      networks_.push_back(
          std::make_unique<net::Switch>(*sim_, config_.switch_params));
    }
  }

  Rng host_seeds(config_.seed ^ 0xC1A55D00DULL);
  std::vector<mpi::World::RankResources> resources;
  for (int i = 0; i < config_.num_procs; ++i) {
    const HostSpec& spec = config_.hosts[static_cast<std::size_t>(i)];
    const int segment = segment_of_rank(i);
    auto host = std::make_unique<Host>();
    const inet::IpAddr addr = inet::IpAddr::host(static_cast<std::uint32_t>(i));
    const net::MacAddr mac = net::MacAddr::host(static_cast<std::uint32_t>(i));
    arp_.add(addr, mac);
    mac_segments_.emplace(mac, segment);
    host->nic = std::make_unique<net::Nic>(*sim_, mac,
                                           "eagle" + std::to_string(i + 1));
    host->nic->set_segment(static_cast<std::uint16_t>(segment));
    host->nic->attach_to(network(segment));
    host->ip = std::make_unique<inet::IpStack>(*sim_, *host->nic, addr, arp_);
    host->udp = std::make_unique<inet::UdpStack>(*host->ip);
    host->rdp = std::make_unique<inet::RdpEndpoint>(*host->udp);
    // Per-host speed skew: a deterministic ±skew fraction on the spec'd
    // clock, drawn from (fault seed, host index) so the same seed always
    // yields the same heterogeneous cluster.
    double cpu_mhz = spec.cpu_mhz;
    if (faults.host_speed_skew > 0.0) {
      cpu_mhz *= 1.0 + faults.host_speed_skew *
                           (2.0 * net::fault::hash_unit(
                                      fault_seed_,
                                      0x5EED0000ULL +
                                          static_cast<std::uint64_t>(i)) -
                            1.0);
    }
    host->costs = std::make_unique<CalibratedCosts>(
        config_.costs, cpu_mhz, host_seeds.fork(static_cast<std::uint64_t>(i)));
    resources.push_back(mpi::World::RankResources{
        host->udp.get(), host->rdp.get(), host->costs.get(), addr,
        shard_of_segment(segment), segment});
    hosts_.push_back(std::move(host));
  }

  // Full trunk mesh between segments; the static destination table reads
  // the host map built above (stable for the cluster's lifetime).  O(1)
  // lookup: every promiscuous bridge port consults it once per unicast
  // frame on its segment.
  const auto* mac_segments = &mac_segments_;
  const net::Bridge::SegmentOf segment_of = [mac_segments](net::MacAddr mac) {
    const auto it = mac_segments->find(mac);
    return it != mac_segments->end() ? it->second : -1;
  };
  std::uint32_t bridge_index = 0;
  for (int a = 0; a < config_.num_segments; ++a) {
    for (int b = a + 1; b < config_.num_segments; ++b) {
      const std::string label =
          "trunk" + std::to_string(a) + "-" + std::to_string(b);
      net::Bridge::PortConfig port_a{
          &network(a), static_cast<std::uint16_t>(a), shard_of_segment(a),
          net::MacAddr::host(0xB0000000u + bridge_index * 2),
          label + "/seg" + std::to_string(a)};
      net::Bridge::PortConfig port_b{
          &network(b), static_cast<std::uint16_t>(b), shard_of_segment(b),
          net::MacAddr::host(0xB0000001u + bridge_index * 2),
          label + "/seg" + std::to_string(b)};
      bridges_.push_back(std::make_unique<net::Bridge>(
          *sim_, port_a, port_b, trunk_latency(a, b), segment_of));
      ++bridge_index;
    }
  }

  // Attach the fault plane to every delivery edge.  The plane is shared
  // and immutable; each network / bridge port grows its own per-link model
  // bank on its own shard.
  if (faults.link.active() || faults.trunk.active()) {
    fault_plane_ = std::make_unique<net::fault::FaultPlane>(
        net::fault::FaultPlane{faults.link, faults.trunk, fault_seed_});
    for (auto& network : networks_) {
      network->set_fault_plane(fault_plane_.get());
    }
    for (auto& bridge : bridges_) {
      bridge->set_fault_plane(fault_plane_.get());
    }
  }

  world_ = std::make_unique<mpi::World>(*sim_, resources);
  for (int i = 0; i < config_.num_procs; ++i) {
    world_->proc(i).engine().set_eager_threshold(config_.eager_threshold);
    world_->proc(i).set_mcast_recv_buffer(config_.mcast_rcvbuf_bytes);
    world_->proc(i).set_network_lossy(faults.lossy());
  }
  if (!config_.coll_tuning.empty()) {
    world_->set_coll_tuning(coll::TuningTable::parse(config_.coll_tuning));
  }
  if (config_.num_segments > 1) {
    // Snooping-bridge multicast scoping: when a derived communicator's
    // members all live on one segment, tell every trunk bridge to stop
    // flooding its multicast group off that segment.  The marks land via a
    // simulator event on the owning segment's shard — bridge port state is
    // shard-private — delayed by the SLOWEST trunk so the hop satisfies the
    // cross-shard lookahead bound from whichever shard the creating rank
    // runs on (any direct trunk is at least the closure lookahead).  Until
    // the event lands the group floods exactly as before: slower, never
    // incorrect, and deterministic either way.
    SimTime max_trunk = kTimeZero;
    for (int a = 0; a < config_.num_segments; ++a) {
      for (int b = a + 1; b < config_.num_segments; ++b) {
        max_trunk = std::max(max_trunk, trunk_latency(a, b));
      }
    }
    world_->set_group_scope_hook(
        [this, max_trunk](const mpi::CommInfo& info, int segment) {
          const net::MacAddr group =
              net::MacAddr::ip_multicast(info.mcast_addr().bits());
          const auto seg = static_cast<std::uint16_t>(segment);
          sim_->schedule_cross(shard_of_segment(segment),
                               sim_->now() + max_trunk, [this, group, seg] {
                                 for (auto& bridge : bridges_) {
                                   bridge->scope_group(group, seg);
                                 }
                               });
        });
  }
  if (config_.num_segments > 1) {
    // Topology knob for the hierarchical algorithms' analytic cost hints:
    // one trunk crossing in units of intra-segment frame times (~125 us
    // per full frame at 100 Mb/s).  Advisory only — never semantics.
    const double trunk_us =
        static_cast<double>(config_.trunk_latency.count()) / 1000.0;
    coll::set_hier_cost_hint(config_.num_segments,
                             std::max(1.0, trunk_us / 125.0));
  }

  // Background cross-traffic flows: pure wire load, paced by a forked
  // deterministic RNG, aimed at a port nobody listens on (the receiver's
  // no_socket_drops counts them).  Bounded frame counts keep every run
  // terminating.
  for (int flow = 0; flow < faults.cross_flows; ++flow) {
    const int src = flow % config_.num_procs;
    const int dst = (src + 1 + flow / config_.num_procs) % config_.num_procs;
    if (dst == src) {
      continue;  // single-process cluster: nothing to cross
    }
    auto socket = hosts_[static_cast<std::size_t>(src)]->udp->open(0);
    inet::UdpSocket* sock = socket.get();
    cross_sockets_.push_back(std::move(socket));
    const auto dst_addr = inet::IpAddr::host(static_cast<std::uint32_t>(dst));
    const auto dst_port =
        static_cast<std::uint16_t>(40000 + (flow & 0x3FF));
    Rng rng(fault_seed_ ^ (0xCF000000ULL + static_cast<std::uint64_t>(flow)));
    const int frames = faults.cross_frames;
    const std::size_t bytes = faults.cross_bytes;
    const SimTime interval = faults.cross_interval;
    sim_->spawn_on(
        shard_of_segment(segment_of_rank(src)),
        "xflow" + std::to_string(flow),
        [sock, dst_addr, dst_port, rng, frames, bytes,
         interval](sim::SimProcess& self) mutable {
          const Buffer payload(bytes, std::uint8_t{0xCF});
          for (int k = 0; k < frames; ++k) {
            const double jitter = rng.uniform(0.5, 1.5);
            self.delay(SimTime{static_cast<std::int64_t>(
                static_cast<double>(interval.count()) * jitter)});
            sock->sendto(dst_addr, dst_port, payload);
          }
        });
  }
}

}  // namespace mcmpi::cluster
