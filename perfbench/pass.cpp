#include "pass.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/bytes.hpp"
#include "mpi/world.hpp"

namespace perfbench {

using mcmpi::SimTime;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// What one rank saw of each of its communicator's items.
struct RankLog {
  std::vector<std::int64_t> entry;  ///< simulated ns
  std::vector<std::int64_t> exit;
  std::vector<std::int64_t> host_entry;
  std::vector<std::int64_t> host_exit;
  std::vector<char> returned;
  std::vector<char> correct;
  std::vector<char> late;  ///< still busy at the scheduled start
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
  }
  return h;
}

void read_counters(Counters& out, mcmpi::cluster::Cluster& cluster,
                   const mcmpi::PayloadCounters& payload) {
  const mcmpi::sim::SchedCounters s = cluster.simulator().sched_counters();
  out["sim.handoffs"] = s.handoffs;
  out["sim.coalesced_delays"] = s.coalesced_delays;
  out["sim.batched_callbacks"] = s.batched_callbacks;
  out["sim.events_executed"] = s.events_executed;
  out["sim.event_pool_hits"] = s.event_pool_hits;
  out["sim.event_pool_misses"] = s.event_pool_misses;
  out["coll.chunk_sent"] = s.chunk_sent;
  out["coll.chunk_acked"] = s.chunk_acked;
  out["coll.chunk_retried"] = s.chunk_retried;
  out["coll.chunk_peak_window"] = s.chunk_peak_window;
  out["net.frames_dropped"] = s.frames_dropped;
  out["net.frames_duplicated"] = s.frames_duplicated;
  out["net.frames_reordered"] = s.frames_reordered;
  out["coll.nacks_sent"] = s.nacks_sent;
  out["coll.nacks_suppressed"] = s.nacks_suppressed;
  out["coll.retransmits"] = s.retransmits;
  out["coll.parity_sent"] = s.parity_sent;
  out["coll.parity_used"] = s.parity_used;
  out["coll.fec_decodes"] = s.fec_decodes;
  out["coll.fec_fallbacks"] = s.fec_fallbacks;

  const mcmpi::net::NetCounters n = cluster.net_counters();
  out["net.host_tx_frames"] = n.host_tx_frames;
  out["net.host_tx_bytes"] = n.host_tx_bytes;
  out["net.host_tx_ack_frames"] = n.host_tx_ack_frames;
  out["net.deliveries"] = n.deliveries;
  out["net.filtered"] = n.filtered;
  out["net.collisions"] = n.collisions;
  out["net.backoffs"] = n.backoffs;
  out["net.excessive_collision_drops"] = n.excessive_collision_drops;
  out["net.injected_drops"] = n.injected_drops;
  out["net.queue_drops"] = n.queue_drops;

  out["payload.buffer_allocs"] = payload.buffer_allocs;
  out["payload.bytes_allocated"] = payload.bytes_allocated;
  out["payload.byte_copies"] = payload.byte_copies;
  out["payload.bytes_copied"] = payload.bytes_copied;
  out["payload.slices"] = payload.slices;

  for (int r = 0; r < cluster.num_procs(); ++r) {
    const mcmpi::inet::IpStats& ip = cluster.ip(r).stats();
    out["inet.fragments_sent"] += ip.fragments_sent;
    out["inet.datagrams_received"] += ip.datagrams_received;
    out["inet.zero_copy_reassemblies"] += ip.zero_copy_reassemblies;
    out["inet.reassembly_timeouts"] += ip.reassembly_timeouts;
    const mcmpi::inet::UdpStats& udp = cluster.udp(r).stats();
    out["inet.udp_buffer_full_drops"] += udp.buffer_full_drops;
    out["inet.udp_datagrams_sent"] += udp.datagrams_sent;
    const mcmpi::mpi::EngineStats& e = cluster.world().proc(r).engine().stats();
    out["mpi.eager_sends"] += e.eager_sends;
    out["mpi.rendezvous_sends"] += e.rendezvous_sends;
    out["mpi.unexpected_messages"] += e.unexpected_messages;
  }
}

}  // namespace

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

PassResult run_pass(const Workload& workload, const Schedule& schedule,
                    std::uint64_t cluster_seed, mcmpi::sim::ShardDriver driver,
                    bool traced) {
  PassResult result;
  const int comms = workload.comms;
  const auto n_items = static_cast<std::size_t>(workload.items_per_comm);
  constexpr std::int64_t kMaxSkewNs = 20'000;  // §4: ranks enter within 20 us

  const std::int64_t t0 = host_now_ns();
  mcmpi::cluster::Cluster cluster(
      workload.cluster_config(cluster_seed, driver));
  const std::int64_t t1 = host_now_ns();
  result.setup_s = static_cast<double>(t1 - t0) * 1e-9;

  std::vector<RankLog> logs(static_cast<std::size_t>(workload.procs));
  for (RankLog& log : logs) {
    log.entry.assign(n_items, 0);
    log.exit.assign(n_items, 0);
    log.host_entry.assign(n_items, 0);
    log.host_exit.assign(n_items, 0);
    log.returned.assign(n_items, 0);
    log.correct.assign(n_items, 0);
    log.late.assign(n_items, 0);
  }
  // algos[c][i]: written only by communicator c's rank 0.
  std::vector<std::vector<std::string>> algos(
      static_cast<std::size_t>(comms), std::vector<std::string>(n_items));

  mcmpi::sim::Simulator& sim = cluster.simulator();
  const SimTime base = sim.now();
  const mcmpi::PayloadCounters payload_before = mcmpi::payload_counters();
  const std::int64_t sim_start = base.count();
  const std::int64_t t2 = host_now_ns();
  try {
    cluster.world().run([&](mcmpi::mpi::Proc& p) {
      const int c = p.rank() % comms;
      mcmpi::mpi::Comm comm =
          comms == 1 ? p.comm_world() : p.split(p.comm_world(), c, p.rank());
      mcmpi::coll::Coll coll = comm.coll();
      const auto& items = schedule[static_cast<std::size_t>(c)];
      RankLog& log = logs[static_cast<std::size_t>(p.rank())];
      for (std::size_t i = 0; i < items.size(); ++i) {
        const Item& item = items[i];
        const SimTime start = base + SimTime{item.at_ns};
        log.late[i] = p.self().now() > start;
        SimTime enter = std::max(p.self().now(), start);
        if (!workload.open_loop) {
          enter += SimTime{static_cast<std::int64_t>(
              p.self().rng().below(kMaxSkewNs + 1))};
        }
        p.self().delay_until(enter);
        if (traced && comm.rank() == 0) {
          algos[static_cast<std::size_t>(c)][i] = coll.resolve(
              coll_op(item.op), call_bytes(item, comm.size()));
        }
        log.entry[i] = p.self().now().count();
        log.host_entry[i] = traced ? host_now_ns() : 0;
        const std::uint64_t salt =
            mix(cluster_seed, static_cast<std::uint64_t>(c) * n_items + i);
        log.correct[i] = execute(coll, item, comm.rank(), comm.size(), salt);
        log.returned[i] = 1;
        log.exit[i] = p.self().now().count();
        log.host_exit[i] = traced ? host_now_ns() : 0;
      }
    });
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "non-standard exception";
  }
  const std::int64_t t3 = host_now_ns();
  result.wall_s = static_cast<double>(t3 - t2) * 1e-9;
  read_counters(result.counters, cluster,
                mcmpi::payload_counters().since(payload_before));

  std::int64_t next_id = 0;
  const std::int64_t run_span = traced ? 1 : -1;
  if (traced) {
    result.spans.push_back(Span{"cluster.construct", next_id++, -1, -1, -1, -1,
                                -1, t0, t1});
    result.spans.push_back(Span{"world.run", next_id++, -1, -1, -1, sim_start,
                                sim.now().count(), t2, t3});
  }

  std::uint64_t fp = 0xCBF29CE484222325ULL;
  for (int c = 0; c < comms; ++c) {
    const auto& items = schedule[static_cast<std::size_t>(c)];
    std::vector<int> members;
    for (int r = c; r < workload.procs; r += comms) {
      members.push_back(r);
    }
    const int size = static_cast<int>(members.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      const std::int64_t start = base.count() + item.at_ns;
      ++result.attempted;
      bool ok = true;
      bool late = false;
      std::int64_t first_exit = INT64_MAX;
      std::int64_t last_exit = 0;
      for (const int r : members) {
        const RankLog& log = logs[static_cast<std::size_t>(r)];
        ok = ok && log.returned[i] && log.correct[i];
        late = late || log.late[i];
        first_exit = std::min(first_exit, log.exit[i]);
        last_exit = std::max(last_exit, log.exit[i]);
      }
      if (!ok) {
        ++result.failed;
        fp = fnv(fp, ~0ULL);
        continue;
      }
      result.late_starts += late ? 1 : 0;
      result.payload_bytes +=
          item.op == Op::kAllgather
              ? call_bytes(item, size) * static_cast<std::size_t>(size)
              : item.bytes;
      const double latency_us = static_cast<double>(last_exit - start) * 1e-3;
      result.latency_us[i < items.size() / 2 ? 0 : 1].push_back(latency_us);
      fp = fnv(fp, static_cast<std::uint64_t>(last_exit - start));
      if (!traced) {
        continue;
      }
      ++result.algo_counts[algos[static_cast<std::size_t>(c)][i]];
      result.finish_skew_us.push_back(
          static_cast<double>(last_exit - first_exit) * 1e-3);
      const std::int64_t coll_id =
          static_cast<std::int64_t>(static_cast<std::size_t>(c) * n_items + i);
      const std::int64_t arrival_id = next_id++;
      Span arrival{"coll.arrival", arrival_id, run_span, coll_id, -1, start,
                   last_exit, INT64_MAX, 0};
      for (const int r : members) {
        const RankLog& log = logs[static_cast<std::size_t>(r)];
        arrival.host_start = std::min(arrival.host_start, log.host_entry[i]);
        arrival.host_end = std::max(arrival.host_end, log.host_exit[i]);
        result.service_us[static_cast<int>(item.op)].push_back(
            static_cast<double>(last_exit - log.entry[i]) * 1e-3);
        result.queue_wait_us.push_back(
            static_cast<double>(log.entry[i] - start) * 1e-3);
        result.spans.push_back(Span{std::string("coll.") + op_name(item.op),
                                    next_id++, arrival_id, coll_id, r,
                                    log.entry[i], log.exit[i],
                                    log.host_entry[i], log.host_exit[i]});
      }
      result.spans.push_back(arrival);
    }
  }
  for (const auto& entry : result.counters) {
    fp = fnv(fp, entry.second);
  }
  result.fingerprint = fp;
  return result;
}

}  // namespace perfbench
