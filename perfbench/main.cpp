// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>]
//
// Runs one workload (workloads.hpp) for about <s> seconds of host time and
// prints every metric by name and unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (and writes the span
// trace).  See README.md for what each workload and metric is for.
//
// Run structure: the seed derives `sub_seeds` distinct schedules.  After one
// untimed warm-up pass, the run cycles over them — a fresh Cluster per
// pass — until the time is up (at least kMinCycles cycles).  Simulated
// metrics pool the first pass of every schedule; host metrics come from
// all the timed passes.  Every repeat must reproduce its schedule's latencies
// and counters exactly, and the traced pass must reproduce the untraced
// one, or the run fails.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "coll/fec.hpp"
#include "coll/gf256.hpp"
#include "pass.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using mcmpi::sim::ShardDriver;

constexpr int kMinCycles = 3;
/// Open-loop backlog guard: when the p50 latency of the second half of each
/// pass's items, pooled over the run's schedules, exceeds the first half's
/// by this factor, the offered rate is past saturation.
constexpr double kMaxHalfRatio = 1.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string state_dir = ".";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value != "0";
    } else if (key == "--state-dir") {
      o.state_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) {
    throw std::invalid_argument("options take one value each");
  }
  return o;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// A schedule's warm pass time: the mean of its repeated passes, so the
/// summed times give collectives per wall-second over every timed pass.
/// The host drifts between faster and slower regimes that last seconds;
/// across runs the mean moved least of the estimators tried (README.md).
double warm_time(const std::vector<double>& walls) {
  double sum = 0.0;
  for (const double wall : walls) {
    sum += wall;
  }
  return walls.empty() ? 0.0 : sum / static_cast<double>(walls.size());
}

/// Interquartile range over the median.
double rel_iqr(const std::vector<double>& v) {
  const double m = median(v);
  return m > 0.0 ? (percentile(v, 75.0) - percentile(v, 25.0)) / m : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The kAuto picks any workload makes, each reported on every workload so
/// the per-layer key set is fixed; anything else lands in "other".
constexpr const char* kAlgos[] = {"mpich",      "mcast-binary", "mcast",
                                   "mcast-scout", "ring",         "hier-mcast",
                                   "hier",        "mcast-segmented"};

/// Timed calls to the public gf256 encode/decode at lossy-trunk's default
/// window geometry: k data chunks of a 32 KiB bcast, r = ceil(k * overhead).
void time_gf256(std::vector<Span>& spans, double& encode_mb_s,
                double& decode_mb_s) {
  namespace gf = mcmpi::coll::gf256;
  const mcmpi::coll::FecConfig config;
  const int k = config.k;
  const int r = std::max(
      1, static_cast<int>(std::ceil(k * config.overhead)));
  const std::size_t chunk =
      mcmpi::coll::fec_plan(32 * 1024, config).chunk_bytes;
  std::vector<std::vector<std::uint8_t>> data(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    data[static_cast<std::size_t>(j)].resize(chunk);
    for (std::size_t b = 0; b < chunk; ++b) {
      data[static_cast<std::size_t>(j)][b] =
          static_cast<std::uint8_t>(mix(static_cast<std::uint64_t>(j), b));
    }
  }
  std::vector<std::vector<std::uint8_t>> parity(
      static_cast<std::size_t>(r), std::vector<std::uint8_t>(chunk));
  std::vector<std::span<const std::uint8_t>> data_spans(data.begin(),
                                                        data.end());
  std::vector<std::span<std::uint8_t>> parity_spans(parity.begin(),
                                                    parity.end());

  // Decode input: data chunk 3 lost, parity row 0 delivered.
  std::vector<std::span<const std::uint8_t>> received = data_spans;
  received[3] = {};
  const std::vector<gf::ParityRow> rows = {{0, parity[0]}};
  const std::vector<int> missing = {3};
  std::vector<std::uint8_t> rebuilt(chunk);
  const std::vector<std::span<std::uint8_t>> out = {rebuilt};

  constexpr int kBatches = 7;
  constexpr int kCalls = 400;
  std::vector<double> encode_rates;
  std::vector<double> decode_rates;
  for (int batch = 0; batch < kBatches; ++batch) {
    const std::int64_t e0 = host_now_ns();
    for (int c = 0; c < kCalls; ++c) {
      gf::encode_parity(data_spans, parity_spans);
    }
    const std::int64_t e1 = host_now_ns();
    for (int c = 0; c < kCalls; ++c) {
      gf::decode(received, rows, missing, out);
    }
    const std::int64_t d1 = host_now_ns();
    const auto id = static_cast<std::int64_t>(spans.size());
    spans.push_back(Span{"gf256.encode", id, -1, -1, -1, -1, -1, e0, e1});
    spans.push_back(Span{"gf256.decode", id + 1, -1, -1, -1, -1, -1, e1, d1});
    const double bytes = static_cast<double>(kCalls) * static_cast<double>(k) *
                         static_cast<double>(chunk);
    encode_rates.push_back(bytes / static_cast<double>(e1 - e0) * 1e3);
    decode_rates.push_back(bytes / static_cast<double>(d1 - e1) * 1e3);
  }
  if (rebuilt != data[3]) {
    throw std::runtime_error("gf256 decode did not rebuild the lost chunk");
  }
  encode_mb_s = median(encode_rates);
  decode_mb_s = median(decode_rates);
}

/// Chrome trace-event JSON: simulated spans under pid 1 + pass, host spans
/// under pid 1000; tid is the rank (0 for cluster-wide spans).
void write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& passes) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const Span& s, int pid, std::int64_t start,
                        std::int64_t end, std::size_t pass) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.rank + 1
        << ",\"ts\":" << number(static_cast<double>(start) * 1e-3)
        << ",\"dur\":" << number(static_cast<double>(end - start) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"coll\":" << s.coll << ",\"pass\":" << pass << "}}";
    first = false;
  };
  for (std::size_t k = 0; k < passes.size(); ++k) {
    for (const Span& s : passes[k]) {
      if (s.sim_start >= 0) {
        emit(s, 1 + static_cast<int>(k), s.sim_start, s.sim_end, k);
      }
      if (s.host_end > 0) {
        emit(s, 1000, s.host_start, s.host_end, k);
      }
    }
  }
  out << "\n]}\n";
}

/// Compares this run's per-schedule fingerprints with the ones an earlier
/// run of the same binary, workload and seed left in `dir`; records them
/// when there are none.  Returns the mismatches.
std::vector<std::string> check_previous_runs(
    const std::string& dir, const Options& o,
    const std::vector<std::uint64_t>& fingerprints) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  std::ostringstream identity;
  if (!ec) {
    identity << fs::file_size(exe, ec) << ":"
             << fs::last_write_time(exe, ec).time_since_epoch().count();
  }
  const fs::path path =
      fs::path(dir) / "fingerprints" /
      (o.workload + "-seed" + std::to_string(o.seed) + ".txt");
  std::ostringstream mine;
  mine << identity.str() << "\n";
  for (const std::uint64_t fp : fingerprints) {
    mine << std::hex << fp << "\n";
  }
  std::vector<std::string> problems;
  std::ifstream in(path);
  std::stringstream previous;
  previous << in.rdbuf();
  const std::string before = previous.str();
  const std::string id_line = identity.str() + "\n";
  if (in && before.rfind(id_line, 0) == 0) {
    if (before != mine.str()) {
      problems.push_back("determinism: fingerprints differ from an earlier run "
                         "of this seed (" + path.string() + ")");
    }
    return problems;
  }
  fs::create_directories(path.parent_path(), ec);
  std::ofstream(path) << mine.str();
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'; one of:";
    for (const Workload& each : workloads()) {
      std::cerr << " " << each.name;
    }
    std::cerr << "\n";
    return 2;
  }

  const auto n_schedules = static_cast<std::size_t>(w->sub_seeds);
  const std::vector<Schedule> schedules = w->schedules(mix(o.seed, 0x5EED));
  std::vector<std::uint64_t> cluster_seeds;
  for (std::size_t k = 0; k < n_schedules; ++k) {
    cluster_seeds.push_back(mix(o.seed, k));
  }
  const ShardDriver alt_driver = w->driver == ShardDriver::kSerial
                                     ? ShardDriver::kParallel
                                     : ShardDriver::kSerial;

  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::uint64_t> reference(n_schedules, 0);
  std::vector<char> have_reference(n_schedules, 0);
  const auto account = [&](std::size_t k, const PassResult& r,
                           const std::string& kind) {
    attempted += r.attempted;
    failed += r.failed;
    const std::string where = kind + " pass of schedule " + std::to_string(k);
    if (!r.error.empty()) {
      problems.push_back(where + " aborted: " + r.error);
    }
    if (!have_reference[k]) {
      reference[k] = r.fingerprint;
      have_reference[k] = 1;
    } else if (r.fingerprint != reference[k]) {
      problems.push_back("determinism: " + where +
                         " changed latencies or counters");
    }
  };

  // One untimed warm-up pass; it also fixes schedule 0's fingerprint.
  const PassResult warm =
      run_pass(*w, schedules[0], cluster_seeds[0], w->driver, false);
  account(0, warm, "warm-up");

  std::vector<std::vector<double>> walls(n_schedules);
  std::vector<std::vector<double>> traced_walls(n_schedules);
  std::vector<std::vector<double>> alt_walls(n_schedules);
  std::vector<double> setups;
  std::vector<PassResult> firsts(n_schedules);
  const std::int64_t deadline =
      host_now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  bool done = false;
  for (int cycle = 0; !done; ++cycle) {
    for (std::size_t k = 0; k < n_schedules; ++k) {
      if (cycle >= kMinCycles && host_now_ns() >= deadline) {
        done = true;
        break;
      }
      // Traced runs alternate which of the pair goes first, so neither
      // side always runs on the colder cache.
      const int kinds = o.trace ? 2 : 1;
      for (int t = 0; t < kinds; ++t) {
        const bool traced = o.trace && ((t == 0) == (cycle % 2 == 1));
        PassResult r =
            run_pass(*w, schedules[k], cluster_seeds[k], w->driver, traced);
        account(k, r, traced ? "traced" : "timed");
        (traced ? traced_walls : walls)[k].push_back(r.wall_s);
        setups.push_back(r.setup_s);
        if (traced == o.trace && cycle == 0) {
          firsts[k] = std::move(r);
        }
      }
      if (o.trace && w->segments > 1) {
        const PassResult r =
            run_pass(*w, schedules[k], cluster_seeds[k], alt_driver, false);
        account(k, r, "other-driver");
        alt_walls[k].push_back(r.wall_s);
      }
    }
  }
  for (const std::string& p : check_previous_runs(o.state_dir, o, reference)) {
    problems.push_back(p);
  }

  // Pool the first pass of every schedule.
  std::vector<double> latencies;
  std::vector<double> queue_wait;
  std::vector<double> skew;
  std::vector<double> service[kNumOps];
  Counters total;
  std::map<std::string, std::uint64_t> algo_counts;
  std::uint64_t peak_window = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t collectives = 0;
  std::size_t late_starts = 0;
  std::vector<double> halves[2];
  double pass_time = 0.0;  // summed warm pass times of all schedules
  double median_time = 0.0;
  double traced_time = 0.0;
  std::vector<double> normalized_walls;
  for (std::size_t k = 0; k < n_schedules; ++k) {
    const PassResult& r = firsts[k];
    for (int h = 0; h < 2; ++h) {
      halves[h].insert(halves[h].end(), r.latency_us[h].begin(),
                       r.latency_us[h].end());
      latencies.insert(latencies.end(), r.latency_us[h].begin(),
                       r.latency_us[h].end());
    }
    queue_wait.insert(queue_wait.end(), r.queue_wait_us.begin(),
                      r.queue_wait_us.end());
    skew.insert(skew.end(), r.finish_skew_us.begin(), r.finish_skew_us.end());
    for (int op = 0; op < kNumOps; ++op) {
      service[op].insert(service[op].end(), r.service_us[op].begin(),
                         r.service_us[op].end());
    }
    for (const auto& [name, value] : r.counters) {
      total[name] += value;
    }
    for (const auto& [name, count] : r.algo_counts) {
      algo_counts[name] += count;
    }
    peak_window =
        std::max(peak_window, r.counters.at("coll.chunk_peak_window"));
    payload_bytes += r.payload_bytes;
    collectives += r.attempted;
    late_starts += r.late_starts;
    pass_time += warm_time(walls[k]);
    const double m = median(walls[k]);
    median_time += m;
    traced_time += o.trace ? warm_time(traced_walls[k]) : 0.0;
    for (const double wall : walls[k]) {
      normalized_walls.push_back(wall / m);
    }
  }
  const auto n = static_cast<double>(collectives);
  const double half_ratio =
      ratio(percentile(halves[1], 50.0), percentile(halves[0], 50.0));
  if (w->open_loop && half_ratio > kMaxHalfRatio) {
    problems.push_back("backlog: p50 latency grew " + number(half_ratio) +
                       "x from the first to the second half of the passes");
  }
  const auto c = [&](const char* name) {
    return static_cast<double>(total[name]);
  };

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, std::string unit,
                       std::string note = {}) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  };
  const std::string pooled =
      "deterministic, " + std::to_string(collectives) + " collectives over " +
      std::to_string(n_schedules) + " schedules";
  const std::string passes = std::to_string(setups.size()) + " passes";
  if (!o.trace) {
    add("lat_p50_us", percentile(latencies, 50.0), "us", pooled);
    add("lat_p99_us", percentile(latencies, 99.0), "us", pooled);
    add("wire_bytes_per_coll", ratio(c("net.host_tx_bytes"), n), "B", pooled);
    add("wire_frames_per_coll", ratio(c("net.host_tx_frames"), n), "frames",
        pooled);
    add("host_coll_per_s", ratio(n, pass_time), "1/s",
        "pass IQR " + number(100.0 * rel_iqr(normalized_walls)) + "% over " +
            passes + "; at median pass times " +
            number(ratio(n, median_time)));
    add("setup_s", median(setups), "s",
        "IQR " + number(100.0 * rel_iqr(setups)) + "% over " + passes);
    add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB",
        "ru_maxrss");
  } else {
    double encode_mb_s = 0.0;
    double decode_mb_s = 0.0;
    std::vector<Span> gf_spans;
    time_gf256(gf_spans, encode_mb_s, decode_mb_s);
    double serial = pass_time;
    double parallel = pass_time;
    if (w->segments > 1) {
      double alt = 0.0;
      for (const auto& v : alt_walls) {
        alt += warm_time(v);
      }
      (w->driver == ShardDriver::kSerial ? parallel : serial) = alt;
    }
    const auto per = [&](const char* name) { return ratio(c(name), n); };
    const auto share = [&](const char* part, const char* rest) {
      return ratio(c(part), c(part) + c(rest));
    };
    add("sim.events_per_coll", per("sim.events_executed"), "events/coll");
    add("sim.handoffs_per_coll", per("sim.handoffs"), "handoffs/coll");
    add("sim.coalesced_delay_share",
        share("sim.coalesced_delays", "sim.handoffs"), "ratio");
    add("sim.batched_callback_share",
        share("sim.batched_callbacks", "sim.events_executed"), "ratio");
    add("sim.host_ns_per_event",
        ratio(pass_time * 1e9, c("sim.events_executed")), "ns");
    add("sim.event_pool_hit_ratio",
        share("sim.event_pool_hits", "sim.event_pool_misses"), "ratio");
    add("sim.parallel_over_serial", ratio(serial, parallel), "ratio",
        w->segments > 1 ? "" : "one shard: 1");
    add("payload.allocs_per_coll", per("payload.buffer_allocs"), "allocs/coll");
    add("payload.copies_per_coll", per("payload.byte_copies"), "copies/coll");
    add("payload.copy_amplification",
        ratio(c("payload.bytes_copied"), static_cast<double>(payload_bytes)),
        "ratio");
    add("net.deliveries_per_frame",
        ratio(c("net.deliveries"), c("net.host_tx_frames")), "ratio");
    add("net.filtered_share", share("net.filtered", "net.deliveries"), "ratio");
    add("net.collisions_per_coll", per("net.collisions"), "count/coll");
    add("net.backoffs_per_coll", per("net.backoffs"), "count/coll");
    add("net.queue_drops_per_coll", per("net.queue_drops"), "frames/coll");
    add("net.injected_drops_per_coll", per("net.injected_drops"),
        "frames/coll");
    add("inet.fragments_per_coll", per("inet.fragments_sent"), "frags/coll");
    add("inet.zero_copy_reassembly_share",
        ratio(c("inet.zero_copy_reassemblies"), c("inet.datagrams_received")),
        "ratio");
    add("inet.rcvbuf_drops_per_coll", per("inet.udp_buffer_full_drops"),
        "dgrams/coll");
    add("mpi.unexpected_share",
        ratio(c("mpi.unexpected_messages"),
              c("mpi.eager_sends") + c("mpi.rendezvous_sends")),
        "ratio");
    add("mpi.rendezvous_share",
        share("mpi.rendezvous_sends", "mpi.eager_sends"), "ratio");
    std::uint64_t named = 0;
    for (const char* algo : kAlgos) {
      const auto it = algo_counts.find(algo);
      const std::uint64_t count = it == algo_counts.end() ? 0 : it->second;
      named += count;
      add(std::string("coll.algo_share.") + algo,
          ratio(static_cast<double>(count), n), "ratio");
    }
    add("coll.algo_share.other", ratio(n - static_cast<double>(named), n),
        "ratio");
    for (int op = 0; op < kNumOps; ++op) {
      add(std::string("coll.service_p50_us.") + op_name(static_cast<Op>(op)),
          percentile(service[op], 50.0), "us",
          std::to_string(service[op].size()) + " rank calls");
    }
    add("coll.finish_skew_p50_us", percentile(skew, 50.0), "us");
    add("coll.retransmits_per_coll", per("coll.retransmits"), "frames/coll");
    add("coll.nacks_per_coll", per("coll.nacks_sent"), "nacks/coll");
    add("coll.nack_suppressed_share",
        ratio(c("coll.nacks_suppressed"), c("coll.nacks_sent")), "ratio");
    add("coll.parity_used_share",
        ratio(c("coll.parity_used"), c("coll.parity_sent")), "ratio");
    add("coll.fec_fallbacks_per_coll", per("coll.fec_fallbacks"),
        "rounds/coll");
    add("coll.chunk_retry_share",
        ratio(c("coll.chunk_retried"), c("coll.chunk_sent")), "ratio");
    add("coll.chunk_peak_window", static_cast<double>(peak_window), "chunks");
    add("coll.gf256_encode_mb_per_s", encode_mb_s, "MB/s");
    add("coll.gf256_decode_mb_per_s", decode_mb_s, "MB/s");
    add("cluster.queue_wait_p99_us", percentile(queue_wait, 99.0), "us");
    add("cluster.cold_pass_ratio", ratio(warm.wall_s, warm_time(walls[0])),
        "ratio");

    std::vector<std::vector<Span>> trace;
    for (const PassResult& r : firsts) {
      trace.push_back(r.spans);
    }
    trace.push_back(gf_spans);
    const std::string trace_path = o.state_dir + "/trace-" + o.workload +
                                   "-seed" + std::to_string(o.seed) + ".json";
    write_trace(trace_path, trace);
    std::cout << "trace: " << trace_path << "\n"
              << "tracing overhead: traced host_coll_per_s "
              << number(ratio(n, traced_time)) << " vs untraced "
              << number(ratio(n, pass_time)) << " (traced/untraced wall "
              << number(ratio(traced_time, pass_time)) << ")\n";
  }

  std::cout << "workload " << w->name << " seed " << o.seed << ": "
            << setups.size() << " timed passes, " << late_starts
            << " late starts";
  if (w->open_loop) {
    std::cout << ", second/first-half p50 " << number(half_ratio);
  }
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  }
  for (const std::string& p : problems) {
    std::cout << "FAIL " << p << "\n";
  }
  const bool correct = problems.empty() && failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
