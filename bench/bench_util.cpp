#include "bench_util.hpp"

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>

namespace mcmpi::bench {

namespace {

/// Registry for the machine-readable dump; flushed at exit.
struct BenchJsonState {
  std::string name = "bench";
  std::vector<BenchRecord> records;
};

BenchJsonState& json_state() {
  static BenchJsonState state;
  return state;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

void set_bench_name_from_argv0(const char* argv0) {
  std::string name(argv0 != nullptr ? argv0 : "bench");
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (!name.empty()) {
    json_state().name = name;
  }
}

void write_value(std::ostream& os, const JsonValue& value) {
  std::visit(
      [&os](const auto& v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::string>) {
          os << '"' << json_escape(v) << '"';
        } else {
          os << v;
        }
      },
      value);
}

void write_fields(std::ostream& os, const Fields& fields) {
  os << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << json_escape(fields[i].first)
       << "\": ";
    write_value(os, fields[i].second);
  }
  os << '}';
}

/// Counters that measure cost: bench_diff lets them fall against the
/// baseline (reported as improvements) but never rise.  Every other counter
/// must match its baseline exactly.
constexpr const char* kCostCounters[] = {"events_scheduled", "handoffs",
                                         "payload_allocs", "payload_copies",
                                         "event_pool_misses"};

/// Set by the first failed claim; claims_exit_code() reports it.
bool any_claim_failed = false;

/// CPUs this process may run on: its affinity mask, which taskset or a
/// cpuset narrows below the host's hardware threads.
unsigned usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&mask));
}

/// Appends a record to the JSON dump.
void record_bench(BenchRecord record) {
  json_state().records.push_back(std::move(record));
}

/// The deterministic counters of one simulated point: its simulated
/// latency, the events scheduled, and every SchedCounters field.
Fields sim_counters(double sim_time_us, const sim::Simulator& simulator) {
  Fields counters{{"sim_time_us", sim_time_us},
                  {"events_scheduled", simulator.events_scheduled()}};
  const sim::SchedCounters sched = simulator.sched_counters();
  sim::for_each_counter(
      sched,
      [&counters](const char* name, std::uint64_t value, sim::CounterMerge) {
        counters.emplace_back(name, value);
      });
  return counters;
}

}  // namespace

void flush_bench_json() {
  BenchJsonState& state = json_state();
  if (state.records.empty()) {
    return;
  }
  std::ostringstream os;
  os << "{\"bench\": \"" << json_escape(state.name) << "\",\n"
     << " \"cost_counters\": [";
  for (std::size_t i = 0; i < std::size(kCostCounters); ++i) {
    os << (i > 0 ? ", " : "") << '"' << kCostCounters[i] << '"';
  }
  os << "],\n \"records\": [\n";
  for (std::size_t i = 0; i < state.records.size(); ++i) {
    const BenchRecord& r = state.records[i];
    os << "  {\"key\": ";
    write_fields(os, r.key);
    os << ", \"counters\": ";
    write_fields(os, r.counters);
    os << ", \"wall_time_ms\": " << r.wall_time_ms << "}"
       << (i + 1 < state.records.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  std::ofstream out("BENCH_" + state.name + ".json");
  out << os.str();
}

PointMeter::PointMeter()
    : payload_before_(payload_counters()),
      wall_start_(std::chrono::steady_clock::now()) {}

double PointMeter::wall_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - wall_start_)
      .count();
}

PayloadCounters PointMeter::payload_delta() const {
  return payload_counters().since(payload_before_);
}

void PointMeter::record(Fields key, double sim_time_us,
                        const sim::Simulator& simulator, Fields extra) const {
  const double wall = wall_ms();
  const PayloadCounters payload = payload_delta();
  Fields counters = sim_counters(sim_time_us, simulator);
  counters.emplace_back("payload_allocs", payload.buffer_allocs);
  counters.emplace_back("payload_copies", payload.byte_copies);
  counters.insert(counters.end(), std::make_move_iterator(extra.begin()),
                  std::make_move_iterator(extra.end()));
  record_bench(BenchRecord{std::move(key), std::move(counters), wall});
}

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 const std::string& description) {
  set_bench_name_from_argv0(argc > 0 ? argv[0] : nullptr);
  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit(flush_bench_json);
  }
  BenchOptions options;
  try {
    Flags flags(argc, argv);
    options.reps = static_cast<int>(flags.get_int(
        "reps", options.reps, "repetitions per point (paper: 20-30)"));
    options.seed = static_cast<std::uint64_t>(
        flags.get_int("seed", static_cast<std::int64_t>(options.seed),
                      "simulation seed"));
    options.csv = flags.get_bool("csv", false, "emit CSV instead of ASCII");
    options.spread =
        flags.get_bool("spread", false, "add min/max scatter columns");
    if (flags.help_requested()) {
      std::cout << flags.usage(description);
      std::exit(0);
    }
    flags.check_unknown();
  } catch (const std::invalid_argument& e) {
    // Exit 1 means "a claim failed"; a bad invocation must not look like one.
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
  return options;
}

namespace {
cluster::ClusterConfig cluster_config(cluster::NetworkType network, int procs,
                                      std::uint64_t seed) {
  cluster::ClusterConfig config;
  config.network = network;
  config.num_procs = procs;
  config.seed = seed;
  return config;
}

Point to_point(const Sample& sample) {
  return Point{sample.median(), sample.min(), sample.max()};
}
}  // namespace

std::vector<std::string> registry_bcast_algos(const std::string& substring) {
  std::vector<std::string> out;
  for (const std::string& name :
       coll::Registry::instance().names(coll::CollOp::kBcast)) {
    if (substring.empty() || name.find(substring) != std::string::npos) {
      out.push_back(name);
    }
  }
  return out;
}

std::vector<Point> measure_bcast_series(const BcastSeries& series,
                                        const std::vector<int>& sizes,
                                        const BenchOptions& options) {
  std::vector<Point> points;
  points.reserve(sizes.size());
  for (int size : sizes) {
    // A fresh cluster per point, same seed: every point and series starts
    // from the identical deterministic state (fair comparisons).
    cluster::Cluster cluster(
        cluster_config(series.network, series.procs, options.seed));
    cluster::ExperimentConfig exp;
    exp.reps = options.reps;
    const PointMeter meter;
    const auto result = cluster::measure_collective(
        cluster, exp, [&series, size](mpi::Proc& p, int) {
          Buffer data;
          if (p.rank() == 0) {
            data = pattern_payload(0xB0CA57, static_cast<std::size_t>(size));
          }
          p.comm_world().coll().bcast(data, 0, series.algo);
        });
    points.push_back(to_point(result.latencies_us));
    meter.record({{"op", series.label},
                  {"network", cluster::to_string(series.network)},
                  {"ranks", series.procs},
                  {"bytes", size}},
                 points.back().median_us, cluster.simulator());
  }
  return points;
}

std::vector<Point> measure_barrier_series(cluster::NetworkType network,
                                          const std::string& algo,
                                          const std::vector<int>& proc_counts,
                                          const BenchOptions& options) {
  std::vector<Point> points;
  points.reserve(proc_counts.size());
  for (int procs : proc_counts) {
    cluster::Cluster cluster(cluster_config(network, procs, options.seed));
    cluster::ExperimentConfig exp;
    exp.reps = options.reps;
    const PointMeter meter;
    const auto result = cluster::measure_collective(
        cluster, exp, [&algo](mpi::Proc& p, int) {
          p.comm_world().coll().barrier(algo);
        });
    points.push_back(to_point(result.latencies_us));
    meter.record({{"op", "barrier/" + algo},
                  {"network", cluster::to_string(network)},
                  {"ranks", procs},
                  {"bytes", -1}},
                 points.back().median_us, cluster.simulator());
  }
  return points;
}

Table make_figure_table(const std::string& x_name, const std::vector<int>& xs,
                        const std::vector<BcastSeries>& series,
                        const std::vector<std::vector<Point>>& points,
                        bool spread) {
  std::vector<std::string> columns{x_name};
  for (const BcastSeries& s : series) {
    columns.push_back(s.label + " us");
    if (spread) {
      columns.push_back(s.label + " min");
      columns.push_back(s.label + " max");
    }
  }
  Table table(columns);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{std::to_string(xs[i])};
    for (std::size_t s = 0; s < series.size(); ++s) {
      row.push_back(Table::num(points[s][i].median_us));
      if (spread) {
        row.push_back(Table::num(points[s][i].min_us));
        row.push_back(Table::num(points[s][i].max_us));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

void print_table(const std::string& title, const Table& table,
                 const BenchOptions& options) {
  if (options.csv) {
    table.print_csv(std::cout);
    return;
  }
  std::cout << "== " << title << " ==\n";
  table.print_ascii(std::cout);
}

void shape_check(const Claim& claim) {
  const unsigned cpus = usable_cpus();
  if (cpus < claim.min_hw_threads) {
    std::cout << "SHAPE CHECK skip — " << claim.text << " (needs >= "
              << claim.min_hw_threads << " usable CPUs, process may use "
              << cpus << ")\n";
    return;
  }
  const double bound = claim.min_ratio * claim.rhs;
  const bool ok = claim.strict ? claim.lhs > bound : claim.lhs >= bound;
  any_claim_failed = any_claim_failed || !ok;
  std::ostringstream line;
  line << "SHAPE CHECK " << (ok ? "ok  " : "FAIL") << " — " << claim.text;
  if (claim.rhs != 0) {
    line << std::fixed << std::setprecision(2) << " ["
         << claim.lhs / claim.rhs << "x, need "
         << (claim.strict ? "> " : ">= ") << claim.min_ratio << "x]";
  }
  std::cout << line.str() << '\n';
}

void shape_check(bool holds, const std::string& text) {
  shape_check(Claim{.text = text,
                    .lhs = holds ? 1.0 : 0.0,
                    .rhs = 0.0,
                    .strict = true});
}

int claims_exit_code() { return any_claim_failed ? 1 : 0; }

std::vector<int> paper_sizes(int step) {
  std::vector<int> sizes;
  for (int s = 0; s <= 5000; s += step) {
    sizes.push_back(s);
  }
  return sizes;
}

int crossover_size(const std::vector<int>& sizes, const std::vector<Point>& a,
                   const std::vector<Point>& b) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (a[i].median_us < b[i].median_us) {
      return sizes[i];
    }
  }
  return -1;
}

}  // namespace mcmpi::bench
