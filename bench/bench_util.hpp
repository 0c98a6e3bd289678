#pragma once
/// \file bench_util.hpp
/// Shared machinery for the figure-reproduction binaries.
///
/// Every binary reproduces one table or figure from the paper: it sweeps
/// message size (or process count), measures each configured series with
/// the paper's methodology (cluster/experiment.hpp), prints the series as
/// an aligned table (median of 20-30 reps per point, like the paper's
/// median lines), and finishes with SHAPE CHECK lines — the qualitative
/// claims the figure makes, evaluated against the fresh numbers.  A bench
/// exits 1 if any claim failed, 0 if every claim held or was skipped, and
/// 2 on a bad invocation.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace mcmpi::bench {

/// One plotted line: an algorithm (registry name, coll/registry.hpp) on a
/// network with a process count.
struct BcastSeries {
  std::string label;
  cluster::NetworkType network;
  int procs;
  std::string algo;
};

/// Registered bcast algorithm names, optionally filtered to those
/// containing `substring` — how sweep benches enumerate the registry
/// instead of hardcoding algorithm lists.
std::vector<std::string> registry_bcast_algos(
    const std::string& substring = "");

/// A scalar in a record's key or counter map.
using JsonValue =
    std::variant<std::string, std::int64_t, std::uint64_t, double>;
/// Named values in emission order.
using Fields = std::vector<std::pair<std::string, JsonValue>>;

/// One machine-readable measurement, dumped to BENCH_<binary>.json at exit
/// so the perf trajectory is tracked across PRs.  tools/bench_diff.py
/// matches records by `key` and pins every counter against the committed
/// baseline (bench/baselines/README.md).
struct BenchRecord {
  /// What was measured: op, algo, network, ranks, bytes, plus whatever
  /// axis the bench sweeps (shards, driver, window, loss, segments).
  Fields key;
  /// Deterministic results: the simulated latency, the scheduler load,
  /// every SchedCounters field, payload allocs and copies, and any
  /// bench-specific deterministic figure (p99_us, collectives).
  Fields counters;
  /// Host wall-clock for the whole point; noisy, so gated only on the
  /// file-level sum.
  double wall_time_ms = 0;
};

/// Writes BENCH_<name>.json with all records so far.  Registered atexit by
/// BenchOptions::parse; safe to call explicitly.
void flush_bench_json();

/// Host wall clock and payload-counter snapshot of one point, both started
/// at construction.
class PointMeter {
 public:
  PointMeter();
  double wall_ms() const;
  PayloadCounters payload_delta() const;
  /// Records the finished point: its simulated latency, the events
  /// scheduled, every SchedCounters field, the payload allocs and copies
  /// since construction, then `extra` counters, and the wall time.
  void record(Fields key, double sim_time_us,
              const sim::Simulator& simulator, Fields extra = {}) const;

 private:
  PayloadCounters payload_before_;
  std::chrono::steady_clock::time_point wall_start_;
};

/// Common CLI for every figure binary (--reps, --seed, --csv, --spread).
struct BenchOptions {
  int reps = 25;
  std::uint64_t seed = 2000;
  bool csv = false;
  bool spread = false;  // add min/max columns per series

  /// Parses the shared flags; exits 0 on --help and 2 (after printing the
  /// parser's message) on a malformed or unknown flag.
  static BenchOptions parse(int argc, char** argv,
                            const std::string& description);
};

/// Measured median (and extremes) for one point of one series.
struct Point {
  double median_us = 0;
  double min_us = 0;
  double max_us = 0;
};

/// Measures one broadcast series over the given payload sizes.
std::vector<Point> measure_bcast_series(const BcastSeries& series,
                                        const std::vector<int>& sizes,
                                        const BenchOptions& options);

/// Measures a barrier algorithm (registry name) across process counts.
std::vector<Point> measure_barrier_series(cluster::NetworkType network,
                                          const std::string& algo,
                                          const std::vector<int>& proc_counts,
                                          const BenchOptions& options);

/// Builds the standard figure table: first column = x value, then one
/// column per series ("<label> us", plus min/max when spread is on).
Table make_figure_table(const std::string& x_name,
                        const std::vector<int>& xs,
                        const std::vector<BcastSeries>& series,
                        const std::vector<std::vector<Point>>& points,
                        bool spread);

/// Prints the table (ASCII or CSV per options) with a title banner.
void print_table(const std::string& title, const Table& table,
                 const BenchOptions& options);

/// One qualitative claim of a figure, evaluated against the fresh numbers
/// by one rule: lhs >= min_ratio * rhs, or lhs > min_ratio * rhs when
/// strict.  "a is cheaper than b" is {lhs = b, rhs = a, strict}.
struct Claim {
  std::string text;
  double lhs = 0;
  double rhs = 0;
  double min_ratio = 1.0;
  bool strict = false;
  /// CPUs the claim needs (wall-clock parallel speedups), counted in the
  /// process's affinity mask; with fewer it is skipped and the reason
  /// printed.
  unsigned min_hw_threads = 0;
};

/// Evaluates a claim and prints "SHAPE CHECK <ok|FAIL|skip> — text" with
/// the measured ratio; a failure makes claims_exit_code() return 1.
void shape_check(const Claim& claim);

/// A plain boolean claim (results bit-identical, counts equal to a
/// formula), through the same rule as {lhs = holds, rhs = 0, strict}.
void shape_check(bool holds, const std::string& text);

/// What every bench's main returns: 1 if any claim failed, else 0.
int claims_exit_code();

/// Payload sizes the paper sweeps: 0..5000 in steps of 250.
std::vector<int> paper_sizes(int step = 250);

/// First size at which `a` becomes cheaper than `b` (both indexed by the
/// same size vector); -1 if never.
int crossover_size(const std::vector<int>& sizes, const std::vector<Point>& a,
                   const std::vector<Point>& b);

}  // namespace mcmpi::bench
