#pragma once
/// \file tuning.hpp
/// Tuned algorithm auto-selection: message-size × communicator-size rules.
///
/// The paper's central claim is that the *same* MPI call should ride IP
/// multicast when it wins and point-to-point when it does not.  The tuning
/// table encodes where each side wins, as bench/claims_tuning.cpp measures
/// it for every op, as an ordered list of TuningRules, first match wins.
/// A rule's fields:
///
///   - op, max_bytes, max_ranks: the collective, and the largest payload
///     (bytes per rank) and communicator it matches (-1: unbounded);
///   - algo: the registered entry it picks, resolved when the table is
///     built;
///   - min_segments: the rule matches only when the communicator spans at
///     least this many network segments (its SegmentLayout) — how the
///     hierarchical algorithms (hier-mcast & co.) are tuned in without
///     touching single-segment behavior; 0 means any span;
///   - lossy_only: the rule matches only when the process runs over a lossy
///     network (Proc::network_lossy(), set when a fault plane with
///     drop/reorder is attached) — how the bcast rules split into a lossy
///     block that ends in a total rule and a clean block that a lossy
///     network never reaches.
///
/// A rule whose algorithm is inapplicable for the actual (comm, bytes), or
/// not loss-tolerant on a lossy network, falls through to the next matching
/// rule.  The defaults are total: every op ends in an unbounded, ungated
/// rule naming an always-applicable, loss-tolerant algorithm, so kAuto
/// always resolves.  To try a rule, edit TuningTable::defaults(), rebuild,
/// and run `claims_tuning --op=<op> --csv`.

#include <string>
#include <vector>

#include "coll/registry.hpp"

namespace mcmpi::coll {

/// Algorithm name for tuned auto-selection in the facade.
inline constexpr const char* kAuto = "auto";

struct TuningRule {
  CollOp op = CollOp::kBcast;
  std::int64_t max_bytes = -1;  ///< rule applies when bytes <= this; -1 = inf
  int max_ranks = -1;           ///< rule applies when ranks <= this; -1 = inf
  const CollAlgorithm* algo = nullptr;
  /// Rule applies when the communicator spans >= this many segments
  /// (SegmentLayout::span); 0 = any topology.
  int min_segments = 0;
  /// Rule applies only when the network is lossy (Proc::network_lossy()).
  bool lossy_only = false;
};

/// A rule picking the registered (op, algo); throws std::invalid_argument
/// when that entry is not registered.
TuningRule tuning_rule(CollOp op, std::int64_t max_bytes, int max_ranks,
                       const std::string& algo, int min_segments = 0,
                       bool lossy_only = false);

class TuningTable {
 public:
  /// Throws std::invalid_argument on a rule without an algorithm or naming
  /// a lossy entry (one that may drop payload: kAuto never picks it).
  explicit TuningTable(std::vector<TuningRule> rules);

  /// The built-in table encoding the paper's crossover points, with the
  /// min_segments-gated rules (allreduce:hier, allgather:hier, and under
  /// loss bcast:hier-mcast and barrier:hier) where the trunk saving
  /// dominates.  Total for every op.
  static const TuningTable& defaults();

  /// First matching rule's algorithm.  Throws std::invalid_argument naming
  /// the op and byte count when no rule matches (reachable only with a
  /// table that is not total, never with defaults()).
  const CollAlgorithm& select(CollOp op, std::size_t bytes,
                              const mpi::Comm& comm) const;

  const std::vector<TuningRule>& rules() const { return rules_; }

 private:
  std::vector<TuningRule> rules_;
};

}  // namespace mcmpi::coll
