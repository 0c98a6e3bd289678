#pragma once
/// \file tuning.hpp
/// Tuned algorithm auto-selection: message-size × communicator-size rules.
///
/// The paper's central claim is that the *same* MPI call should ride IP
/// multicast when it wins and point-to-point when it does not.  The tuning
/// table encodes where each side wins, as bench/claims_tuning.cpp measures
/// it for every op, as an ordered rule list, first match wins:
///
///     op,max_bytes,max_ranks,algorithm[,min_segments[,lossy]]
///
/// `*` means unbounded; rules are separated by `;` (whitespace ignored).
/// The optional fifth field gates a rule on topology: it matches only when
/// the communicator spans at least `min_segments` network segments — how
/// the hierarchical algorithms (hier-mcast & co.) are tuned in without
/// touching single-segment behavior.  Omitted (or `*`/0) means any span.
/// The optional sixth field is the literal `lossy`: the rule matches only
/// when the process runs over a lossy network (Proc::network_lossy(), set
/// when a fault plane with drop/reorder is attached) — how the bcast rules
/// split into a lossy block that ends in a total rule and a clean block
/// that a lossy network never reaches.  Use `0` for min_segments to gate
/// on loss alone.
/// Excerpt of the default table (TuningTable::defaults() carries the full
/// set for all nine ops, including doubled fall-through rules for ops whose
/// multicast variants have applicability limits or are not loss-tolerant):
///
///     bcast,*,2,mpich,0,lossy; bcast,1024,*,mpich,0,lossy;
///     bcast,*,*,fec-mcast,0,lossy; bcast,*,*,hier-mcast,2,lossy;
///     bcast,*,*,mcast-segmented,0,lossy;
///     bcast,16384,2,mpich; bcast,16384,*,nack-mcast; bcast,*,*,fec-mcast;
///     bcast,*,*,mcast-segmented;
///     barrier,*,4,mpich,2; barrier,*,*,mcast; barrier,*,*,hier,2;
///     barrier,*,*,mpich; reduce,*,*,mpich; ...
///
/// A rule whose algorithm is inapplicable for the actual (comm, bytes), or
/// not loss-tolerant on a lossy network, falls through to the next matching
/// rule.  The defaults are total: every op ends in an unbounded, ungated
/// rule naming an always-applicable, loss-tolerant algorithm, so kAuto
/// always resolves.
///
/// Overrides (ClusterConfig::coll_tuning, else the MCMPI_COLL_TUNING
/// environment variable) install their own rules followed by the defaults
/// (with_defaults): a partial override falls through to the defaults for
/// whatever it does not match.

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
  std::string algo;
  /// Rule applies when the communicator spans >= this many segments
  /// (hier_segment_span); 0 = any topology.
  int min_segments = 0;
  /// Rule applies only when the network is lossy (Proc::network_lossy()).
  bool lossy_only = false;
};

class TuningTable {
 public:
  /// The built-in table encoding the paper's crossover points, with the
  /// min_segments-gated rules (allreduce:hier, allgather:hier, and under
  /// loss bcast:hier-mcast and barrier:hier) where the trunk saving
  /// dominates.  Total for every op.
  static TuningTable defaults();

  /// Parses the rule syntax above; throws std::invalid_argument on
  /// malformed rules, unknown ops, algorithms absent from the registry, or
  /// lossy algorithms.  The result holds exactly the parsed rules.
  static TuningTable parse(const std::string& spec);

  /// parse(spec)'s rules followed by defaults()' — the installed form of
  /// an override, total like the defaults.
  static TuningTable with_defaults(const std::string& spec);

  /// First matching rule's algorithm.  Throws std::invalid_argument naming
  /// the op and byte count when no rule matches (reachable only with a
  /// bare parse() table, never with defaults() or with_defaults()).
  std::string select(CollOp op, std::size_t bytes, int ranks,
                     const mpi::Comm& comm) const;

  const std::vector<TuningRule>& rules() const { return rules_; }
  std::string to_string() const;

 private:
  std::vector<TuningRule> rules_;
};

}  // namespace mcmpi::coll
