#include "coll/tuning.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "coll/hier.hpp"

namespace mcmpi::coll {

namespace {

/// Error context of the rule being parsed: a malformed spec names the rule
/// (1-based, with its text) and the offending field's position, not just a
/// bare range-check failure — `MCMPI_COLL_TUNING` typos should be findable
/// from the message alone.
struct RuleContext {
  std::size_t rule_number = 0;  // 1-based position in the spec
  std::string rule_text;

  std::string where(std::size_t field) const {
    std::ostringstream os;
    os << "tuning rule " << rule_number << " ('" << rule_text << "'), field "
       << field;
    return os.str();
  }
};

CollOp parse_op(const std::string& text, const RuleContext& ctx) {
  for (CollOp op : kAllCollOps) {
    if (to_string(op) == text) {
      return op;
    }
  }
  throw std::invalid_argument(ctx.where(1) + ": unknown collective op '" +
                              text + "'");
}

std::string strip(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\n\r");
  if (begin == std::string::npos) {
    return {};
  }
  const auto end = s.find_last_not_of(" \t\n\r");
  return s.substr(begin, end - begin + 1);
}

std::int64_t parse_bound(const std::string& text, const char* what,
                         const RuleContext& ctx, std::size_t field) {
  if (text == "*") {
    return -1;
  }
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size() || value < 0) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(ctx.where(field) + ": bad " + what +
                                " bound, offending token '" + text + "'");
  }
}

}  // namespace

TuningTable TuningTable::defaults() {
  // Paper crossovers: scout overhead makes multicast lose below ~1 KB
  // (Figs. 7-10 crossover near one Ethernet frame); at 2 ranks one
  // point-to-point send always beats scout + multicast; the multicast
  // barrier wins at every N (Fig. 13); the multicast allgather needs
  // payloads large enough to amortize its barrier.  The widened surface
  // follows the same shape: large-message reduce/gather/scatter ride the
  // multicast/scout variants, small messages and 2-rank groups stay on
  // point-to-point, and the trailing catch-all rules cover payloads the
  // multicast variants' predicates reject (rendezvous-sized blocks, the
  // datagram ceiling) — an inapplicable tuned pick falls through to the
  // next matching rule.
  // Topology: on a communicator spanning >= 2 segments the hierarchical
  // algorithms cross each trunk once instead of O(log N) / O(N) times.
  // Their min_segments-gated rules sit after the 2-rank and small-payload
  // point-to-point rules (one trunk send beats leader machinery at those
  // sizes); single-segment communicators fail every gate and fall through
  // to the flat rules.
  // The segmented pipeline is the trailing multicast rule for bcast /
  // allgather / scatter: the single-shot variants' predicates reject
  // jumbo payloads (the ~512 KiB datagram ceiling, the receive buffer),
  // and the fall-through lands on mcast-segmented instead of dropping
  // back to point-to-point — multicast now serves every payload size.
  // The FEC rule is gated on a lossy network: clean-network schedules never
  // see it (its parity bandwidth only pays for itself when frames drop),
  // while under loss it pre-empts mcast-binary — which would assert on the
  // first dropped frame — with in-window erasure recovery.  Under loss it
  // also precedes the hier-mcast rule: the trunk bridges forward every
  // multicast frame, so one flat FEC stream reaches every segment in one
  // transmission, while hier-mcast relays store-and-forward — the root
  // unicasts the whole payload to each remote leader, and each segment
  // runs a point-to-point size round before its leader multicasts again.
  // One lossless 8 KiB bcast on 16 ranks, 2 segments, 2 ms trunk: the
  // remote leader holds the payload at +3.47 ms, its size round ends at
  // +4.15 ms and the last rank returns at +5.88 ms, against +4.07 ms for
  // the flat stream (17.9 against 8.5 ms at 64 KiB, where the root
  // segment's size round queues behind the root's trunk unicast).  Clean
  // networks keep hier-mcast.  Payloads too big for fec-mcast's
  // single-window blast fall through to hier-mcast across segments, and
  // within one segment to the segmented pipeline, whose FEC recovery mode
  // is a config knob, not a rule.
  // Every op ends in an always-applicable, loss-tolerant algorithm; the
  // barrier and scatter multicasts are not loss-tolerant, so on a lossy
  // network those two ops end on mpich.
  // Parsed once: the table is immutable, and every World installs a copy.
  static const TuningTable table = parse(
      "bcast,*,2,mpich; bcast,1024,*,mpich; bcast,*,*,fec-mcast,0,lossy;"
      "bcast,*,*,hier-mcast,2; bcast,*,*,mcast-binary;"
      "bcast,*,*,mcast-segmented;"
      "barrier,*,*,hier,2; barrier,*,*,mcast; barrier,*,*,mpich;"
      "allreduce,*,2,mpich; allreduce,1024,*,mpich; allreduce,*,*,hier,2;"
      "allreduce,*,*,mcast-binary; allreduce,*,*,mpich;"
      "allgather,*,2,ring; allgather,2048,*,ring; allgather,*,*,hier,2;"
      "allgather,*,*,mcast-lockstep; allgather,*,*,mcast-segmented;"
      "reduce,*,2,mpich; reduce,1024,*,mpich;"
      "reduce,*,*,mcast-scout; reduce,*,*,mpich;"
      "gather,*,2,mpich; gather,1024,*,mpich;"
      "gather,*,*,scout-combining; gather,*,*,mpich;"
      "scatter,*,2,mpich; scatter,1024,*,mpich;"
      "scatter,*,*,mcast-slice; scatter,*,*,mcast-segmented;"
      "scatter,*,*,mpich;"
      "scan,*,2,mpich; scan,1024,*,mpich; scan,*,*,binomial;"
      "alltoall,*,2,mpich; alltoall,2048,*,mpich;"
      "alltoall,*,*,mcast-rr; alltoall,*,*,mpich");
  return table;
}

TuningTable TuningTable::with_defaults(const std::string& spec) {
  TuningTable table = parse(spec);
  const TuningTable tail = defaults();
  table.rules_.insert(table.rules_.end(), tail.rules_.begin(),
                      tail.rules_.end());
  return table;
}

TuningTable TuningTable::parse(const std::string& spec) {
  TuningTable table;
  std::stringstream rules(spec);
  std::string rule_text;
  RuleContext ctx;
  while (std::getline(rules, rule_text, ';')) {
    rule_text = strip(rule_text);
    if (rule_text.empty()) {
      continue;
    }
    ++ctx.rule_number;
    ctx.rule_text = rule_text;
    std::stringstream fields(rule_text);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ',')) {
      parts.push_back(strip(field));
    }
    if (parts.size() < 4 || parts.size() > 6) {
      throw std::invalid_argument(
          "tuning rule " + std::to_string(ctx.rule_number) +
          " needs op,max_bytes,max_ranks,algo[,min_segments[,lossy]], got " +
          std::to_string(parts.size()) + " fields: '" + rule_text + "'");
    }
    TuningRule rule;
    rule.op = parse_op(parts[0], ctx);
    rule.max_bytes = parse_bound(parts[1], "byte", ctx, 2);
    const std::int64_t ranks = parse_bound(parts[2], "rank", ctx, 3);
    if (ranks > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(ctx.where(3) + ": rank bound too large");
    }
    rule.max_ranks = static_cast<int>(ranks);
    rule.algo = parts[3];
    if (parts.size() >= 5) {
      const std::int64_t segments = parse_bound(parts[4], "segment", ctx, 5);
      if (segments > std::numeric_limits<int>::max()) {
        throw std::invalid_argument(ctx.where(5) + ": segment bound too large");
      }
      rule.min_segments = segments < 0 ? 0 : static_cast<int>(segments);
    }
    if (parts.size() == 6) {
      if (parts[5] != "lossy") {
        throw std::invalid_argument(ctx.where(6) +
                                    ": expected the literal 'lossy', "
                                    "offending token '" +
                                    parts[5] + "'");
      }
      rule.lossy_only = true;
    }
    // Fail at parse time, not at the first collective inside a running
    // simulation: the named algorithm must exist, and must not be one that
    // may drop payload.
    const CollAlgorithm* algo = nullptr;
    try {
      algo = &Registry::instance().get(rule.op, rule.algo);
    } catch (const std::exception& e) {
      throw std::invalid_argument(ctx.where(4) + ": " + e.what());
    }
    if (algo->lossy) {
      throw std::invalid_argument(ctx.where(4) + ": " + parts[0] + ':' +
                                  rule.algo +
                                  " is lossy (may drop payload); kAuto "
                                  "never picks it");
    }
    table.rules_.push_back(std::move(rule));
  }
  return table;
}

std::string TuningTable::select(CollOp op, std::size_t bytes, int ranks,
                                const mpi::Comm& comm) const {
  // On a lossy network (a fault plane with drop/reorder is attached) only
  // loss-tolerant algorithms may run: anything else asserts or hangs on the
  // first dropped frame.  An intolerant tuned pick falls through, exactly
  // like an inapplicable one.
  const bool lossy_net =
      comm.proc() != nullptr && comm.proc()->network_lossy();
  int segment_span = -1;  // computed on the first min_segments rule
  for (const TuningRule& rule : rules_) {
    if (rule.op != op) {
      continue;
    }
    if (rule.max_bytes >= 0 &&
        static_cast<std::int64_t>(bytes) > rule.max_bytes) {
      continue;
    }
    if (rule.max_ranks >= 0 && ranks > rule.max_ranks) {
      continue;
    }
    if (rule.lossy_only && !lossy_net) {
      continue;
    }
    if (rule.min_segments > 0) {
      if (segment_span < 0) {
        segment_span = hier_segment_span(comm);
      }
      if (segment_span < rule.min_segments) {
        continue;
      }
    }
    const CollAlgorithm& algo = Registry::instance().get(op, rule.algo);
    if (lossy_net && !algo.loss_tolerant) {
      continue;
    }
    if (!algo.applicable || algo.applicable(comm, bytes)) {
      return rule.algo;
    }
  }
  throw std::invalid_argument("no tuning rule matches " + coll::to_string(op) +
                              " at " + std::to_string(bytes) + " B on " +
                              std::to_string(ranks) + " ranks");
}

std::string TuningTable::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const TuningRule& r = rules_[i];
    os << (i > 0 ? "; " : "") << coll::to_string(r.op) << ',';
    if (r.max_bytes < 0) {
      os << '*';
    } else {
      os << r.max_bytes;
    }
    os << ',';
    if (r.max_ranks < 0) {
      os << '*';
    } else {
      os << r.max_ranks;
    }
    os << ',' << r.algo;
    if (r.min_segments > 0 || r.lossy_only) {
      os << ',' << r.min_segments;
    }
    if (r.lossy_only) {
      os << ",lossy";
    }
  }
  return os.str();
}

}  // namespace mcmpi::coll
