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
  // Every rule answers to bench/claims_tuning.cpp (one ctest per op,
  // claims_claims_tuning and claims_claims_tuning_<op>): at each clean
  // point of its grid — hub, switch, 2 and 4 segments behind 100 us and
  // 2 ms trunks; 2 ranks, the world, and the strided r % 4 comm (one rank
  // per segment on 4, two on 2) — kAuto's simulated median is within 1.10x
  // of the best applicable registered algorithm.  Where no algorithm is
  // within 1.10x both there and on the twin topology no rule field tells
  // apart (hub vs switch, 100 us vs 2 ms trunks), the bound is 1.10x what
  // the best algorithm for both costs at the worse twin; the header of
  // claims_tuning.cpp names those points.
  // bcast: two blocks.  The lossy block, closed by its total
  // mcast-segmented rule, keeps the picks every network had before the
  // clean block existed.  Under loss fec-mcast pre-empts the scout-ordered
  // mcast-binary — which would assert on the first dropped frame — with
  // in-window erasure recovery, and it precedes hier-mcast: the trunk
  // bridges forward every multicast frame, so one flat FEC stream reaches
  // every segment in one transmission, while hier-mcast relays
  // store-and-forward (8 KiB on 16 ranks, 2 segments, 2 ms trunk: the last
  // rank returns at +5.88 ms against +4.07 ms for the flat stream).  Lossy
  // payloads too big for fec-mcast's blast fall through to hier-mcast
  // across segments, and within one segment to the segmented pipeline.
  // The clean block drops the scout round, which the paper needs only
  // because its multicast cannot recover a lost datagram: up to 16 KiB
  // the NACK stream's root sends at once and a late receiver finds the
  // datagram in its socket buffer (2 ranks stay on one point-to-point
  // send); above 16 KiB fec-mcast's frame-sized chunks let receivers
  // pipeline the receive path one fragmented datagram serializes; past
  // one FEC blast the segmented pipeline, flat across segments too.
  // barrier (--op=barrier): up to 4 ranks across segments (a pair, the
  // strided comms) mpich's recursive doubling, whose rounds cross the
  // trunks in parallel.  A larger comm across segments loses 1.23-1.38x
  // with mpich behind 100 us trunks and 1.25-1.53x with the multicast
  // barrier behind 2 ms, which no rule field tells apart (twin-bounded):
  // the multicast barrier on 4 or more segments, as tenants-4seg's 100 us
  // trunks want, and mpich on 2 or 3, where the multicast barrier behind
  // 2 ms (1.39-1.53x) costs more than mpich behind 100 us (1.23-1.38x).
  // On one segment the multicast barrier (Fig. 13).  hier's detour
  // through leaders[0] is best at no clean point, but the multicast
  // barrier is not loss-tolerant: a lossy network falls through to hier
  // on 4 or more segments (under 1% loss 1.7-3.0x faster than mpich) and
  // to mpich elsewhere (hier is 1.9-2.0x slower on 2 segments).
  // allreduce (--op=allreduce): binomial reduce to rank 0 plus a broadcast
  // stage.  mpich at 2 ranks; on 4 or more segments hier's leader combine
  // up to 2 KiB (4 KiB on one rank per segment), where one trunk crossing
  // per segment saves more than its extra leader round costs; everywhere
  // else the mcast-binary release, from 16 B on one segment too.
  // reduce (--op=reduce): mpich at every point.
  // allgather (--op=allgather), keyed on each rank's share: ring at 2
  // ranks; across segments hier's leader bundles up to 2 KiB, and at any
  // size on one rank per segment (4 ranks on 4 segments), then the ring.
  // On one segment the ring up to 512 B, then mcast-lockstep: on a hub
  // the ring's N-1 copies of each block collide (1.7-23x the lockstep from
  // 1 KiB), while on a switch the ring is 1.2-1.8x faster; the lockstep
  // costs less at worst.  Past the lockstep's datagram, the segmented
  // pipeline: from 256 KiB per rank it beats the ring on the hub and on
  // the switch, where the ring costs 1.2-9.8x.
  // The lockstep is not loss-tolerant: under loss the ring keeps blocks up
  // to 2 KiB, where the segmented pipeline's acks cost 3-8x.
  // gather (--op=gather): the scout-combining gather, within 1.01x of the
  // best at every point, and mpich past its eager-path predicate or on a
  // lossy network.
  // scatter (--op=scatter) and alltoall (--op=alltoall): mpich, their only
  // algorithm.
  // scan (--op=scan): the doubling scan, except on one segment above
  // 2 KiB, where its rounds collide on the hub (2.6-2.9x mpich's chain)
  // and mpich costs 2.0-2.3x on the switch: the chain costs less at worst.
  // The trailing catch-all rules cover payloads the multicast variants'
  // predicates reject (rendezvous-sized blocks, the datagram ceiling): an
  // inapplicable tuned pick falls through to the next matching rule.
  // Every op ends in an always-applicable, loss-tolerant algorithm; the
  // multicast barrier, the lockstep allgather and the scout-combining
  // gather are not loss-tolerant, so on a lossy network those picks fall
  // through to the next rule.
  // Parsed once: the table is immutable, and every World installs a copy.
  static const TuningTable table = parse(
      "bcast,*,2,mpich,0,lossy; bcast,1024,*,mpich,0,lossy;"
      "bcast,*,*,fec-mcast,0,lossy; bcast,*,*,hier-mcast,2,lossy;"
      "bcast,*,*,mcast-segmented,0,lossy;"
      "bcast,16384,2,mpich; bcast,16384,*,nack-mcast; bcast,*,*,fec-mcast;"
      "bcast,*,*,mcast-segmented;"
      "barrier,*,4,mpich,2; barrier,*,*,mcast,4; barrier,*,*,hier,4;"
      "barrier,*,*,mpich,2; barrier,*,*,mcast; barrier,*,*,mpich;"
      "allreduce,*,2,mpich; allreduce,4096,4,hier,4; allreduce,2048,*,hier,4;"
      "allreduce,*,*,mcast-binary; allreduce,*,*,mpich;"
      "allgather,*,2,ring; allgather,2048,*,hier,2; allgather,*,4,hier,4;"
      "allgather,*,*,ring,2; allgather,2048,*,ring,0,lossy;"
      "allgather,512,*,ring;"
      "allgather,*,*,mcast-lockstep; allgather,*,*,mcast-segmented;"
      "reduce,*,*,mpich;"
      "gather,*,*,scout-combining; gather,*,*,mpich;"
      "scatter,*,*,mpich;"
      "scan,2048,*,binomial; scan,*,*,binomial,2; scan,*,*,mpich;"
      "alltoall,*,*,mpich");
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
