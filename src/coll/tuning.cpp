#include "coll/tuning.hpp"

#include <stdexcept>
#include <utility>

namespace mcmpi::coll {

TuningRule tuning_rule(CollOp op, std::int64_t max_bytes, int max_ranks,
                       const std::string& algo, int min_segments,
                       bool lossy_only) {
  return TuningRule{op,           max_bytes,
                    max_ranks,    &Registry::instance().get(op, algo),
                    min_segments, lossy_only};
}

TuningTable::TuningTable(std::vector<TuningRule> rules)
    : rules_(std::move(rules)) {
  // Fail when the table is built, not at the first collective inside a
  // running simulation.
  for (const TuningRule& rule : rules_) {
    if (rule.algo == nullptr || rule.algo->op != rule.op) {
      throw std::invalid_argument("tuning rule names no " +
                                  to_string(rule.op) + " algorithm");
    }
    if (rule.algo->lossy) {
      throw std::invalid_argument(
          to_string(rule.op) + ':' + rule.algo->name +
          " is lossy (may drop payload); kAuto never picks it");
    }
  }
}

const TuningTable& TuningTable::defaults() {
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
  // Built once: the table is immutable and shared by every Cluster.
  constexpr std::int64_t kAny = -1;
  constexpr bool kLossy = true;
  using enum CollOp;
  static const TuningTable table({
      tuning_rule(kBcast, kAny, 2, "mpich", 0, kLossy),
      tuning_rule(kBcast, 1024, kAny, "mpich", 0, kLossy),
      tuning_rule(kBcast, kAny, kAny, "fec-mcast", 0, kLossy),
      tuning_rule(kBcast, kAny, kAny, "hier-mcast", 2, kLossy),
      tuning_rule(kBcast, kAny, kAny, "mcast-segmented", 0, kLossy),
      tuning_rule(kBcast, 16384, 2, "mpich"),
      tuning_rule(kBcast, 16384, kAny, "nack-mcast"),
      tuning_rule(kBcast, kAny, kAny, "fec-mcast"),
      tuning_rule(kBcast, kAny, kAny, "mcast-segmented"),

      tuning_rule(kBarrier, kAny, 4, "mpich", 2),
      tuning_rule(kBarrier, kAny, kAny, "mcast", 4),
      tuning_rule(kBarrier, kAny, kAny, "hier", 4),
      tuning_rule(kBarrier, kAny, kAny, "mpich", 2),
      tuning_rule(kBarrier, kAny, kAny, "mcast"),
      tuning_rule(kBarrier, kAny, kAny, "mpich"),

      tuning_rule(kAllreduce, kAny, 2, "mpich"),
      tuning_rule(kAllreduce, 4096, 4, "hier", 4),
      tuning_rule(kAllreduce, 2048, kAny, "hier", 4),
      tuning_rule(kAllreduce, kAny, kAny, "mcast-binary"),
      tuning_rule(kAllreduce, kAny, kAny, "mpich"),

      tuning_rule(kAllgather, kAny, 2, "ring"),
      tuning_rule(kAllgather, 2048, kAny, "hier", 2),
      tuning_rule(kAllgather, kAny, 4, "hier", 4),
      tuning_rule(kAllgather, kAny, kAny, "ring", 2),
      tuning_rule(kAllgather, 2048, kAny, "ring", 0, kLossy),
      tuning_rule(kAllgather, 512, kAny, "ring"),
      tuning_rule(kAllgather, kAny, kAny, "mcast-lockstep"),
      tuning_rule(kAllgather, kAny, kAny, "mcast-segmented"),

      tuning_rule(kReduce, kAny, kAny, "mpich"),

      tuning_rule(kGather, kAny, kAny, "scout-combining"),
      tuning_rule(kGather, kAny, kAny, "mpich"),

      tuning_rule(kScatter, kAny, kAny, "mpich"),

      tuning_rule(kScan, 2048, kAny, "binomial"),
      tuning_rule(kScan, kAny, kAny, "binomial", 2),
      tuning_rule(kScan, kAny, kAny, "mpich"),

      tuning_rule(kAlltoall, kAny, kAny, "mpich"),
  });
  return table;
}

const CollAlgorithm& TuningTable::select(CollOp op, std::size_t bytes,
                                         const mpi::Comm& comm) const {
  // On a lossy network (a fault plane with drop/reorder is attached) only
  // loss-tolerant algorithms may run: anything else asserts or hangs on the
  // first dropped frame.  An intolerant tuned pick falls through, exactly
  // like an inapplicable one.
  const bool lossy_net =
      comm.proc() != nullptr && comm.proc()->network_lossy();
  for (const TuningRule& rule : rules_) {
    if (rule.op != op ||
        (rule.max_bytes >= 0 &&
         static_cast<std::int64_t>(bytes) > rule.max_bytes) ||
        (rule.max_ranks >= 0 && comm.size() > rule.max_ranks) ||
        (rule.lossy_only && !lossy_net) ||
        comm.layout().span() < rule.min_segments) {
      continue;
    }
    const CollAlgorithm& algo = *rule.algo;
    if (lossy_net && !algo.loss_tolerant) {
      continue;
    }
    if (!algo.applicable || algo.applicable(comm, bytes)) {
      return algo;
    }
  }
  throw std::invalid_argument("no tuning rule matches " + to_string(op) +
                              " at " + std::to_string(bytes) + " B on " +
                              std::to_string(comm.size()) + " ranks");
}

}  // namespace mcmpi::coll
