#pragma once
/// \file sched_counters.hpp
/// Scheduler-level instrumentation, kept in a dependency-free header so the
/// network layer (net/counters.hpp) and the benches can re-export it next to
/// the frame and payload counters without pulling in the whole simulator.
///
/// Every counter is declared once, in MCMPI_SCHED_COUNTERS below: its name
/// and how shards merge it (summed, or a high-water mark taken by max).
/// The struct fields, operator+= and for_each_counter() are generated from
/// that list, and the benches emit every counter through for_each_counter()
/// into BENCH_<name>.json, where tools/bench_diff.py pins it against the
/// committed baselines.  Adding a counter is one line in the table.

#include <algorithm>
#include <cstdint>

namespace mcmpi::sim {

/// How per-shard values of one counter combine into the simulator's total.
enum class CounterMerge { kSum, kMax };

/// The counter table: X(name, merge) per counter.  Doc comments are block
/// comments because the list is one macro.
#define MCMPI_SCHED_COUNTERS(X)                                              \
  /* Scheduler -> process control transfers (one per SimProcess resume).     \
     Fibers make each handoff cheap; coalescing makes them rare. */          \
  X(handoffs, kSum)                                                          \
                                                                             \
  /* delay() calls that advanced the clock in place — no timer event, no     \
     block/resume pair — because nothing else could run in the window. */   \
  X(coalesced_delays, kSum)                                                  \
                                                                             \
  /* Callbacks folded into a previously scheduled batch event instead of     \
     costing their own heap entry (schedule_batch_at fan-outs). */           \
  X(batched_callbacks, kSum)                                                 \
                                                                             \
  /* Events fired (a batch of N callbacks counts once — it is one event). */ \
  X(events_executed, kSum)                                                   \
                                                                             \
  /* Allocation-pool receipts: schedule/cross-send requests served from a    \
     free list (a recycled event slot or cross-shard inbox node) vs. those   \
     that had to grow the backing store.  Deterministic — reuse depends      \
     only on each shard's execution order, never on thread timing — so the  \
     split is pinned in bench JSON like every other counter. */              \
  X(event_pool_hits, kSum)                                                   \
  X(event_pool_misses, kSum)                                                 \
                                                                             \
  /* Ack-window instrumentation of the stream engine's ack-feedback mode     \
     (coll/stream_send.cpp, e.g. mcast-segmented, ack-mcast).  chunk_sent    \
     counts first transmissions, chunk_retried the timeout-driven            \
     re-multicasts, chunk_acked every per-chunk ack the root consumed;       \
     chunk_peak_window is the high-water mark of simultaneously in-flight    \
     (sent, not yet fully acked) chunks — the direct evidence that           \
     pipelining actually overlapped transmissions (lockstep pins it at 1),   \
     so it merges by max, not sum. */                                        \
  X(chunk_sent, kSum)                                                        \
  X(chunk_acked, kSum)                                                       \
  X(chunk_retried, kSum)                                                     \
  X(chunk_peak_window, kMax)                                                 \
                                                                             \
  /* Fault-injection layer (net/fault.hpp): frames the per-link models       \
     dropped, duplicated, or delayed out of order at delivery edges.         \
     Counted on the shard executing the delivery, so the totals merge like   \
     every other scheduler counter and are bit-identical across shard        \
     counts and drivers. */                                                  \
  X(frames_dropped, kSum)                                                    \
  X(frames_duplicated, kSum)                                                 \
  X(frames_reordered, kSum)                                                  \
                                                                             \
  /* Reliable-multicast recovery instrumentation (coll/stream_*.cpp):       \
     receiver-side NACK rounds sent, root-side NACKs suppressed by the       \
     sink's aggregation window, and protocol-level payload re-multicasts     \
     (ack-window timeouts + NACK-served resends). */                         \
  X(nacks_sent, kSum)                                                        \
  X(nacks_suppressed, kSum)                                                  \
  X(retransmits, kSum)                                                       \
                                                                             \
  /* Parity-generation instrumentation of the stream engine (fec-mcast, or   \
     any preset with a parity overhead): parity frames multicast by roots,   \
     parity rows actually consumed by receiver-side reconstructions,         \
     generations reconstructed (fec_decodes), and NACK rounds of             \
     parity-carrying streams whose generation lost more than its parity      \
     could absorb (fec_fallbacks).  parity_sent - parity_used is the         \
     bandwidth the protocol burned for nothing — the measurable cost of its  \
     zero-RTT recovery. */                                                   \
  X(parity_sent, kSum)                                                       \
  X(parity_used, kSum)                                                       \
  X(fec_decodes, kSum)                                                       \
  X(fec_fallbacks, kSum)

/// Per-Simulator counters for the costs the fiber scheduler exists to
/// minimise, plus the protocol and fault-plane receipts that ride on the
/// same per-shard merge.  One std::uint64_t field per table entry.
struct SchedCounters {
#define MCMPI_SCHED_FIELD(name, merge) std::uint64_t name = 0;
  MCMPI_SCHED_COUNTERS(MCMPI_SCHED_FIELD)
#undef MCMPI_SCHED_FIELD

  /// Fieldwise merge — how the sharded simulator folds its per-shard
  /// counters into the figures the benches record.
  SchedCounters& operator+=(const SchedCounters& other) {
#define MCMPI_SCHED_MERGE(name, merge)                                   \
  name = CounterMerge::merge == CounterMerge::kMax                       \
             ? std::max(name, other.name)                                \
             : name + other.name;
    MCMPI_SCHED_COUNTERS(MCMPI_SCHED_MERGE)
#undef MCMPI_SCHED_MERGE
    return *this;
  }
};

/// Calls f(name, field, merge) once per counter, in table order; `field` is
/// a reference into `counters` (const or mutable, as passed).
template <class Counters, class F>
void for_each_counter(Counters& counters, F&& f) {
#define MCMPI_SCHED_VISIT(name, merge) \
  f(#name, counters.name, CounterMerge::merge);
  MCMPI_SCHED_COUNTERS(MCMPI_SCHED_VISIT)
#undef MCMPI_SCHED_VISIT
}

}  // namespace mcmpi::sim
