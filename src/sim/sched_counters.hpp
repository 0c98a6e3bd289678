#pragma once
/// \file sched_counters.hpp
/// Scheduler-level instrumentation, kept in a dependency-free header so the
/// network layer (net/counters.hpp) and the benches can re-export it next to
/// the frame and payload counters without pulling in the whole simulator.

#include <algorithm>
#include <cstdint>

namespace mcmpi::sim {

/// Per-Simulator counters for the costs the fiber scheduler exists to
/// minimise.  BENCH_<name>.json records handoffs alongside events and
/// payload copies, so the scheduling cost of a collective is tracked across
/// PRs the same way its copy cost is.
struct SchedCounters {
  /// Scheduler -> process control transfers (one per SimProcess resume).
  /// Fibers make each handoff cheap; coalescing makes them rare.
  std::uint64_t handoffs = 0;

  /// delay() calls that advanced the clock in place — no timer event, no
  /// block/resume pair — because nothing else could run in the window.
  std::uint64_t coalesced_delays = 0;

  /// Callbacks folded into a previously scheduled batch event instead of
  /// costing their own heap entry (schedule_batch_at fan-outs).
  std::uint64_t batched_callbacks = 0;

  /// Events fired (a batch of N callbacks counts once — it is one event).
  std::uint64_t events_executed = 0;

  /// Allocation-pool receipts: schedule/cross-send requests served from a
  /// free list (a recycled event slot or cross-shard inbox node) vs. those
  /// that had to grow the backing store.  Deterministic — reuse depends only
  /// on each shard's execution order, never on thread timing — so the split
  /// is gated in bench JSON like every other counter.
  std::uint64_t event_pool_hits = 0;
  std::uint64_t event_pool_misses = 0;

  /// Ack-window instrumentation of the stream engine's ack-feedback mode
  /// (coll/mcast_stream.cpp, e.g. mcast-segmented, ack-mcast).
  /// chunk_sent counts first transmissions, chunk_retried the
  /// timeout-driven re-multicasts, chunk_acked every per-chunk ack the
  /// root consumed; chunk_peak_window is the high-water mark of
  /// simultaneously in-flight (sent, not yet fully acked) chunks — the
  /// direct evidence that pipelining actually overlapped transmissions
  /// (lockstep pins it at 1).
  std::uint64_t chunk_sent = 0;
  std::uint64_t chunk_acked = 0;
  std::uint64_t chunk_retried = 0;
  std::uint64_t chunk_peak_window = 0;

  /// Fault-injection layer (net/fault.hpp): frames the per-link models
  /// dropped, duplicated, or delayed out of order at delivery edges.
  /// Counted on the shard executing the delivery, so the totals merge like
  /// every other scheduler counter and are bit-identical across shard
  /// counts and drivers.
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;

  /// Reliable-multicast recovery instrumentation (coll/mcast_stream.cpp):
  /// receiver-side NACK rounds sent, root-side NACKs suppressed by the
  /// sink's aggregation window, and protocol-level payload re-multicasts
  /// (ack-window timeouts + NACK-served resends).
  std::uint64_t nacks_sent = 0;
  std::uint64_t nacks_suppressed = 0;
  std::uint64_t retransmits = 0;

  /// Parity-generation instrumentation of the stream engine (fec-mcast,
  /// or any preset with a parity overhead): parity frames multicast by
  /// roots, parity rows actually consumed by receiver-side
  /// reconstructions, generations reconstructed (fec_decodes), and NACK
  /// rounds of parity-carrying streams whose generation lost more than its
  /// parity could absorb (fec_fallbacks).  parity_sent - parity_used is the bandwidth the
  /// protocol burned for nothing — the measurable cost of its zero-RTT
  /// recovery.
  std::uint64_t parity_sent = 0;
  std::uint64_t parity_used = 0;
  std::uint64_t fec_decodes = 0;
  std::uint64_t fec_fallbacks = 0;

  /// Fieldwise accumulate — how the sharded simulator merges its per-shard
  /// counters into the figures the benches record.  chunk_peak_window is a
  /// high-water mark, so it merges by max, not sum.
  SchedCounters& operator+=(const SchedCounters& other) {
    handoffs += other.handoffs;
    coalesced_delays += other.coalesced_delays;
    batched_callbacks += other.batched_callbacks;
    events_executed += other.events_executed;
    event_pool_hits += other.event_pool_hits;
    event_pool_misses += other.event_pool_misses;
    chunk_sent += other.chunk_sent;
    chunk_acked += other.chunk_acked;
    chunk_retried += other.chunk_retried;
    chunk_peak_window = std::max(chunk_peak_window, other.chunk_peak_window);
    frames_dropped += other.frames_dropped;
    frames_duplicated += other.frames_duplicated;
    frames_reordered += other.frames_reordered;
    nacks_sent += other.nacks_sent;
    nacks_suppressed += other.nacks_suppressed;
    retransmits += other.retransmits;
    parity_sent += other.parity_sent;
    parity_used += other.parity_used;
    fec_decodes += other.fec_decodes;
    fec_fallbacks += other.fec_fallbacks;
    return *this;
  }
};

}  // namespace mcmpi::sim
