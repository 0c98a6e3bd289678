#pragma once
/// \file simulator.hpp
/// The discrete-event simulator and its cooperative process model.
///
/// Design: SPMD rank code must read like ordinary blocking MPI code, so each
/// simulated process runs on its own ExecutionContext — by default a
/// stackful fiber inside the simulator's address space, so a block/resume is
/// an in-process context switch; optionally (MCMPI_SIM_BACKEND=thread, or a
/// constructor argument) a dedicated OS thread handed off through binary
/// semaphores, kept as a fallback and as a determinism oracle.  Within one
/// shard *exactly one* context (a process or the scheduler) is ever
/// runnable: execution is deterministic and data-race-free by construction,
/// and the ready queue plus the event queue impose a total order.  The two
/// backends produce bit-identical simulations.
///
/// Sharding (conservative parallel DES): the simulator can be partitioned
/// into SHARDS — one per network segment — each with its own clock, event
/// queue, ready list, RNG stream and SchedCounters.  Shards interact only
/// through schedule_cross(), whose deliveries are bounded below by a
/// configured LOOKAHEAD: either one uniform bound (the minimum
/// cross-segment link latency) or a per-pair matrix of direct channel
/// latencies, closed over indirect paths, so a shard is gated only by the
/// trunks that can actually reach it.  Execution proceeds in conservative
/// windows: each round, shard i may run every event strictly before
/// W_i = min_{j != i} (next_j + lookahead(j, i)), because no peer can
/// deliver anything earlier.  Cross deliveries carry the SENDER's
/// (shard, seq) ordering key, so their order against the receiver's own
/// same-tick events is the deterministic tie-break (time, shard, seq) —
/// never thread timing.  Two drivers execute the same rounds:
///
///   kSerial   — one thread runs the shards' windows in shard order; the
///               determinism REFERENCE.
///   kParallel — worker threads (one per shard by default; fewer when
///               ShardingConfig::workers caps them, each then running its
///               shards in ascending id order), two sense-reversing atomic
///               barrier phases per round (quiesce, then merge + plan).
///               Bit-identical to the serial driver — and to every worker
///               count — by construction.
///
/// A 1-shard simulator (the default) skips all of this and runs the classic
/// loop; a K-shard simulator whose work all lands on one shard (every
/// segment mapped to shard 0) plans unbounded windows for it and is
/// bit-identical to the classic loop too, counters included.
///
/// The per-shard scheduler loop:
///   1. while processes are ready, run them in FIFO order;
///   2. otherwise advance the clock to the earliest event time inside the
///      window and fire the events of that tick back to back (pausing
///      whenever a callback makes a process ready, so the FIFO interleave is
///      preserved);
///   3. when neither exists below the window bound: the round is over (with
///      an unbounded window: done, or deadlock if processes are still
///      alive).
///
/// Scheduling-cost fast paths (see SchedCounters for the receipts):
///   * delay() advances the clock in place — no timer event, no handoff —
///     when no other process is ready and no event falls inside the window;
///     nothing could have run in the meantime anyway.  (In a sharded run the
///     jump is additionally bounded by the round window, so a shard can
///     never advance past a time at which a peer may still deliver.)
///   * schedule_batch_at() folds N same-tick callbacks (a switch fanning a
///     frame to N egress ports) into one heap entry and one event slot.
///
/// Determinism guarantees (unchanged from the thread-per-rank design, and
/// guarded by tests): FIFO ready order, per-process RNG streams forked from
/// the owning shard's stream (itself forked from the simulator seed),
/// DeadlockError naming every blocked process, exception propagation out of
/// process bodies, and ProcessKilled unwind of still-parked processes at
/// teardown.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/execution_context.hpp"
#include "sim/sched_counters.hpp"

namespace mcmpi {
class PayloadPool;
}

namespace mcmpi::sim {

class Shard;
class Simulator;
class WaitQueue;

/// Thrown by Simulator::run() when live processes remain but no event or
/// ready process can make progress (e.g. a barrier entered by only N-1
/// ranks).  The message lists every blocked process.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Internal unwind signal delivered to blocked processes at teardown.
struct ProcessKilled {};
}  // namespace detail

/// Which thread model executes a multi-shard simulation's rounds.
enum class ShardDriver { kSerial, kParallel };

const char* to_string(ShardDriver driver);

/// Partitioning configuration.  `lookahead` must be positive when
/// `shards > 1` and any cross-shard traffic exists: it is the promise that
/// every schedule_cross() delivery lies at least that far in the sender's
/// future (the cluster layer passes its minimum trunk latency).
struct ShardingConfig {
  unsigned shards = 1;
  SimTime lookahead = kTimeZero;
  ShardDriver driver = ShardDriver::kParallel;
  /// Install a per-shard size-classed payload buffer pool (common/bytes.hpp)
  /// for the duration of each shard's execution, so datagram assembly
  /// recycles backing buffers instead of allocating.  Off by default: the
  /// pool changes the payload_allocs figures the committed bench baselines
  /// pin, so only throughput-mode runs opt in.  Deterministic either way —
  /// remote returns are drained at round boundaries, so pool hits are a
  /// pure function of the simulation, identical across drivers.
  bool payload_pool = false;
  /// Optional flattened shards×shards matrix of DIRECT cross-shard channel
  /// latencies: entry [i*shards + j] is the minimum latency of any channel
  /// from shard i to shard j (kTimeInfinity when no direct channel exists;
  /// the diagonal is ignored).  Empty = the uniform `lookahead` between
  /// every pair.  The simulator closes the matrix over indirect paths
  /// (all-pairs shortest path), so each shard's conservative window is
  /// bounded only by the trunks that can actually reach it — a pair joined
  /// by a slow trunk no longer throttles the whole topology to the global
  /// minimum.
  std::vector<SimTime> lookahead_matrix;
  /// Worker threads the parallel driver multiplexes the shards onto: shard
  /// i runs on worker i % workers, and each worker executes its shards in
  /// ascending id order within every round — so the round schedule (and
  /// every counter) is a pure function of the simulation, independent of
  /// the worker count.  0 = one worker per shard; 1 collapses to the
  /// serial driver.
  unsigned workers = 0;
};

/// A simulated process.  The body runs on its own execution context (fiber
/// or thread) and interacts with virtual time only through this handle
/// (delay / WaitQueue::wait / yield).  A process is pinned to the shard it
/// was spawned on for its whole life.
class SimProcess {
 public:
  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;
  ~SimProcess();

  const std::string& name() const { return name_; }
  std::size_t index() const { return index_; }
  Simulator& simulator();
  Shard& shard() { return shard_; }

  /// Per-process deterministic stream (forked from the home shard's stream).
  Rng& rng() { return rng_; }

  /// Current virtual time (the home shard's clock).
  SimTime now() const;

  /// Advances virtual time by `d` (models compute / software overhead).
  /// Other processes and events run in the meantime.  When nothing else
  /// could run — no ready process, no event inside the window, and the
  /// whole interval inside the shard's conservative window — the clock
  /// advances in place and adjacent charges coalesce with no handoff at all.
  void delay(SimTime d);

  /// Sleeps until absolute virtual time `t` (no-op if already past).
  void delay_until(SimTime t) {
    if (t > now()) {
      delay(t - now());
    }
  }

  /// Re-queues this process behind every currently ready process without
  /// advancing time.
  void yield();

  bool finished() const { return state_ == State::kFinished; }

 private:
  friend class Shard;
  friend class Simulator;
  friend class WaitQueue;

  enum class State { kNew, kReady, kRunning, kBlocked, kFinished };

  SimProcess(Shard& shard, std::size_t index, std::string name,
             std::function<void(SimProcess&)> body, Rng rng);

  /// Entry point on the execution context: runs the body, catches teardown
  /// unwinds and stray exceptions, marks the process finished.
  void run_body();
  /// Hands control back to the scheduler; returns when rescheduled.
  void block();

  Shard& shard_;
  std::size_t index_;
  std::string name_;
  std::function<void(SimProcess&)> body_;
  Rng rng_;

  State state_ = State::kNew;
  bool cancelled_ = false;
  std::exception_ptr error_;
  WaitQueue* waiting_on_ = nullptr;  // set while parked in a WaitQueue
  bool timed_out_ = false;           // result channel for wait_until
  /// While parked via WaitQueue::wait_charged: the notifier-side hook that
  /// prices this process's wake-up (points into the parked stack frame).
  const std::function<SimTime()>* wake_charge_ = nullptr;
  std::unique_ptr<ExecutionContext> context_;
};

/// One partition of the simulation: a clock, an event queue, a ready list,
/// an RNG stream, counters, and the processes pinned to it.  All mutation
/// happens from the shard's own execution (its driver thread of the current
/// round) except the cross-shard inbox — a lock-free MPSC intrusive stack
/// peers CAS-push nodes onto; the owner takes the whole stack at round
/// boundaries and merges it into the event queue.
class Shard {
 public:
  ~Shard();
  unsigned id() const { return id_; }
  SimTime now() const { return now_; }
  Simulator& simulator() { return sim_; }
  /// Scheduler counters including the event-slot pool receipts kept inside
  /// the event queue (merged on read; the struct is tiny).
  SchedCounters sched_counters() const {
    SchedCounters merged = sched_;
    merged.event_pool_hits += events_.pool_hits();
    merged.event_pool_misses += events_.pool_misses();
    return merged;
  }
  /// Mutable access for instrumented protocol code (segmented collectives
  /// bump their chunk_* counters here).  Shard state is owner-execution-only,
  /// so a process may write through this during its own run without racing.
  SchedCounters& counters() { return sched_; }
  std::uint64_t events_scheduled() const { return events_.total_scheduled(); }
  std::size_t live_processes() const { return live_processes_; }
  /// This shard's payload buffer pool; null unless the simulator was
  /// configured with ShardingConfig::payload_pool.
  PayloadPool* payload_pool() const { return payload_pool_.get(); }

 private:
  friend class SimProcess;
  friend class Simulator;
  friend class WaitQueue;

  Shard(Simulator& sim, unsigned id, std::uint64_t seed, bool payload_pool);

  EventId schedule_at(SimTime t, EventFn fn);
  EventId schedule_after(SimTime d, EventFn fn) {
    return schedule_at(now_ + d, std::move(fn));
  }
  bool cancel(EventId id) { return events_.cancel(id); }

  SimProcess& spawn(std::string name, std::function<void(SimProcess&)> body,
                    Rng rng);

  void make_ready(SimProcess& p);
  /// Transfers control to `p` until it blocks, yields or finishes.
  void run_process(SimProcess& p);
  /// One scheduler step strictly below window_end_; false when none
  /// remains.  window_end_ is consulted per step because a cross-shard
  /// send shrinks it mid-round (see schedule_cross).
  bool step();
  /// Runs steps below the (dynamic) window.  When
  /// `stop_at_local_quiescence` is set (run_until_processes_done with no
  /// live process on any peer), stepping also stops the moment this
  /// shard's live-process count reaches zero — the classic semantics.
  void run_window(bool stop_at_local_quiescence);
  /// Earliest time this shard could execute (or send) anything: its clock
  /// while processes are ready, else its next event time.
  SimTime next_ready_time() const {
    return ready_.empty() ? events_.next_time() : now_;
  }
  /// One cross-shard delivery, an intrusive node of the MPSC inbox stack.
  /// Nodes are recycled through the owner's node_cache_ (owner-thread-only,
  /// so hit counts stay deterministic) and counted as event-pool traffic.
  struct CrossNode {
    SimTime time = kTimeZero;
    EventQueue::OrderKey key = 0;
    EventFn fn;
    CrossNode* next = nullptr;
  };

  /// Moves every pending cross delivery into the event queue (keyed with
  /// the sender's identity) and drains the payload pool's remote returns.
  /// Round-boundary only — no peer touches the stack between rounds, so
  /// exchange + walk is race-free.
  void merge_inbox();
  /// Lock-free MPSC push, called by PEER shards (any worker thread).
  void push_cross(CrossNode* node);
  /// Sender-side node allocation from this shard's own cache.
  CrossNode* take_cross_node();
  void recycle_cross_node(CrossNode* node);
  /// Frees undelivered inbox nodes and the cache (teardown).
  void drop_inbox();

  Simulator& sim_;
  unsigned id_;
  SimTime now_ = kTimeZero;
  Rng rng_;
  EventQueue events_;
  std::deque<SimProcess*> ready_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  SimProcess* current_ = nullptr;
  std::size_t live_processes_ = 0;
  SchedCounters sched_;
  /// Exclusive upper bound on this round's execution (kTimeInfinity when
  /// unconstrained); also caps the in-place delay coalesce.  Dynamic: the
  /// round plan seeds it, and the shard's own first cross-shard send of
  /// the round lowers it to send time + 2*lookahead — the earliest instant
  /// a CAUSAL response (peer reacts after one trunk hop, replies after
  /// another) could come back.  Without that clamp a shard with currently
  /// idle peers would run unboundedly ahead and then meet its own
  /// consequences in the past.
  SimTime window_end_ = kTimeInfinity;
  std::exception_ptr error_;

  /// Head of the MPSC inbox stack (Treiber push; owner exchanges to drain).
  std::atomic<CrossNode*> inbox_head_{nullptr};
  /// Recycled CrossNodes, touched only by this shard's own execution.
  std::vector<CrossNode*> node_cache_;
  /// Per-shard payload buffer pool (null unless ShardingConfig requested
  /// one); installed as the thread-local pool around this shard's windows.
  std::unique_ptr<PayloadPool> payload_pool_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1,
                     ExecutionBackend backend = default_execution_backend(),
                     ShardingConfig sharding = ShardingConfig{});
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The calling context's virtual time: inside a run this is the executing
  /// shard's clock; outside it is the latest clock any shard has reached
  /// (identical notions for a single-shard simulator).
  SimTime now() const;
  /// The calling shard's RNG stream (the root shard's outside a run).
  Rng& rng();
  ExecutionBackend backend() const { return backend_; }

  unsigned num_shards() const { return static_cast<unsigned>(shards_.size()); }
  ShardDriver shard_driver() const { return driver_; }
  SimTime lookahead() const { return lookahead_; }
  /// Closed (shortest-path) delivery bound from shard `src` to shard `dst`:
  /// no execution on `src` at time t can influence `dst` before
  /// t + lookahead(src, dst).  Uniform configurations return `lookahead`
  /// for every distinct pair; kTimeInfinity when `dst` is unreachable.
  SimTime lookahead(unsigned src, unsigned dst) const {
    return closure_[src * shards_.size() + dst];
  }
  /// Worker threads the parallel driver uses (<= num_shards()).
  unsigned workers() const { return workers_; }
  bool payload_pool_enabled() const { return payload_pool_; }
  Shard& shard(unsigned index) { return *shards_.at(index); }

  /// Schedules a callback at absolute virtual time `t` (>= now()) on the
  /// calling shard.  Small callables are stored inline in the event queue
  /// (no allocation).
  EventId schedule_at(SimTime t, EventFn fn);
  /// Schedules a callback `delay` after now().
  EventId schedule_after(SimTime delay, EventFn fn);

  /// Schedules `batch` to run consecutively, in order, as ONE event at time
  /// `t` — one heap entry and one slot for a whole fan-out.  Cancelling the
  /// returned id cancels the entire batch.
  EventId schedule_batch_at(SimTime t, std::vector<EventFn> batch);
  EventId schedule_batch_after(SimTime delay, std::vector<EventFn> batch);

  /// Cancels an event scheduled from this shard (event ids are shard-local;
  /// every in-tree caller cancels events it scheduled itself).
  bool cancel(EventId id);

  /// Schedules `fn` at absolute time `t` on `target_shard`.  Same-shard (or
  /// pre-run) calls collapse to a plain schedule; a genuine cross-shard call
  /// inside a run requires  t >= sender now() + lookahead  and delivers the
  /// callback with the sender's deterministic (shard, seq) ordering key.
  void schedule_cross(unsigned target_shard, SimTime t, EventFn fn);

  /// Pre-run scheduling on an explicit shard (instrumentation snapshots the
  /// experiment layer plants before starting the simulation).
  EventId schedule_on_shard_at(unsigned shard, SimTime t, EventFn fn);

  /// Creates a process on the calling shard (the executing shard inside a
  /// run — a helper spawned by rank code lands next to that rank — and
  /// shard 0 outside).  Processes start running when run() is called, in
  /// FIFO spawn order per shard, at their shard's current virtual time.
  SimProcess& spawn(std::string name, std::function<void(SimProcess&)> body);

  /// Creates a process pinned to `shard` (how the cluster layer places each
  /// rank on its segment's shard).  Pre-run only.
  SimProcess& spawn_on(unsigned shard, std::string name,
                       std::function<void(SimProcess&)> body);

  /// Runs until every process has finished and every event queue is empty.
  /// Rethrows the first exception raised inside a process (lowest shard
  /// first when several shards fail in one round).  Throws DeadlockError if
  /// live processes remain but nothing can run.
  void run();

  /// Runs until every process has finished; pending pure-timer events are
  /// allowed to remain (they are discarded by the destructor).  With
  /// several concurrently active shards the stop is at round granularity.
  void run_until_processes_done();

  /// Number of spawned processes that have not finished, across all shards.
  /// O(shards): each shard maintains its count on spawn/finish.
  std::size_t live_processes() const;

  /// The process currently executing on the calling shard, or nullptr when
  /// a scheduler (an event callback, or code outside run()) is in control.
  /// Lets facades that serve several processes of one logical rank (the
  /// nonblocking collective helpers) resolve "which process am I".
  SimProcess* current();

  /// Scheduler-cost instrumentation (handoffs, coalesced delays, batched
  /// callbacks), merged across shards; exported into BENCH_<name>.json by
  /// the benches.  Per-shard values via shard(i).sched_counters().
  SchedCounters sched_counters() const;

  /// Scheduler -> process control transfers so far (micro-bench shorthand).
  std::uint64_t handoffs() const { return sched_counters().handoffs; }

  /// Total events executed so far (micro-bench instrumentation).
  std::uint64_t events_executed() const {
    return sched_counters().events_executed;
  }

  /// Total events ever scheduled, including later-cancelled ones (the
  /// scheduler-load figure the bench JSON records).  Summed over shards; a
  /// cross-shard delivery counts once, on its receiving shard.
  std::uint64_t events_scheduled() const;

  /// The calling shard's mutable counters (the root shard's outside a run).
  /// Owner-execution-only, like Shard::counters(): bump only from code
  /// executing on the shard the counter belongs to.
  SchedCounters& counters();

 private:
  friend class Shard;
  friend class SimProcess;
  friend class WaitQueue;

  /// The shard owning the calling thread's execution, or the root shard
  /// when no shard of THIS simulator is executing (setup / teardown code).
  Shard& current_shard();
  const Shard& current_shard() const;

  /// One conservative round: per-shard window bounds plus driver flags.
  struct RoundPlan {
    bool done = false;
    std::vector<SimTime> window;
    std::vector<char> stop_at_local_quiescence;
  };
  RoundPlan plan_round(bool until_processes_done);
  void run_windows_serial(bool until_processes_done);
  void run_windows_parallel(bool until_processes_done);
  void run_driver(bool until_processes_done);
  void rethrow_shard_error();
  void check_deadlock() const;

  ExecutionBackend backend_;
  ShardDriver driver_;
  SimTime lookahead_ = kTimeZero;
  /// Flattened shards×shards all-pairs shortest-path closure of the direct
  /// lookahead matrix (uniform `lookahead_` when none was configured).
  std::vector<SimTime> closure_;
  unsigned workers_ = 1;
  bool payload_pool_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool running_ = false;
};

}  // namespace mcmpi::sim
