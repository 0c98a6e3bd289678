#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "sim/wait.hpp"

namespace mcmpi::sim {

namespace {

/// The shard whose scheduler (or process) the calling thread is currently
/// executing.  Set around every window/run/teardown so that Simulator's
/// routed API (now / rng / schedule / spawn / current) resolves to the
/// executing shard from rank code, event callbacks and network models
/// alike.  Null outside any simulation.
thread_local Shard* tls_shard = nullptr;

class TlsShardGuard {
 public:
  explicit TlsShardGuard(Shard* shard)
      : prev_(tls_shard),
        pool_scope_(shard != nullptr ? shard->payload_pool() : nullptr) {
    tls_shard = shard;
  }
  ~TlsShardGuard() { tls_shard = prev_; }
  TlsShardGuard(const TlsShardGuard&) = delete;
  TlsShardGuard& operator=(const TlsShardGuard&) = delete;

 private:
  Shard* prev_;
  /// Routes payload-buffer leases and releases during this shard's
  /// execution to the shard's own pool (no-op when pooling is off).
  PayloadPoolScope pool_scope_;
};

/// Independent, reproducible per-shard seed.  Shard 0 keeps the simulator
/// seed itself so a single-shard simulator is bit-identical to the classic
/// unsharded one (same RNG stream for process forks and hub backoffs).
std::uint64_t shard_seed(std::uint64_t seed, unsigned id) {
  if (id == 0) {
    return seed;
  }
  std::uint64_t mix = seed ^ (0x9E3779B97F4A7C15ULL * (id + 1));
  return splitmix64(mix);
}

/// min + lookahead without overflowing the kTimeInfinity sentinel.
SimTime saturating_add(SimTime t, SimTime d) {
  if (t >= kTimeInfinity - d) {
    return kTimeInfinity;
  }
  return t + d;
}

}  // namespace

const char* to_string(ShardDriver driver) {
  return driver == ShardDriver::kSerial ? "serial" : "parallel";
}

// ---------------------------------------------------------------- SimProcess

SimProcess::SimProcess(Shard& shard, std::size_t index, std::string name,
                       std::function<void(SimProcess&)> body, Rng rng)
    : shard_(shard),
      index_(index),
      name_(std::move(name)),
      body_(std::move(body)),
      rng_(rng) {
  context_ =
      ExecutionContext::create(shard.sim_.backend_, [this] { run_body(); });
}

SimProcess::~SimProcess() = default;

Simulator& SimProcess::simulator() { return shard_.sim_; }

void SimProcess::run_body() {
  // Pin the executing thread's shard routing to this process's home shard
  // for the body's whole lifetime.  Under the fiber backend this is a
  // no-op (the body runs on the shard's own driver thread, whose guard
  // already points here); under the THREAD backend the body runs on its
  // dedicated OS thread, whose thread-local would otherwise fall back to
  // the root shard and misroute every schedule/now/rng call of a rank
  // living on another shard.
  const TlsShardGuard guard(&shard_);
  if (!cancelled_) {
    try {
      body_(*this);
    } catch (const detail::ProcessKilled&) {
      // normal teardown unwind
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  state_ = State::kFinished;
  MC_ASSERT(shard_.live_processes_ > 0);
  --shard_.live_processes_;
  // Returning hands control back to the scheduler for good.
}

void SimProcess::block() {
  context_->suspend();
  if (cancelled_) {
    throw detail::ProcessKilled{};
  }
}

SimTime SimProcess::now() const { return shard_.now_; }

void SimProcess::delay(SimTime d) {
  MC_EXPECTS(d >= kTimeZero);
  if (d == kTimeZero) {
    return;
  }
  // Coalesced fast path: with no other process ready and no event strictly
  // inside [now, now+d], nothing could run in the window — advance the
  // clock in place.  An event at exactly now+d must still win the tick
  // (its seq predates the timer this delay would have scheduled), hence
  // the strict comparison.  In a sharded run the jump must additionally
  // stay strictly inside the conservative round window: past it, a peer
  // shard may still deliver, so the slow path schedules a timer that waits
  // for a later round instead.
  Shard& sh = shard_;
  if (sh.ready_.empty() && sh.events_.next_time() > sh.now_ + d &&
      sh.now_ + d < sh.window_end_) {
    sh.now_ += d;
    ++sh.sched_.coalesced_delays;
    return;
  }
  state_ = State::kBlocked;
  sh.schedule_after(d, [this] { shard_.make_ready(*this); });
  block();
}

void SimProcess::yield() {
  state_ = State::kReady;
  shard_.ready_.push_back(this);
  block();
}

// --------------------------------------------------------------------- Shard

Shard::Shard(Simulator& sim, unsigned id, std::uint64_t seed,
             bool payload_pool)
    : sim_(sim), id_(id), rng_(shard_seed(seed, id)) {
  events_.set_shard_tag(static_cast<std::uint16_t>(id));
  if (payload_pool) {
    payload_pool_ = std::make_unique<PayloadPool>();
  }
}

Shard::~Shard() { drop_inbox(); }

EventId Shard::schedule_at(SimTime t, EventFn fn) {
  MC_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
  return events_.schedule(t, std::move(fn));
}

SimProcess& Shard::spawn(std::string name,
                         std::function<void(SimProcess&)> body, Rng rng) {
  const std::size_t index = processes_.size();
  // Constructor is private; construct via `new` under unique_ptr ownership.
  processes_.emplace_back(std::unique_ptr<SimProcess>(
      new SimProcess(*this, index, std::move(name), std::move(body), rng)));
  SimProcess& p = *processes_.back();
  p.state_ = SimProcess::State::kReady;
  ready_.push_back(&p);
  ++live_processes_;
  return p;
}

void Shard::make_ready(SimProcess& p) {
  MC_ASSERT(p.state_ == SimProcess::State::kBlocked);
  MC_ASSERT(&p.shard_ == this);
  p.state_ = SimProcess::State::kReady;
  ready_.push_back(&p);
}

void Shard::run_process(SimProcess& p) {
  MC_ASSERT(current_ == nullptr);
  MC_ASSERT(p.state_ == SimProcess::State::kReady);
  current_ = &p;
  p.state_ = SimProcess::State::kRunning;
  ++sched_.handoffs;
  p.context_->resume();
  current_ = nullptr;
  if (p.state_ == SimProcess::State::kFinished && p.error_) {
    std::exception_ptr e = p.error_;
    p.error_ = nullptr;
    std::rethrow_exception(e);
  }
}

bool Shard::step() {
  if (!ready_.empty()) {
    SimProcess* p = ready_.front();
    ready_.pop_front();
    run_process(*p);
    return true;
  }
  const SimTime t = events_.next_time();
  if (t >= window_end_) {
    // Covers the empty queue too: kTimeInfinity >= any window.
    return false;
  }
  MC_ASSERT(t >= now_);
  now_ = t;
  // Batched same-tick drain: fire every event of this timestamp back to
  // back, pausing whenever a callback makes a process ready so the FIFO
  // process interleave is exactly what per-event stepping produced.
  while (auto fired = events_.pop_if_at(t)) {
    ++sched_.events_executed;
    fired->fn();
    if (!ready_.empty()) {
      break;
    }
  }
  return true;
}

void Shard::run_window(bool stop_at_local_quiescence) {
  if (stop_at_local_quiescence) {
    while (live_processes_ > 0 && step()) {
    }
  } else {
    while (step()) {
    }
  }
}

void Shard::merge_inbox() {
  // Take-all drain: the acquire exchange synchronizes with every release
  // CAS push, so each node's contents are fully visible here.  The stack
  // yields nodes newest-first, which is fine — the event queue totally
  // orders entries by (time, sender key), so heap insertion order never
  // affects what fires when.
  CrossNode* node = inbox_head_.exchange(nullptr, std::memory_order_acquire);
  while (node != nullptr) {
    CrossNode* next = node->next;
    MC_ASSERT_MSG(node->time >= now_,
                  "cross-shard delivery arrived in the past");
    events_.schedule_keyed(node->time, node->key, std::move(node->fn));
    recycle_cross_node(node);
    node = next;
  }
  if (payload_pool_ != nullptr) {
    payload_pool_->drain_remote();
  }
}

void Shard::push_cross(CrossNode* node) {
  CrossNode* head = inbox_head_.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!inbox_head_.compare_exchange_weak(head, node,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
}

Shard::CrossNode* Shard::take_cross_node() {
  if (!node_cache_.empty()) {
    CrossNode* node = node_cache_.back();
    node_cache_.pop_back();
    ++sched_.event_pool_hits;
    return node;
  }
  ++sched_.event_pool_misses;
  return new CrossNode;
}

void Shard::recycle_cross_node(CrossNode* node) {
  constexpr std::size_t kNodeCacheCap = 256;
  if (node_cache_.size() >= kNodeCacheCap) {
    delete node;
    return;
  }
  node->fn.reset();
  node->next = nullptr;
  node_cache_.push_back(node);
}

void Shard::drop_inbox() {
  // Undelivered cross-shard callbacks (and the frames they captured) are
  // dropped with the simulation.
  CrossNode* node = inbox_head_.exchange(nullptr, std::memory_order_acquire);
  while (node != nullptr) {
    CrossNode* next = node->next;
    delete node;
    node = next;
  }
  for (CrossNode* cached : node_cache_) {
    delete cached;
  }
  node_cache_.clear();
}

// ----------------------------------------------------------------- Simulator

Simulator::Simulator(std::uint64_t seed, ExecutionBackend backend,
                     ShardingConfig sharding)
    : backend_(backend),
      driver_(sharding.driver),
      lookahead_(sharding.lookahead),
      payload_pool_(sharding.payload_pool) {
  MC_EXPECTS_MSG(sharding.shards >= 1, "need at least one shard");
  MC_EXPECTS_MSG(sharding.shards <= 0xFFFF, "shard id must fit 16 bits");
  const std::size_t n = sharding.shards;
  MC_EXPECTS_MSG(
      sharding.lookahead_matrix.empty() ||
          sharding.lookahead_matrix.size() == n * n,
      "lookahead matrix must be empty or shards x shards entries");
  // Close the per-pair delivery bounds over indirect paths (Floyd–Warshall):
  // shard i can influence shard k through j no earlier than the sum of the
  // two hops, so the conservative bound between any pair is the shortest
  // path, not the direct channel alone.  A uniform configuration (empty
  // matrix) closes to `lookahead` for every distinct pair because paths
  // only add hops.
  closure_.assign(n * n, kTimeInfinity);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        closure_[i * n + j] = kTimeZero;
      } else if (sharding.lookahead_matrix.empty()) {
        closure_[i * n + j] = sharding.lookahead;
      } else {
        closure_[i * n + j] = sharding.lookahead_matrix[i * n + j];
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const SimTime via = saturating_add(closure_[i * n + k],
                                           closure_[k * n + j]);
        closure_[i * n + j] = std::min(closure_[i * n + j], via);
      }
    }
  }
  // Zero lookahead between two shards would plan zero-width windows the
  // moment their next-event times tie — a livelock, not an error the
  // drivers can detect later.  Require positive closed bounds up front
  // (an infinite bound is fine: those pairs simply never gate each other).
  SimTime min_pair = kTimeInfinity;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        MC_EXPECTS_MSG(closure_[i * n + j] > kTimeZero,
                       "a multi-shard simulator needs positive lookahead");
        min_pair = std::min(min_pair, closure_[i * n + j]);
      }
    }
  }
  if (!sharding.lookahead_matrix.empty() && min_pair != kTimeInfinity) {
    lookahead_ = min_pair;
  }
  workers_ = sharding.workers == 0
                 ? sharding.shards
                 : std::min(sharding.workers, sharding.shards);
  shards_.reserve(sharding.shards);
  for (unsigned i = 0; i < sharding.shards; ++i) {
    shards_.push_back(std::unique_ptr<Shard>(
        new Shard(*this, i, seed, sharding.payload_pool)));
  }
}

Simulator::~Simulator() {
  // Wake every unfinished process so it unwinds (ProcessKilled) while the
  // objects its stack references are still alive.  Each resume hands control
  // to exactly one context, preserving the one-runnable invariant; the TLS
  // guard keeps any scheduling the unwind performs routed to the home shard.
  for (auto& owned_shard : shards_) {
    Shard& shard = *owned_shard;
    const TlsShardGuard guard(&shard);
    for (auto& owned : shard.processes_) {
      SimProcess& p = *owned;
      if (p.state_ != SimProcess::State::kFinished) {
        p.cancelled_ = true;
        p.context_->resume();
        MC_ASSERT(p.state_ == SimProcess::State::kFinished);
      }
    }
    shard.drop_inbox();
  }
}

Shard& Simulator::current_shard() {
  if (tls_shard != nullptr && &tls_shard->sim_ == this) {
    return *tls_shard;
  }
  return *shards_.front();
}

const Shard& Simulator::current_shard() const {
  if (tls_shard != nullptr && &tls_shard->sim_ == this) {
    return *tls_shard;
  }
  return *shards_.front();
}

SimTime Simulator::now() const {
  if (tls_shard != nullptr && &tls_shard->sim_ == this) {
    return tls_shard->now_;
  }
  SimTime latest = kTimeZero;
  for (const auto& shard : shards_) {
    latest = std::max(latest, shard->now_);
  }
  return latest;
}

Rng& Simulator::rng() { return current_shard().rng_; }

EventId Simulator::schedule_at(SimTime t, EventFn fn) {
  return current_shard().schedule_at(t, std::move(fn));
}

EventId Simulator::schedule_after(SimTime delay, EventFn fn) {
  MC_EXPECTS(delay >= kTimeZero);
  Shard& shard = current_shard();
  return shard.schedule_at(shard.now_ + delay, std::move(fn));
}

EventId Simulator::schedule_batch_at(SimTime t, std::vector<EventFn> batch) {
  MC_EXPECTS_MSG(!batch.empty(), "empty event batch");
  if (batch.size() == 1) {
    return schedule_at(t, std::move(batch.front()));
  }
  Shard& shard = current_shard();
  shard.sched_.batched_callbacks += batch.size() - 1;
  return shard.schedule_at(t, [batch = std::move(batch)]() mutable {
    for (EventFn& fn : batch) {
      fn();
    }
  });
}

EventId Simulator::schedule_batch_after(SimTime delay,
                                        std::vector<EventFn> batch) {
  MC_EXPECTS(delay >= kTimeZero);
  return schedule_batch_at(current_shard().now_ + delay, std::move(batch));
}

bool Simulator::cancel(EventId id) { return current_shard().cancel(id); }

void Simulator::schedule_cross(unsigned target_shard, SimTime t, EventFn fn) {
  Shard& src = current_shard();
  Shard& dst = *shards_.at(target_shard);
  if (&src == &dst || !running_) {
    // Same shard, or single-threaded setup between runs: an ordinary event
    // with the receiving shard's own (deterministic) key.
    dst.schedule_at(t, std::move(fn));
    return;
  }
  const SimTime out_bound = lookahead(src.id_, dst.id_);
  MC_EXPECTS_MSG(out_bound != kTimeInfinity,
                 "cross-shard delivery to a shard the lookahead matrix "
                 "declares unreachable");
  MC_EXPECTS_MSG(
      t >= saturating_add(src.now_, out_bound),
      "cross-shard delivery violates the conservative lookahead bound");
  Shard::CrossNode* node = src.take_cross_node();
  node->time = t;
  node->key = src.events_.allocate_remote_key();
  node->fn = std::move(fn);
  dst.push_cross(node);
  // Causal-response horizon: the receiver can react one outbound hop from
  // now and its reply lands after the return bound, so this shard must not
  // execute past now + lookahead(src, dst) + lookahead(dst, src) this
  // round.  Deterministic — the clamp depends only on the shard's own
  // execution — and monotone within the round (later sends clamp no lower).
  const SimTime back_bound = lookahead(dst.id_, src.id_);
  if (back_bound != kTimeInfinity) {
    src.window_end_ = std::min(
        src.window_end_,
        saturating_add(src.now_, saturating_add(out_bound, back_bound)));
  }
}

EventId Simulator::schedule_on_shard_at(unsigned shard, SimTime t,
                                        EventFn fn) {
  MC_EXPECTS_MSG(!running_,
                 "schedule_on_shard_at is a pre-run setup primitive");
  return shards_.at(shard)->schedule_at(t, std::move(fn));
}

SimProcess& Simulator::spawn(std::string name,
                             std::function<void(SimProcess&)> body) {
  Shard& shard = current_shard();
  if (!running_) {
    return spawn_on(shard.id(), std::move(name), std::move(body));
  }
  // In-run spawn (a nonblocking-collective helper): fork from the SPAWNING
  // shard's stream — race-free under the parallel driver, and identical to
  // the classic global-stream fork whenever there is one shard.
  Rng child = shard.rng_.fork(shard.processes_.size() + 0x517E);
  return shard.spawn(std::move(name), std::move(body), child);
}

SimProcess& Simulator::spawn_on(unsigned shard, std::string name,
                                std::function<void(SimProcess&)> body) {
  MC_EXPECTS_MSG(!running_, "spawn_on is a pre-run setup primitive");
  // Pre-run spawns fork from the ROOT shard's stream, salted by the global
  // spawn count: the per-process streams (and therefore e.g. experiment
  // start skews) depend only on spawn order — never on how many shards the
  // processes end up spread across — and a single-shard simulator remains
  // bit-identical to the classic unsharded fork sequence.
  std::size_t total = 0;
  for (const auto& s : shards_) {
    total += s->processes_.size();
  }
  Rng child = shards_.front()->rng_.fork(total + 0x517E);
  return shards_.at(shard)->spawn(std::move(name), std::move(body), child);
}

std::size_t Simulator::live_processes() const {
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    live += shard->live_processes_;
  }
  return live;
}

SimProcess* Simulator::current() { return current_shard().current_; }

SchedCounters& Simulator::counters() { return current_shard().counters(); }

SchedCounters Simulator::sched_counters() const {
  SchedCounters merged;
  for (const auto& shard : shards_) {
    merged += shard->sched_counters();
  }
  return merged;
}

std::uint64_t Simulator::events_scheduled() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->events_.total_scheduled();
  }
  return total;
}

Simulator::RoundPlan Simulator::plan_round(bool until_processes_done) {
  const std::size_t n = shards_.size();
  std::vector<SimTime> next(n);
  std::size_t total_live = 0;
  bool any_work = false;
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = shards_[i]->next_ready_time();
    total_live += shards_[i]->live_processes_;
    any_work = any_work || next[i] != kTimeInfinity;
  }
  RoundPlan plan;
  if (!any_work) {
    plan.done = true;
    return plan;
  }
  plan.window.resize(n);
  plan.stop_at_local_quiescence.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    SimTime window = kTimeInfinity;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        // Nothing peer j could execute before next[j], so nothing it could
        // deliver here before next[j] + lookahead(j, i): shard i may run
        // everything strictly below the minimum over its peers.  With no
        // active peer (or only unreachable ones) the window is unbounded
        // and the shard behaves exactly like a classic unsharded simulator.
        window = std::min(window,
                          saturating_add(next[j], closure_[j * n + i]));
      }
    }
    plan.window[i] = window;
    // run_until_processes_done parity: when every live process sits on this
    // shard, its own live count IS the global one, and stepping may stop
    // the instant it reaches zero (the classic per-step check).  With live
    // processes elsewhere the round runs its full window and the global
    // check happens at the next barrier.
    plan.stop_at_local_quiescence[i] =
        until_processes_done &&
        total_live == shards_[i]->live_processes_ ? 1 : 0;
  }
  return plan;
}

void Simulator::run_windows_serial(bool until_processes_done) {
  for (;;) {
    for (auto& shard : shards_) {
      shard->merge_inbox();
    }
    if (until_processes_done && live_processes() == 0) {
      return;
    }
    const RoundPlan plan = plan_round(until_processes_done);
    if (plan.done) {
      return;
    }
    bool failed = false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const TlsShardGuard guard(&shard);
      shard.window_end_ = plan.window[i];
      try {
        shard.run_window(plan.stop_at_local_quiescence[i] != 0);
      } catch (...) {
        shard.error_ = std::current_exception();
        failed = true;
      }
      shard.window_end_ = kTimeInfinity;
    }
    if (failed) {
      return;
    }
  }
}

namespace {

/// Cyclic sense-reversing barrier with a completion hook the last arriver
/// runs before releasing anyone — two uncontended atomic ops per arrival
/// instead of a mutex/condvar round trip, which is what dominates per-round
/// sync cost at small lookahead windows.  Memory ordering (all C++ atomics,
/// so ThreadSanitizer models every edge exactly): each arrival's
/// fetch_sub(acq_rel) joins the release sequence on `remaining_`, so the
/// last arriver observes every earlier thread's window writes; its
/// release-store of `sense_` then publishes those plus the completion's own
/// writes (the round plan) to every spinner's acquire-load.  Waiters spin
/// briefly, then yield — worker counts are at most the shard count, so
/// oversubscribed hosts degrade to yield loops instead of burning a core.
class RoundBarrier {
 public:
  RoundBarrier(std::size_t parties, std::function<void()> completion)
      : parties_(parties),
        remaining_(parties),
        completion_(std::move(completion)) {}

  /// `my_sense` is the calling thread's phase flag for THIS barrier,
  /// flipped here on every arrival; start every thread at false.
  void arrive_and_wait(bool& my_sense) {
    const bool want = !my_sense;
    my_sense = want;
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Reset before the sense flip: peers of the NEXT round cannot reach
      // their fetch_sub until they observe the flip below.
      remaining_.store(parties_, std::memory_order_relaxed);
      if (completion_) {
        completion_();
      }
      sense_.store(want, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != want) {
      if (++spins >= kSpinLimit) {
        std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr int kSpinLimit = 1024;

  std::size_t parties_;
  std::atomic<std::size_t> remaining_;
  std::function<void()> completion_;
  std::atomic<bool> sense_{false};
};

}  // namespace

void Simulator::run_windows_parallel(bool until_processes_done) {
  RoundPlan plan;
  bool stop = false;
  // Worker w owns shards {i : i % W == w} and runs them in ascending id
  // order within every round.  The round schedule is identical for every
  // worker count (each shard's window depends only on the plan, and shards
  // within one round are independent by the conservative-window invariant),
  // so counters and timings are a pure function of the simulation — W only
  // decides how much of a round runs concurrently.
  const std::size_t parties = std::min<std::size_t>(workers_, shards_.size());
  // Two phases per round.  `quiesce` separates window execution from inbox
  // merging, so every cross push of round R is visible to its receiver's
  // merge; the completion of `ready` then plans round R+1 on the last
  // arriving thread while every other worker spins on the barrier's sense
  // flag — the plan is published before any worker resumes.
  RoundBarrier quiesce(parties, {});
  RoundBarrier ready(parties, [this, &plan, &stop, until_processes_done] {
    for (const auto& shard : shards_) {
      if (shard->error_) {
        stop = true;
        return;
      }
    }
    if (until_processes_done && live_processes() == 0) {
      stop = true;
      return;
    }
    plan = plan_round(until_processes_done);
    stop = plan.done;
  });

  auto worker = [&](std::size_t w) {
    bool quiesce_sense = false;
    bool ready_sense = false;
    for (;;) {
      quiesce.arrive_and_wait(quiesce_sense);
      for (std::size_t i = w; i < shards_.size(); i += parties) {
        shards_[i]->merge_inbox();
      }
      ready.arrive_and_wait(ready_sense);
      if (stop) {
        return;
      }
      for (std::size_t i = w; i < shards_.size(); i += parties) {
        Shard& shard = *shards_[i];
        const TlsShardGuard guard(&shard);
        shard.window_end_ = plan.window[i];
        try {
          shard.run_window(plan.stop_at_local_quiescence[i] != 0);
        } catch (...) {
          shard.error_ = std::current_exception();
        }
        shard.window_end_ = kTimeInfinity;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(parties - 1);
  for (std::size_t w = 1; w < parties; ++w) {
    threads.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : threads) {
    t.join();
  }
}

void Simulator::run_driver(bool until_processes_done) {
  // A single worker runs the shards in id order with nobody to synchronize
  // with — exactly the serial driver, minus the barrier spins.
  if (driver_ == ShardDriver::kSerial || workers_ <= 1) {
    run_windows_serial(until_processes_done);
  } else {
    run_windows_parallel(until_processes_done);
  }
  rethrow_shard_error();
}

void Simulator::rethrow_shard_error() {
  for (auto& shard : shards_) {
    if (shard->error_) {
      std::exception_ptr e = shard->error_;
      shard->error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Simulator::run() {
  MC_EXPECTS_MSG(!running_, "Simulator::run is not reentrant");
  running_ = true;
  try {
    if (shards_.size() == 1) {
      // Classic unsharded loop: one shard, unbounded window.  The merge is
      // for the payload pool: leases released outside any run (between
      // measurement loops) sit on the remote-return stack until here.
      Shard& shard = *shards_.front();
      const TlsShardGuard guard(&shard);
      shard.merge_inbox();
      while (shard.step()) {
      }
    } else {
      run_driver(/*until_processes_done=*/false);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  check_deadlock();
}

void Simulator::run_until_processes_done() {
  MC_EXPECTS_MSG(!running_, "Simulator::run is not reentrant");
  running_ = true;
  try {
    if (shards_.size() == 1) {
      Shard& shard = *shards_.front();
      const TlsShardGuard guard(&shard);
      shard.merge_inbox();
      while (shard.live_processes_ > 0 && shard.step()) {
      }
    } else {
      run_driver(/*until_processes_done=*/true);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  if (live_processes() > 0) {
    check_deadlock();
  }
}

void Simulator::check_deadlock() const {
  if (live_processes() == 0) {
    return;
  }
  std::ostringstream os;
  os << "simulation deadlock at t=" << now().count() << "ns; blocked:";
  for (const auto& shard : shards_) {
    for (const auto& p : shard->processes_) {
      if (p->state_ != SimProcess::State::kFinished) {
        os << ' ' << p->name();
      }
    }
  }
  throw DeadlockError(os.str());
}

}  // namespace mcmpi::sim
