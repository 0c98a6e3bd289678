#include "common/bytes.hpp"

#include <algorithm>
#include <atomic>

#include "common/rng.hpp"

namespace mcmpi {

namespace {

/// Mutable backing store for payload_counters().  Relaxed atomics: shards
/// of a parallel simulation touch payloads concurrently; every increment is
/// independent, so ordering does not matter and the totals are exact.
struct PayloadCounterCells {
  std::atomic<std::uint64_t> buffer_allocs{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> byte_copies{0};
  std::atomic<std::uint64_t> bytes_copied{0};
  std::atomic<std::uint64_t> slices{0};
};

PayloadCounterCells& payload_cells() {
  static PayloadCounterCells cells;
  return cells;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

namespace detail {

/// Shared guts of a PayloadPool.  Free lists are owner-execution-only; the
/// remote-return stack is the one concurrently touched member (lock-free
/// MPSC: releasing threads CAS-push, the owner exchanges the whole stack at
/// round boundaries).
struct PayloadPoolCore {
  /// Size classes 64 B << i: 64 B .. 2 MiB.  Larger leases bypass the pool.
  static constexpr std::size_t kClasses = 16;
  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxPerClass = 64;

  struct RemoteNode {
    Buffer storage;
    RemoteNode* next = nullptr;
  };

  std::vector<Buffer> free_lists[kClasses];
  std::atomic<RemoteNode*> remote_head{nullptr};
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Self reference so a lease taken through the raw tls pointer can carry
  /// the shared return handle (set once by PayloadPool's constructor).
  std::weak_ptr<PayloadPoolCore> self;

  ~PayloadPoolCore() {
    RemoteNode* node = remote_head.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
      RemoteNode* next = node->next;
      delete node;
      node = next;
    }
  }

  /// Class whose buffers have capacity exactly kMinClassBytes << index;
  /// kClasses when the request is too large to pool.
  static std::size_t class_of(std::size_t capacity) {
    std::size_t size = kMinClassBytes;
    for (std::size_t i = 0; i < kClasses; ++i, size <<= 1) {
      if (capacity <= size) {
        return i;
      }
    }
    return kClasses;
  }

  static std::size_t class_bytes(std::size_t index) {
    return kMinClassBytes << index;
  }

  /// Owner-side return: recycle `storage` if its capacity still matches a
  /// class with room, else let it free.  (A mid-use reallocation lands the
  /// buffer in its grown class — libstdc++ doubles, so an overflowed class
  /// lease is simply the next class's capacity.)
  void put_local(Buffer&& storage) {
    const std::size_t index = class_of(storage.capacity());
    if (index >= kClasses || storage.capacity() != class_bytes(index) ||
        free_lists[index].size() >= kMaxPerClass) {
      return;
    }
    storage.clear();
    free_lists[index].push_back(std::move(storage));
  }

  void put_remote(Buffer&& storage) {
    auto* node = new RemoteNode{std::move(storage)};
    RemoteNode* head = remote_head.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!remote_head.compare_exchange_weak(head, node,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }

  void drain_remote() {
    RemoteNode* node = remote_head.exchange(nullptr, std::memory_order_acquire);
    while (node != nullptr) {
      RemoteNode* next = node->next;
      put_local(std::move(node->storage));
      delete node;
      node = next;
    }
  }
};

}  // namespace detail

namespace {

/// The calling thread's installed pool (PayloadPoolScope); null outside any
/// shard window.
thread_local detail::PayloadPoolCore* tls_payload_pool = nullptr;

/// Deleter of a pooled payload's backing buffer: hands the storage back to
/// its home pool — locally when it dies on the home pool's own execution,
/// else through the remote-return stack.  Holds the Core shared, so the
/// return is safe whenever the payload dies.
struct PooledReturn {
  /// Set by PayloadRef::mark_cross_shard.  The marking shard holds a
  /// reference, so the refcount's release/acquire orders the store before
  /// the deleter's load; the atomic covers two shards marking at once.
  struct CrossShard {
    std::atomic<bool> marked{false};
    CrossShard() = default;
    CrossShard(CrossShard&& other) noexcept
        : marked(other.marked.load(kRelaxed)) {}
  };

  std::shared_ptr<detail::PayloadPoolCore> home;
  CrossShard cross_shard;

  void operator()(const Buffer* buffer) const {
    Buffer storage = std::move(*const_cast<Buffer*>(buffer));
    delete buffer;
    if (tls_payload_pool == home.get() &&
        !cross_shard.marked.load(kRelaxed)) {
      home->put_local(std::move(storage));
    } else {
      home->put_remote(std::move(storage));
    }
  }
};

}  // namespace

PooledBuffer acquire_payload_buffer(std::size_t capacity_hint) {
  PooledBuffer lease;
  detail::PayloadPoolCore* pool = tls_payload_pool;
  const std::size_t index =
      pool != nullptr ? detail::PayloadPoolCore::class_of(capacity_hint)
                      : detail::PayloadPoolCore::kClasses;
  if (index >= detail::PayloadPoolCore::kClasses) {
    // No pool installed (or an over-size request): a plain reserved buffer,
    // counted at adoption exactly like the pre-pool path.
    lease.bytes.reserve(capacity_hint);
    return lease;
  }
  const std::size_t capacity = detail::PayloadPoolCore::class_bytes(index);
  if (!pool->free_lists[index].empty()) {
    lease.bytes = std::move(pool->free_lists[index].back());
    pool->free_lists[index].pop_back();
    lease.reused = true;
    ++pool->hits;
  } else {
    lease.bytes.reserve(capacity);
    ++pool->misses;
    PayloadCounterCells& c = payload_cells();
    c.buffer_allocs.fetch_add(1, kRelaxed);
    c.bytes_allocated.fetch_add(capacity, kRelaxed);
  }
  lease.home = pool->self.lock();
  return lease;
}

PayloadCounters payload_counters() {
  const PayloadCounterCells& c = payload_cells();
  PayloadCounters snapshot;
  snapshot.buffer_allocs = c.buffer_allocs.load(kRelaxed);
  snapshot.bytes_allocated = c.bytes_allocated.load(kRelaxed);
  snapshot.byte_copies = c.byte_copies.load(kRelaxed);
  snapshot.bytes_copied = c.bytes_copied.load(kRelaxed);
  snapshot.slices = c.slices.load(kRelaxed);
  return snapshot;
}

PayloadPool::PayloadPool() : core_(std::make_shared<detail::PayloadPoolCore>()) {
  core_->self = core_;
}

PayloadPool::~PayloadPool() = default;

void PayloadPool::drain_remote() { core_->drain_remote(); }

std::uint64_t PayloadPool::hits() const { return core_->hits; }

std::uint64_t PayloadPool::misses() const { return core_->misses; }

PayloadPoolScope::PayloadPoolScope(PayloadPool* pool) : prev_(tls_payload_pool) {
  tls_payload_pool = pool != nullptr ? pool->core_.get() : nullptr;
}

PayloadPoolScope::~PayloadPoolScope() { tls_payload_pool = prev_; }

PayloadRef::PayloadRef(Buffer bytes) {
  auto owned = std::make_shared<const Buffer>(std::move(bytes));
  data_ = owned->data();
  size_ = owned->size();
  owner_ = std::move(owned);
  PayloadCounterCells& c = payload_cells();
  c.buffer_allocs.fetch_add(1, kRelaxed);
  c.bytes_allocated.fetch_add(size_, kRelaxed);
}

PayloadRef PayloadRef::adopt(PooledBuffer&& pooled) {
  if (pooled.home == nullptr) {
    return PayloadRef(std::move(pooled.bytes));
  }
  // Pooled lease: any allocation was counted at acquire time; sealing just
  // attaches the pool-return deleter.
  auto* heap = new Buffer(std::move(pooled.bytes));
  std::shared_ptr<const Buffer> owned(heap,
                                      PooledReturn{std::move(pooled.home)});
  PayloadRef ref;
  ref.data_ = owned->data();
  ref.size_ = owned->size();
  ref.owner_ = std::move(owned);
  return ref;
}

void PayloadRef::mark_cross_shard() const {
  if (auto* pooled = std::get_deleter<PooledReturn>(owner_)) {
    pooled->cross_shard.marked.store(true, kRelaxed);
  }
}

PayloadRef PayloadRef::copy_of(std::span<const std::uint8_t> bytes) {
  PayloadCounterCells& c = payload_cells();
  c.byte_copies.fetch_add(1, kRelaxed);
  c.bytes_copied.fetch_add(bytes.size(), kRelaxed);
  PooledBuffer lease = acquire_payload_buffer(bytes.size());
  lease.bytes.assign(bytes.begin(), bytes.end());
  return adopt(std::move(lease));
}

PayloadRef PayloadRef::slice(std::size_t offset, std::size_t length) const {
  // Overflow-safe form: offset + length could wrap in size_t.
  MC_EXPECTS_MSG(offset <= size_ && length <= size_ - offset,
                 "PayloadRef slice out of bounds");
  payload_cells().slices.fetch_add(1, kRelaxed);
  return PayloadRef(owner_, data_ + offset, length);
}

PayloadRef PayloadRef::slice(std::size_t offset) const {
  MC_EXPECTS_MSG(offset <= size_, "PayloadRef slice out of bounds");
  return slice(offset, size_ - offset);
}

PayloadRef PayloadRef::joined_with(const PayloadRef& next) const {
  MC_EXPECTS_MSG(directly_precedes(next),
                 "joined_with() requires adjacent views of one buffer");
  payload_cells().slices.fetch_add(1, kRelaxed);
  return PayloadRef(owner_, data_, size_ + next.size_);
}

PayloadRef PayloadSlab::carve(
    std::span<const std::span<const std::uint8_t>> parts) {
  std::size_t length = 0;
  for (const auto& part : parts) {
    length += part.size();
  }
  if (slab_ == nullptr || slab_->size() - used_ < length) {
    slab_ = std::make_shared<Buffer>(std::max(slab_bytes_, length));
    used_ = 0;
    PayloadCounterCells& c = payload_cells();
    c.buffer_allocs.fetch_add(1, kRelaxed);
    c.bytes_allocated.fetch_add(slab_->size(), kRelaxed);
  }
  std::uint8_t* const begin = slab_->data() + used_;
  std::uint8_t* out = begin;
  for (const auto& part : parts) {
    if (!part.empty()) {
      std::memcpy(out, part.data(), part.size());
      out += part.size();
    }
  }
  used_ += length;
  payload_cells().slices.fetch_add(1, kRelaxed);
  return PayloadRef(slab_, begin, length);
}

Buffer PayloadRef::to_buffer() const {
  PayloadCounterCells& c = payload_cells();
  c.byte_copies.fetch_add(1, kRelaxed);
  c.bytes_copied.fetch_add(size_, kRelaxed);
  return Buffer(data_, data_ + size_);
}

void PayloadRef::copy_to(std::span<std::uint8_t> dst) const {
  MC_EXPECTS_MSG(dst.size() == size_, "copy_to() destination size mismatch");
  PayloadCounterCells& c = payload_cells();
  c.byte_copies.fetch_add(1, kRelaxed);
  c.bytes_copied.fetch_add(size_, kRelaxed);
  if (size_ > 0) {
    std::memcpy(dst.data(), data_, size_);
  }
}

Buffer pattern_payload(std::uint64_t seed, std::size_t size) {
  Buffer out(size);
  std::uint64_t state = seed ^ 0xA5A5A5A55A5A5A5AULL;
  std::size_t i = 0;
  while (i < size) {
    std::uint64_t word = splitmix64(state);
    for (int b = 0; b < 8 && i < size; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

bool check_pattern(std::uint64_t seed, std::span<const std::uint8_t> data) {
  const Buffer expected = pattern_payload(seed, data.size());
  return std::equal(data.begin(), data.end(), expected.begin());
}

std::string hex_dump(std::span<const std::uint8_t> data,
                     std::size_t max_bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  const std::size_t n = std::min(data.size(), max_bytes);
  out.reserve(n * 3 + 4);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) {
      out.push_back(' ');
    }
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xF]);
  }
  if (n < data.size()) {
    out += " ...";
  }
  return out;
}

}  // namespace mcmpi
