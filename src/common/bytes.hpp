#pragma once
/// \file bytes.hpp
/// Byte buffers, zero-copy payload references, and bounds-checked
/// little-endian serialization.
///
/// Protocol headers (UDP/IP/RDP/MPI envelopes) are packed with ByteWriter and
/// unpacked with ByteReader; both throw on overrun so a malformed frame can
/// never read out of bounds.  The encoding is explicitly little-endian on
/// every platform (byte-assembled, never a raw memcpy of host integers).
///
/// PayloadRef is the zero-copy payload pipeline: an immutable, ref-counted
/// view of a byte buffer.  A datagram is assembled into one Buffer exactly
/// once (the "kernel copy" at the socket boundary); from there, IP fragments,
/// switch/hub fan-out copies, reassembly buffers, retransmit queues and
/// per-socket multicast deliveries are all slices of that single allocation —
/// copying a PayloadRef bumps a reference count instead of duplicating bytes.
/// The global PayloadCounters make this property testable: benches and the
/// perf-regression test assert that an N-way multicast fan-out performs no
/// per-receiver payload allocation.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace mcmpi {

using Buffer = std::vector<std::uint8_t>;

/// Global instrumentation for the zero-copy payload path.  Monotone; read a
/// snapshot before an operation and diff after it.
struct PayloadCounters {
  std::uint64_t buffer_allocs = 0;   ///< backing buffers adopted or created
  std::uint64_t bytes_allocated = 0;
  std::uint64_t byte_copies = 0;     ///< explicit copy operations performed
  std::uint64_t bytes_copied = 0;
  std::uint64_t slices = 0;          ///< zero-copy views taken

  PayloadCounters since(const PayloadCounters& earlier) const {
    PayloadCounters d;
    d.buffer_allocs = buffer_allocs - earlier.buffer_allocs;
    d.bytes_allocated = bytes_allocated - earlier.bytes_allocated;
    d.byte_copies = byte_copies - earlier.byte_copies;
    d.bytes_copied = bytes_copied - earlier.bytes_copied;
    d.slices = slices - earlier.slices;
    return d;
  }
};

/// Snapshot of the process-wide payload counters (payloads cross
/// simulated-host boundaries, so the accounting is global by design).  The
/// backing cells are relaxed atomics: simulator shards on worker threads
/// bump them concurrently, and because each operation's contribution is
/// fixed, the totals stay deterministic under any interleaving.
PayloadCounters payload_counters();

namespace detail {
struct PayloadPoolCore;
}

/// A buffer leased from the thread's PayloadPool (or a plain reserved buffer
/// when no pool is installed).  Fill `bytes` in place, then seal it with
/// PayloadRef::adopt — the backing storage returns to `home` when the last
/// payload reference drops.
struct PooledBuffer {
  Buffer bytes;
  std::shared_ptr<detail::PayloadPoolCore> home;  ///< null = not pooled
  bool reused = false;  ///< served from a free list (no allocation counted)
};

/// Leases a buffer with capacity >= `capacity_hint` from the calling
/// thread's installed PayloadPool; falls back to a plain reserved Buffer
/// (counted at adoption, exactly like the unpooled path always was) when no
/// pool is installed or the request exceeds the largest size class.
PooledBuffer acquire_payload_buffer(std::size_t capacity_hint);

/// Immutable, ref-counted view of a byte buffer.
///
/// The owner is a shared immutable Buffer; the view is a [data, size) window
/// into it.  slice() produces further windows of the same owner in O(1).
/// Copies share the owner; the bytes are freed when the last reference
/// (sender queue, switch egress queue, receiver reassembly, socket buffer…)
/// drops.  to_buffer() is the copy-on-write escape hatch for code that needs
/// private mutable bytes (the user-buffer copy at the MPI API boundary).
class PayloadRef {
 public:
  PayloadRef() = default;

  /// Adopts `bytes` as the backing buffer (no byte copy; one allocation is
  /// counted for the shared control block / adopted storage).
  explicit PayloadRef(Buffer bytes);

  /// Adopts a pool-leased buffer: the backing storage is handed back to the
  /// lease's home pool when the last reference drops, and a reused lease
  /// counts no allocation.  A lease with no home degrades to the plain
  /// adopting constructor, so call sites need no pooled/unpooled branch.
  static PayloadRef adopt(PooledBuffer&& pooled);

  /// Allocates a private backing buffer holding a copy of `bytes` (leased
  /// from the thread's PayloadPool when one is installed).
  static PayloadRef copy_of(std::span<const std::uint8_t> bytes);

  std::span<const std::uint8_t> view() const { return {data_, size_}; }
  /// Implicit: lets span-taking APIs (ByteReader, check_pattern, …) accept a
  /// PayloadRef directly.  The span is valid while this ref is alive.
  operator std::span<const std::uint8_t>() const { return view(); }

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// O(1) sub-view sharing the same backing buffer.
  PayloadRef slice(std::size_t offset, std::size_t length) const;
  /// Sub-view from `offset` to the end.
  PayloadRef slice(std::size_t offset) const;

  /// Declares that a reference to this payload is handed to another shard.
  /// A pooled backing buffer then always returns to its home pool through
  /// the remote-return stack, drained at the next round boundary, even when
  /// the last reference dies on the home shard: which of two concurrently
  /// running shards drops it last is host timing, and a buffer reusable
  /// mid-round only when the home shard happened to be last would make the
  /// pool's allocation count differ between runs.
  void mark_cross_shard() const;

  /// True if both refs view the same backing buffer.
  bool same_buffer(const PayloadRef& other) const {
    return owner_ != nullptr && owner_ == other.owner_;
  }

  /// True if `next` views the bytes immediately following this view in the
  /// same backing buffer — the zero-copy reassembly test: adjacent fragments
  /// of one datagram can be re-joined without touching the payload.
  bool directly_precedes(const PayloadRef& next) const {
    return same_buffer(next) && data_ + size_ == next.data_;
  }

  /// Widens this view to also cover `next`.  Precondition:
  /// directly_precedes(next).  O(1), no copy.
  PayloadRef joined_with(const PayloadRef& next) const;

  /// Copies the viewed bytes into a fresh private Buffer.
  Buffer to_buffer() const;

  /// Copies the viewed bytes into caller-owned storage (`dst.size()` must
  /// equal size()).  This is the scatter-style delivery copy for code that
  /// lands a payload at an OFFSET of a pre-sized user buffer (segmented
  /// collectives reassembling chunks in place) — counted like to_buffer(),
  /// so the copy stays visible to the zero-copy accounting.
  void copy_to(std::span<std::uint8_t> dst) const;

 private:
  friend class PayloadSlab;
  PayloadRef(std::shared_ptr<const Buffer> owner, const std::uint8_t* data,
             std::size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  std::shared_ptr<const Buffer> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Small payloads carved from shared slabs.  carve() fills a fresh region
/// of the current slab and only then shares it, as a view like
/// PayloadRef::slice, so no view ever sees a later write.  A slab without
/// room for the next carve is replaced by a fresh one, which lives until
/// its last view drops.  The views of one slab share one allocation and one
/// control block: a retention history of small frames leaves the heap a
/// few objects per slab, not a buffer and a control block per frame.
class PayloadSlab {
 public:
  explicit PayloadSlab(std::size_t slab_bytes) : slab_bytes_(slab_bytes) {}

  /// One payload holding the concatenation of `parts`.  A payload larger
  /// than the slab size gets a slab of its own size.
  PayloadRef carve(std::span<const std::span<const std::uint8_t>> parts);

 private:
  std::size_t slab_bytes_;
  std::shared_ptr<Buffer> slab_;  // written only past used_
  std::size_t used_ = 0;
};

/// Free-list pool for payload backing buffers, size-classed by power-of-two
/// capacity.  One pool per simulator shard; the shard installs it as the
/// calling thread's pool (PayloadPoolScope) for the duration of its windows.
///
/// Lifecycle: acquire_payload_buffer() leases storage from the installed
/// pool (hit) or reserves fresh storage (miss — the only case that counts a
/// payload alloc); PayloadRef::adopt seals the lease; when the last payload
/// reference drops, the storage returns to its HOME pool — directly onto
/// the owner-side free lists when it dies on the owner's execution, else
/// onto a lock-free MPSC remote-return stack the owner drains at round
/// boundaries.  That boundary-only drain is what keeps pool hits a pure
/// function of the simulation: a buffer released by a peer shard mid-round
/// becomes reusable at the same round edge under every driver, so serial
/// and parallel runs (and any thread timing) see identical hit/miss/alloc
/// sequences.
///
/// The guts live in a shared Core so late releases are always safe: a
/// payload that outlives the pool (a stack teardown after the simulator
/// died) still holds the Core alive and parks its storage there; the last
/// reference frees everything.
class PayloadPool {
 public:
  PayloadPool();
  ~PayloadPool();
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Moves remote-returned storage onto the owner-side free lists.  Owner
  /// execution only, at deterministic points (round boundaries).
  void drain_remote();

  /// Leases served from a free list / leases that allocated fresh storage.
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  friend class PayloadPoolScope;
  std::shared_ptr<detail::PayloadPoolCore> core_;
};

/// RAII install of `pool` as the calling thread's payload pool (null =
/// uninstall); restores the previous pool on destruction.  The simulator
/// wraps every shard window (and teardown) in one of these.
class PayloadPoolScope {
 public:
  explicit PayloadPoolScope(PayloadPool* pool);
  ~PayloadPoolScope();
  PayloadPoolScope(const PayloadPoolScope&) = delete;
  PayloadPoolScope& operator=(const PayloadPoolScope&) = delete;

 private:
  detail::PayloadPoolCore* prev_;
};

/// Appends fixed-width little-endian values to a Buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(v); }

  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return out_.size(); }

 private:
  /// Explicit little-endian byte assembly — identical output on any host
  /// endianness (a raw memcpy of the integer would not be).
  template <typename T>
  void put_le(T v) {
    using U = std::make_unsigned_t<T>;
    auto u = static_cast<U>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(u & 0xFF));
      u = static_cast<U>(u >> 8);
    }
  }
  Buffer& out_;
};

/// Reads fixed-width little-endian values from a span; throws on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return take<std::int32_t>(); }
  std::int64_t i64() { return take<std::int64_t>(); }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    MC_EXPECTS_MSG(remaining() >= n, "ByteReader overrun");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> rest() { return bytes(remaining()); }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T take() {
    MC_EXPECTS_MSG(remaining() >= sizeof(T), "ByteReader overrun");
    using U = std::make_unsigned_t<T>;
    U u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u = static_cast<U>(u | static_cast<U>(static_cast<U>(data_[pos_ + i])
                                            << (8 * i)));
    }
    pos_ += sizeof(T);
    return static_cast<T>(u);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Deterministic payload generator: byte i of a message from `seed` is a
/// mixed function of (seed, i).  Tests and examples use it to verify that
/// collective operations deliver exactly the sent bytes.
Buffer pattern_payload(std::uint64_t seed, std::size_t size);

/// True if `data` matches pattern_payload(seed, data.size()).
bool check_pattern(std::uint64_t seed, std::span<const std::uint8_t> data);

/// Hex dump ("de ad be ef") of at most `max_bytes`, for diagnostics.
std::string hex_dump(std::span<const std::uint8_t> data,
                     std::size_t max_bytes = 32);

}  // namespace mcmpi
