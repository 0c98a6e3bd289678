#include "coll/mcast_reduce.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "coll/mcast.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

/// Per-(communicator, tag) protocol state for the async block exchange.
/// Every rank advances op_seq exactly once per collective that uses the
/// tag (senders when framing, the root when collecting), so the sequence
/// numbers agree across ranks without extra traffic; blocks of future
/// operations that overtake a straggler are stashed by sequence.
struct AsyncBlockStates {
  struct PerTag {
    std::uint64_t op_seq = 0;
    /// Framed blocks of future operations (zero-copy views; the ref keeps
    /// the transport buffer alive until that operation collects them).
    std::map<std::uint64_t, std::vector<std::pair<mpi::Rank, PayloadRef>>>
        stashed;
  };
  std::map<mpi::Tag, PerTag> by_tag;
};

/// Fire-and-forget framed block send to comm-rank `dst` (sender side of the
/// protocol above).
void send_block_async(Proc& p, const Comm& comm, int dst, mpi::Tag tag,
                      std::span<const std::uint8_t> bytes) {
  auto& st = p.coll_state<AsyncBlockStates>(comm).by_tag[tag];
  Buffer framed;
  framed.reserve(bytes.size() + 8);
  ByteWriter w(framed);
  w.u64(st.op_seq++);
  w.bytes(bytes);
  p.send_data_async(comm, dst, tag, framed);
}

/// Collects one framed block from every world rank in `sources`, with at
/// most one wake-up: blocks are absorbed by an engine sink (or drained from
/// the unexpected queue when they beat this rank into the engine), and the
/// sequential receive chain — each block max(chain, availability) + its
/// receive overhead, in arrival order — is priced into the final wake, the
/// cost model of the aggregate scout gather (coll/mcast.cpp).  Returns
/// zero-copy views of the payloads in `sources` order; the caller performs
/// its one delivery copy at the API boundary.
std::vector<PayloadRef> collect_async_blocks(
    Proc& p, const Comm& comm, mpi::Tag tag,
    const std::vector<mpi::Rank>& sources, mpi::CostTier tier) {
  auto& st = p.coll_state<AsyncBlockStates>(comm).by_tag[tag];
  const std::uint64_t op_seq = st.op_seq++;
  const std::size_t expected = sources.size();
  if (expected == 0) {
    return {};
  }
  const std::uint32_t context = comm.context();
  mpi::Engine& engine = p.engine();
  sim::Simulator& sim = p.self().simulator();

  struct Arrival {
    mpi::Rank src;
    SimTime at;
    PayloadRef data;
  };
  std::vector<Arrival> arrivals;
  arrivals.reserve(expected);
  sim::WaitQueue done;

  // Blocks of THIS operation that arrived while an earlier collection on
  // the same tag was still in flight.
  if (auto it = st.stashed.find(op_seq); it != st.stashed.end()) {
    for (auto& [src, data] : it->second) {
      arrivals.push_back({src, sim.now(), std::move(data)});
    }
    st.stashed.erase(it);
  }

  const auto accept = [&](mpi::Rank src, PayloadRef framed) {
    ByteReader r(framed);
    const std::uint64_t seq = r.u64();
    PayloadRef data = framed.slice(r.position());
    if (seq == op_seq) {
      arrivals.push_back({src, sim.now(), std::move(data)});
      if (arrivals.size() == expected) {
        done.notify_one();
      }
      return;
    }
    // A block for a future collective overtook a straggler of this one.
    MC_ASSERT_MSG(seq > op_seq, "stale async block (sequence ran backwards)");
    st.stashed[seq].emplace_back(src, std::move(data));
  };

  engine.set_sink(context, tag, [&accept](mpi::Rank src, PayloadRef data) {
    accept(src, std::move(data));
  });
  struct SinkGuard {
    mpi::Engine& engine;
    std::uint32_t context;
    mpi::Tag tag;
    ~SinkGuard() { engine.clear_sink(context, tag); }
  } guard{engine, context, tag};

  for (const mpi::Engine::DrainedEager& m :
       engine.drain_unexpected(context, tag)) {
    accept(m.src_world, m.data);
  }

  const auto complete = [&] { return arrivals.size() == expected; };
  const auto chain_end = [&]() -> SimTime {
    SimTime chain = kTimeZero;
    for (const Arrival& a : arrivals) {
      chain = std::max(chain, a.at) +
              p.costs().recv_overhead(static_cast<std::int64_t>(a.data.size()),
                                      tier);
    }
    return chain;
  };

  wait_priced_chain(p, done, complete, chain_end);

  std::vector<PayloadRef> out(expected);
  for (std::size_t i = 0; i < expected; ++i) {
    const auto it = std::find_if(
        arrivals.begin(), arrivals.end(),
        [&](const Arrival& a) { return a.src == sources[i]; });
    MC_ASSERT_MSG(it != arrivals.end(), "async block from unexpected source");
    out[i] = std::move(it->data);
    it->src = mpi::kAnySource;  // consumed; guards against duplicate sources
  }
  return out;
}

/// World ranks of every member except `root`, in comm-rank order (the
/// expected data-scout senders).
std::vector<mpi::Rank> non_root_world_ranks(const Comm& comm, int root) {
  std::vector<mpi::Rank> sources;
  sources.reserve(static_cast<std::size_t>(comm.size() - 1));
  for (int r = 0; r < comm.size(); ++r) {
    if (r != root) {
      sources.push_back(comm.world_rank_of(r));
    }
  }
  return sources;
}

}  // namespace

std::vector<Buffer> gather_scout_combining(Proc& p, const Comm& comm,
                                           std::span<const std::uint8_t> data,
                                           int root) {
  const int size = comm.size();
  const int rank = comm.rank();
  MC_EXPECTS(root >= 0 && root < size);
  if (size == 1) {
    std::vector<Buffer> out;
    out.emplace_back(data.begin(), data.end());
    return out;
  }
  if (rank != root) {
    send_block_async(p, comm, root, mpi::kTagGatherBlock, data);
    return {};
  }
  const std::vector<PayloadRef> blocks =
      collect_async_blocks(p, comm, mpi::kTagGatherBlock,
                           non_root_world_ranks(comm, root),
                           mpi::CostTier::kMpi);
  std::vector<Buffer> out(static_cast<std::size_t>(size));
  out[static_cast<std::size_t>(root)] = Buffer(data.begin(), data.end());
  std::size_t idx = 0;
  for (int r = 0; r < size; ++r) {
    if (r != root) {
      // The delivery copy into the caller's private block, at the API
      // boundary.
      out[static_cast<std::size_t>(r)] = blocks[idx++].to_buffer();
    }
  }
  return out;
}

}  // namespace mcmpi::coll
