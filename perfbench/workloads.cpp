#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

namespace perfbench {

using mcmpi::Buffer;
using mcmpi::cluster::NetworkType;
using mcmpi::sim::ShardDriver;

const char* op_name(Op op) {
  static constexpr const char* kNames[kNumOps] = {"bcast", "allreduce",
                                                  "allgather", "reduce",
                                                  "barrier"};
  return kNames[static_cast<int>(op)];
}

mcmpi::coll::CollOp coll_op(Op op) {
  using mcmpi::coll::CollOp;
  static constexpr CollOp kOps[kNumOps] = {CollOp::kBcast, CollOp::kAllreduce,
                                           CollOp::kAllgather, CollOp::kReduce,
                                           CollOp::kBarrier};
  return kOps[static_cast<int>(op)];
}

std::size_t call_bytes(const Item& item, int comm_size) {
  if (item.op == Op::kAllgather) {
    return std::max<std::size_t>(
        1, item.bytes / static_cast<std::size_t>(comm_size));
  }
  return item.bytes;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;

    // The paper's testbed: nine eagle hosts on one 10 Mb/s hub, bcast at
    // the paper's 0-5000 B sizes plus barrier, measured by the §4 method.
    // Per-packet costs dominate: event loop, fibers, CSMA/CD, scouts.
    Workload lan;
    lan.name = "paper-lan";
    lan.procs = 9;
    lan.network = NetworkType::kHub;
    lan.eagle_hosts = true;
    lan.op_weight[static_cast<int>(Op::kBcast)] = 80;
    lan.op_weight[static_cast<int>(Op::kBarrier)] = 20;
    lan.min_bytes = 0;
    lan.max_bytes = 5000;
    lan.gap_us = 10'000.0;
    lan.items_per_comm = 400;
    lan.sub_seeds = 4;
    all.push_back(lan);

    // Four tenant communicators striped over 4 switch segments, open-loop
    // Poisson mixed ops below saturation, parallel driver on 2 workers:
    // round barrier, cross-shard inboxes, hier auto-selection, payload pool.
    Workload tenants;
    tenants.name = "tenants-4seg";
    tenants.procs = 16;
    tenants.segments = 4;
    tenants.network = NetworkType::kSwitch;
    tenants.trunk_us = 100.0;
    tenants.driver = ShardDriver::kParallel;
    tenants.workers = 2;
    tenants.payload_pool = true;
    tenants.comms = 4;
    tenants.open_loop = true;
    tenants.op_weight[static_cast<int>(Op::kBcast)] = 35;
    tenants.op_weight[static_cast<int>(Op::kAllreduce)] = 25;
    tenants.op_weight[static_cast<int>(Op::kAllgather)] = 15;
    tenants.op_weight[static_cast<int>(Op::kReduce)] = 15;
    tenants.op_weight[static_cast<int>(Op::kBarrier)] = 10;
    tenants.min_bytes = 16;
    tenants.max_bytes = 16 * 1024;
    tenants.log_sizes = true;
    tenants.gap_us = 6'000.0;
    tenants.items_per_comm = 128;
    tenants.sub_seeds = 32;
    all.push_back(tenants);

    // Two switch segments behind a 2 ms trunk with 1% independent link
    // loss, serial driver: kAuto bcast through the fault plane, FEC/NACK
    // recovery, gf256 and retransmit timers.
    Workload lossy;
    lossy.name = "lossy-trunk";
    lossy.procs = 16;
    lossy.segments = 2;
    lossy.network = NetworkType::kSwitch;
    lossy.trunk_us = 2'000.0;
    lossy.link_loss = 0.01;
    lossy.workers = 2;
    lossy.op_weight[static_cast<int>(Op::kBcast)] = 100;
    lossy.min_bytes = 1024;
    lossy.max_bytes = 64 * 1024;
    lossy.log_sizes = true;
    lossy.gap_us = 20'000.0;
    lossy.gap_ns_per_byte = 1'000.0;
    lossy.items_per_comm = 256;
    lossy.sub_seeds = 16;
    all.push_back(lossy);

    // Nine hosts on one switch, 1-16 MiB kAuto bcast (mcast-segmented):
    // per-byte costs dominate — payload copies, 64 KiB datagram
    // fragmentation and reassembly, the chunk window.
    Workload jumbo;
    jumbo.name = "jumbo-switch";
    jumbo.procs = 9;
    jumbo.network = NetworkType::kSwitch;
    jumbo.op_weight[static_cast<int>(Op::kBcast)] = 100;
    jumbo.min_bytes = 1 << 20;
    jumbo.max_bytes = 16 << 20;
    jumbo.log_sizes = true;
    jumbo.gap_us = 2'000.0;
    jumbo.gap_ns_per_byte = 250.0;
    jumbo.items_per_comm = 4;
    jumbo.sub_seeds = 6;
    all.push_back(jumbo);
    return all;
  }();
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

mcmpi::cluster::ClusterConfig Workload::cluster_config(
    std::uint64_t seed, ShardDriver shard_driver) const {
  mcmpi::cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = network;
  config.seed = seed;
  config.sim_backend = mcmpi::sim::ExecutionBackend::kFiber;
  config.num_segments = segments;
  config.trunk_latency = mcmpi::microseconds_f(trunk_us);
  config.sim_shards = workers;
  config.shard_driver = shard_driver;
  config.payload_pool = payload_pool;
  config.faults.link.loss = link_loss;
  if (!eagle_hosts) {
    config.hosts = mcmpi::cluster::make_uniform_hosts(procs);
  }
  return config;
}

namespace {

/// Counter-based stream of draws from one seed.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t next() { return mix(seed_, count_++); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t count_ = 0;
};

/// n stratified draws of `quantile`: one uniform point inside each of n
/// equal probability strata, in shuffled order.  Every run covers the whole
/// distribution evenly, so pooled percentiles move little from seed to seed
/// while each draw still depends on the seed.
template <typename Quantile>
std::vector<double> stratified(std::size_t n, Draws& draws, Quantile quantile) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    out.push_back(quantile((static_cast<double>(j) + draws.unit()) /
                           static_cast<double>(n)));
  }
  draws.shuffle(out);
  return out;
}

}  // namespace

std::vector<Schedule> Workload::schedules(std::uint64_t seed) const {
  const auto per_comm = static_cast<std::size_t>(items_per_comm);
  const std::size_t total = static_cast<std::size_t>(sub_seeds) * items();
  Draws draws(seed);

  // Exact op counts, shuffled; the rounding remainder goes to the most
  // frequent op.
  std::vector<Op> ops;
  int heaviest = 0;
  for (int op = 0; op < kNumOps; ++op) {
    ops.insert(ops.end(), total * static_cast<std::size_t>(op_weight[op]) / 100,
               static_cast<Op>(op));
    heaviest = op_weight[op] > op_weight[heaviest] ? op : heaviest;
  }
  ops.resize(total, static_cast<Op>(heaviest));
  draws.shuffle(ops);

  const std::size_t sized = static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](Op op) { return op != Op::kBarrier; }));
  const double lo = static_cast<double>(std::max<std::size_t>(min_bytes, 1));
  const double hi = static_cast<double>(max_bytes);
  const std::vector<double> sizes = stratified(sized, draws, [&](double u) {
    return log_sizes
               ? std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)))
               : static_cast<double>(min_bytes) +
                     u * static_cast<double>(max_bytes - min_bytes + 1);
  });
  const std::vector<double> gaps = stratified(total, draws, [&](double u) {
    return -gap_us * 1e3 * std::log1p(-u);  // exponential: Poisson arrivals
  });

  std::vector<Schedule> all(static_cast<std::size_t>(sub_seeds),
                            Schedule(static_cast<std::size_t>(comms)));
  std::size_t t = 0;
  std::size_t s = 0;
  for (Schedule& schedule : all) {
    for (int c = 0; c < comms; ++c) {
      const int size = procs / comms + (c < procs % comms ? 1 : 0);
      double at_ns = 1e6;  // lead-in: communicator creation settles first
      for (std::size_t i = 0; i < per_comm; ++i, ++t) {
        Item item;
        item.op = ops[t];
        if (open_loop) {
          at_ns += std::max(1.0, gaps[t]);
        }
        item.at_ns = std::llround(at_ns);
        if (item.op != Op::kBarrier) {
          item.bytes = std::clamp(static_cast<std::size_t>(sizes[s++]),
                                  min_bytes, max_bytes);
        }
        item.root =
            static_cast<int>(draws.below(static_cast<std::size_t>(size)));
        if (!open_loop) {
          at_ns += gap_us * 1e3 +
                   gap_ns_per_byte * static_cast<double>(item.bytes);
        }
        schedule[static_cast<std::size_t>(c)].push_back(item);
      }
    }
  }
  return all;
}

namespace {

std::uint64_t pattern_word(std::uint64_t salt, int member, std::size_t word) {
  return mix(salt ^ (static_cast<std::uint64_t>(member) << 48), word);
}

/// Member `member`'s pattern bytes [0, out.size()) of the item named by `salt`.
void fill(std::span<std::uint8_t> out, std::uint64_t salt, int member) {
  for (std::size_t off = 0, word = 0; off < out.size(); off += 8, ++word) {
    const std::uint64_t w = pattern_word(salt, member, word);
    std::memcpy(out.data() + off, &w,
                std::min<std::size_t>(8, out.size() - off));
  }
}

Buffer pattern(std::size_t bytes, std::uint64_t salt, int member) {
  Buffer out(bytes);
  fill(out, salt, member);
  return out;
}

bool matches(std::span<const std::uint8_t> got, std::size_t bytes,
             std::uint64_t salt, int member) {
  if (got.size() != bytes) {
    return false;
  }
  for (std::size_t off = 0, word = 0; off < bytes; off += 8, ++word) {
    const std::uint64_t w = pattern_word(salt, member, word);
    if (std::memcmp(got.data() + off, &w,
                    std::min<std::size_t>(8, bytes - off)) != 0) {
      return false;
    }
  }
  return true;
}

/// Byte-wise sum (mod 256) of every member's pattern: the closed form of a
/// kSum/kByte reduction.
Buffer byte_sum(std::size_t bytes, std::uint64_t salt, int size) {
  Buffer sum(bytes, 0);
  Buffer part(bytes);
  for (int m = 0; m < size; ++m) {
    fill(part, salt, m);
    for (std::size_t j = 0; j < bytes; ++j) {
      sum[j] = static_cast<std::uint8_t>(sum[j] + part[j]);
    }
  }
  return sum;
}

}  // namespace

bool execute(mcmpi::coll::Coll& coll, const Item& item, int me, int size,
             std::uint64_t salt) {
  using mcmpi::mpi::Datatype;
  using mcmpi::mpi::Op;
  switch (item.op) {
    case perfbench::Op::kBcast: {
      Buffer buffer(item.bytes);
      if (me == item.root) {
        fill(buffer, salt, item.root);
      }
      coll.bcast(buffer, item.root);
      return matches(buffer, item.bytes, salt, item.root);
    }
    case perfbench::Op::kAllreduce: {
      const Buffer got =
          coll.allreduce(pattern(item.bytes, salt, me), Op::kSum,
                         Datatype::kByte);
      return got == byte_sum(item.bytes, salt, size);
    }
    case perfbench::Op::kReduce: {
      const Buffer got = coll.reduce(pattern(item.bytes, salt, me), Op::kSum,
                                     Datatype::kByte, item.root);
      return me == item.root ? got == byte_sum(item.bytes, salt, size)
                             : got.empty();
    }
    case perfbench::Op::kAllgather: {
      const std::size_t share = call_bytes(item, size);
      const std::vector<Buffer> blocks =
          coll.allgather(pattern(share, salt, me));
      if (blocks.size() != static_cast<std::size_t>(size)) {
        return false;
      }
      for (int r = 0; r < size; ++r) {
        if (!matches(blocks[static_cast<std::size_t>(r)], share, salt, r)) {
          return false;
        }
      }
      return true;
    }
    case perfbench::Op::kBarrier:
      coll.barrier();
      return true;
  }
  return false;
}

}  // namespace perfbench
