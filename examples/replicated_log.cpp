// Example: a replicated key-value log over sequencer-ordered multicast —
// the Orca-style usage the paper's related work points at.  Every rank
// issues updates; the sequencer (rank 0) stamps a total order and
// multicasts once as nack-mcast (receivers NACK what they miss); every
// replica applies the same operations in the same order, so all replicas
// converge to identical state without any per-update readiness handshake.
//
//   $ ./replicated_log [--procs=5] [--updates=4]
#include <cstring>
#include <iostream>
#include <map>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "common/flags.hpp"

namespace {

using namespace mcmpi;

struct Update {
  std::int32_t key;
  std::int32_t value;
};

Buffer encode(const Update& u) {
  Buffer b;
  ByteWriter w(b);
  w.i32(u.key);
  w.i32(u.value);
  return b;
}

Update decode(const Buffer& b) {
  ByteReader r(b);
  Update u;
  u.key = r.i32();
  u.value = r.i32();
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto procs = static_cast<int>(flags.get_int("procs", 5, "replicas"));
  const auto updates =
      static_cast<int>(flags.get_int("updates", 4, "updates per replica"));
  if (flags.help_requested()) {
    std::cout << flags.usage("replicated KV log over sequencer multicast");
    return 0;
  }
  flags.check_unknown();

  cluster::ClusterConfig config;
  config.num_procs = procs;
  config.network = cluster::NetworkType::kSwitch;
  cluster::Cluster cluster(config);

  // Each replica's final state, hashed for the convergence check.
  std::vector<std::uint64_t> state_hash(static_cast<std::size_t>(procs), 0);
  std::vector<std::size_t> state_size(static_cast<std::size_t>(procs), 0);

  cluster.world().run([&](mpi::Proc& p) {
    const mpi::Comm comm = p.comm_world();
    std::map<std::int32_t, std::int32_t> kv;

    // Round-robin issuing: in round i, replica (i % procs) broadcasts its
    // next update through the sequencer.  Every replica — including the
    // issuer — applies updates in sequencer order.
    const int total_rounds = procs * updates;
    for (int round = 0; round < total_rounds; ++round) {
      const int issuer = round % procs;
      Buffer op;
      if (p.rank() == issuer) {
        // Writers overlap on keys (key space smaller than update count),
        // so ordering actually matters for convergence.
        op = encode(Update{static_cast<std::int32_t>(round % 7),
                           static_cast<std::int32_t>(p.rank() * 1000 + round)});
      }
      comm.coll().bcast(op, issuer, "sequencer");
      const Update u = decode(op);
      kv[u.key] = u.value;
    }

    // Convergence digest.
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto& [k, v] : kv) {
      h = (h ^ static_cast<std::uint64_t>(k)) * 1099511628211ULL;
      h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ULL;
    }
    state_hash[static_cast<std::size_t>(p.rank())] = h;
    state_size[static_cast<std::size_t>(p.rank())] = kv.size();
  });

  bool converged = true;
  for (int r = 1; r < procs; ++r) {
    converged = converged &&
                state_hash[static_cast<std::size_t>(r)] == state_hash[0];
  }
  const auto& counters = cluster.network().counters();
  std::cout << "replicated log: " << procs << " replicas x " << updates
            << " updates each, " << procs * updates << " total operations\n"
            << "replicas converged: " << (converged ? "yes" : "NO") << " ("
            << state_size[0] << " keys)\n"
            << "data frames on the wire: " << counters.host_tx_data_frames
            << " (1 handoff + 1 multicast per update issued by a "
               "non-sequencer replica)\n";
  return converged ? 0 : 1;
}
