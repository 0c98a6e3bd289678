// Real-socket companion to Fig. 7: wall-clock broadcast latency over
// loopback with genuine IP multicast (IP_ADD_MEMBERSHIP), comparing the
// paper's binary/linear scout algorithms against a point-to-point binomial
// tree emulating MPICH — all on real Berkeley sockets, rank threads on one
// machine.
//
// Loopback has none of Fast Ethernet's wire costs, so absolute numbers are
// microseconds and the crossover sits elsewhere; what carries over is the
// frame economics: the multicast sends each payload once, the tree N-1
// times.  Skips cleanly (exit 0) where the sandbox forbids multicast.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "posix/real_cluster.hpp"
#include "posix/socket.hpp"

namespace {

using namespace mcmpi;
using Clock = std::chrono::steady_clock;

// Binomial-tree broadcast over the p2p sockets (the MPICH pattern).
void bcast_tree(posix::RealRank& r, std::vector<std::uint8_t>& data,
                int root) {
  const int size = r.size();
  const int rel = (r.rank() - root + size) % size;
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      data = r.recv_p2p(((rel - mask) + root) % size);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      r.send_p2p(((rel + mask) + root) % size, data);
    }
    mask >>= 1;
  }
}

double measure(posix::RealCluster& cluster, int bytes, int reps, int which) {
  Sample sample;
  cluster.run([&](posix::RealRank& r) {
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<std::uint8_t> data;
      if (r.rank() == 0) {
        data = pattern_payload(static_cast<std::uint64_t>(rep),
                               static_cast<std::size_t>(bytes));
      }
      r.barrier();
      const auto start = Clock::now();
      switch (which) {
        case 0:
          bcast_tree(r, data, 0);
          break;
        case 1:
          r.bcast_binary(data, 0);
          break;
        default:
          r.bcast_linear(data, 0);
          break;
      }
      const double us =
          static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - start)
                                  .count()) /
          1000.0;
      if (!check_pattern(static_cast<std::uint64_t>(rep), data)) {
        throw std::runtime_error("corrupt broadcast payload");
      }
      // One timing sample per rep: the slowest rank defines completion, and
      // the post-barrier of the next rep bounds it; rank 0's view is a fair
      // median proxy on loopback.
      if (r.rank() == 0) {
        sample.add(us);
      }
    }
  });
  return sample.median();
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = 6;
  int reps = 15;
  bool csv = false;
  try {
    Flags flags(argc, argv);
    ranks = static_cast<int>(flags.get_int("ranks", ranks, "rank threads"));
    reps = static_cast<int>(flags.get_int("reps", reps, "reps per size"));
    csv = flags.get_bool("csv", csv, "emit CSV");
    if (flags.help_requested()) {
      std::cout << flags.usage("real loopback broadcast latency");
      return 0;
    }
    flags.check_unknown();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n';
    return 2;  // a bad invocation
  }

  if (!posix::RealUdpSocket::loopback_multicast_available()) {
    std::cout << "real_loopback_bcast: loopback multicast unavailable in "
                 "this environment; skipping (simulated benches cover the "
                 "figures).\n";
    return 0;
  }

  Table table({"bytes", "p2p-tree us", "mcast-binary us", "mcast-linear us"});
  for (int bytes : {0, 1000, 5000, 20000}) {
    double medians[3];
    for (int which = 0; which < 3; ++which) {
      posix::RealClusterConfig config;
      config.num_ranks = ranks;
      config.mcast_group = 0xEF0101E0u + static_cast<std::uint32_t>(which);
      posix::RealCluster cluster(config);
      medians[which] = measure(cluster, bytes, reps, which);
    }
    table.add_row({std::to_string(bytes), Table::num(medians[0]),
                   Table::num(medians[1]), Table::num(medians[2])});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "== Real loopback broadcast (wall-clock, " << ranks
              << " rank threads) ==\n";
    table.print_ascii(std::cout);
    std::cout << "note: loopback wall-clock is scheduler-noisy; the "
                 "deterministic figures come from the simulator benches.\n";
  }
  return 0;
}
