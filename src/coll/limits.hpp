#pragma once
/// \file limits.hpp
/// Hard datagram limits shared by every multicast collective.
///
/// The simulated IP layer carries fragment offsets in a 16-bit field of
/// 8-byte units (inet/ip.hpp), so one datagram physically caps out at
/// 65535 * 8 = 524280 bytes.  Every single-transmission multicast
/// collective (mcast-binary/linear broadcast, mcast-slice scatter,
/// mcast-rr alltoall, the lockstep allgather) must keep its whole framed
/// payload under this ceiling, and the stream engine
/// (coll/mcast_stream.hpp) chunks against it.  One constant, one place —
/// predicates, runtime re-checks and the chunker all size against it.

#include <cstddef>

namespace mcmpi::coll {

/// Conservative ceiling for one multicast datagram's payload (headroom
/// below the 524280-byte fragment-offset wrap covers the UDP and framing
/// headers the lower layers prepend).
inline constexpr std::size_t kMaxMcastDatagram = 512000;

}  // namespace mcmpi::coll
