#pragma once
/// \file fec.hpp
/// The fec-mcast preset by name: the stream engine's one configuration at
/// its defaults (k = 8, overhead = 1/8, chunks of total / k, NACK
/// feedback) and its geometry, for callers such as perfbench that size
/// GF(256) work like fec-mcast does.  See mcast_stream.hpp.

#include <cstddef>
#include <limits>

#include "coll/mcast_stream.hpp"

namespace mcmpi::coll {

using FecConfig = StreamConfig;
using FecPlan = StreamPlan;

/// Stream geometry of a `total`-byte fec-mcast payload, before any
/// receive-buffer clamp.
inline FecPlan fec_plan(std::size_t total, const FecConfig& config) {
  return stream_plan(total, config, std::numeric_limits<std::size_t>::max());
}

}  // namespace mcmpi::coll
