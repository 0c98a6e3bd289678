// The scheduler counter table (sim/sched_counters.hpp): every field is
// visited once under a unique name, and shards merge each counter by the
// rule the table declares — sum, except the chunk_peak_window high-water
// mark, which takes the max.
#include "sim/sched_counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace mcmpi::sim {
namespace {

std::vector<std::uint64_t> values(const SchedCounters& counters) {
  std::vector<std::uint64_t> out;
  for_each_counter(counters, [&out](const char*, const std::uint64_t& field,
                                    CounterMerge) { out.push_back(field); });
  return out;
}

TEST(SchedCountersTable, VisitsEveryFieldOnceUnderUniqueNames) {
  SchedCounters counters;
  std::set<std::string> names;
  std::set<const std::uint64_t*> fields;
  for_each_counter(counters, [&](const char* name, std::uint64_t& field,
                                 CounterMerge) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_TRUE(fields.insert(&field).second) << "field visited twice: "
                                              << name;
  });
  // No field escapes the table: the struct is exactly the visited fields.
  const std::size_t fields_visited = values(counters).size();
  EXPECT_EQ(sizeof(SchedCounters), fields_visited * sizeof(std::uint64_t));
  EXPECT_EQ(names.size(), fields_visited);
  EXPECT_TRUE(names.count("handoffs"));
  EXPECT_TRUE(names.count("fec_fallbacks"));
}

TEST(SchedCountersTable, MergeSumsEveryFieldButThePeakWindow) {
  // Distinct values in every field of both operands, so a merge that
  // crossed two fields or dropped one would show.
  SchedCounters a;
  SchedCounters b;
  std::uint64_t next = 1;
  for_each_counter(a, [&next](const char*, std::uint64_t& field,
                              CounterMerge) { field = next++; });
  for_each_counter(b, [&next](const char*, std::uint64_t& field,
                              CounterMerge) { field = 1000 * next++; });
  // The high-water mark must take the larger operand whichever side it
  // is on: make the left one larger.
  a.chunk_peak_window = 1'000'000;

  SchedCounters merged = a;
  merged += b;

  const std::vector<std::uint64_t> lhs = values(a);
  const std::vector<std::uint64_t> rhs = values(b);
  std::size_t index = 0;
  for_each_counter(merged, [&](const char* name, const std::uint64_t& field,
                               CounterMerge merge) {
    if (std::string(name) == "chunk_peak_window") {
      EXPECT_EQ(merge, CounterMerge::kMax);
      EXPECT_EQ(field, 1'000'000u);
    } else {
      EXPECT_EQ(merge, CounterMerge::kSum) << name;
      EXPECT_EQ(field, lhs[index] + rhs[index]) << name;
    }
    ++index;
  });
  EXPECT_EQ(merged.handoffs, a.handoffs + b.handoffs);
  EXPECT_EQ(merged.fec_fallbacks, a.fec_fallbacks + b.fec_fallbacks);

  // And from the other side: a larger right operand wins the max.
  SchedCounters low;
  SchedCounters high;
  high.chunk_peak_window = 7;
  low.chunk_peak_window = 3;
  low += high;
  EXPECT_EQ(low.chunk_peak_window, 7u);
}

}  // namespace
}  // namespace mcmpi::sim
