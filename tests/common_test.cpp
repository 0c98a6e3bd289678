// Unit tests for the common utilities: contracts, RNG, statistics,
// serialization, flags and tables.
#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace mcmpi {
namespace {

// ------------------------------------------------------------- contracts

TEST(Assert, PassingConditionIsSilent) {
  EXPECT_NO_THROW(MC_ASSERT(1 + 1 == 2));
  EXPECT_NO_THROW(MC_EXPECTS(true));
}

TEST(Assert, FailureThrowsWithContext) {
  try {
    MC_ASSERT_MSG(false, "the answer was not 42");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the answer was not 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

// ------------------------------------------------------------------ time

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(microseconds(5).count(), 5000);
  EXPECT_EQ(milliseconds(2).count(), 2'000'000);
  EXPECT_EQ(seconds(1).count(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(123)), 123.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
  EXPECT_EQ(microseconds_f(1.5).count(), 1500);
}

TEST(Time, TransmissionTimeAt100Mbps) {
  // 100 Mb/s = 80 ns per byte.
  EXPECT_EQ(transmission_time(1, 100'000'000).count(), 80);
  EXPECT_EQ(transmission_time(1000, 100'000'000).count(), 80'000);
  // Rounds up, never zero for a nonzero payload.
  EXPECT_GT(transmission_time(1, 1'000'000'000'000).count(), 0);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsAlwaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::array<int, 5> histogram{};
  for (int i = 0; i < 5000; ++i) {
    ++histogram[rng.below(5)];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 800);  // ~1000 expected per bucket
  }
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1() == child2()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

// ----------------------------------------------------------------- stats

TEST(Sample, MedianOfOddCount) {
  Sample s;
  for (double v : {5.0, 1.0, 3.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Sample, MedianInterpolatesEvenCount) {
  Sample s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Sample, PercentileEndpoints) {
  Sample s;
  for (int i = 1; i <= 100; ++i) {
    s.add(i);
  }
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Sample, SpreadAndStddev) {
  Sample s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.spread(), 7.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Sample, SinglePointEdgeCases) {
  Sample s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.spread(), 0.0);
}

TEST(Accumulator, TracksMinMaxMean) {
  Accumulator acc;
  for (double v : {3.0, -1.0, 10.0}) {
    acc.add(v);
  }
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 10.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
}

// ----------------------------------------------------------------- bytes

TEST(Bytes, WriterReaderRoundTrip) {
  Buffer buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1'000'000'007);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1'000'000'007);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EncodingIsLittleEndianOnTheWire) {
  // The encoding contract, pinned to an exact byte sequence: multi-byte
  // values are little-endian regardless of host byte order.
  Buffer buf;
  ByteWriter w(buf);
  w.u16(0x1122);
  w.u32(0xAABBCCDD);
  w.u64(0x0102030405060708ULL);
  w.i32(-2);  // 0xFFFFFFFE
  const Buffer expected{
      0x22, 0x11,                                      // u16
      0xDD, 0xCC, 0xBB, 0xAA,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32
  };
  EXPECT_EQ(buf, expected);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x1122);
  EXPECT_EQ(r.u32(), 0xAABBCCDDu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_TRUE(r.done());
}

TEST(PayloadPool, CrossShardPayloadReturnsOnlyAtTheNextDrain) {
  PayloadPool pool;
  const PayloadPoolScope scope(&pool);
  const Buffer bytes = pattern_payload(1, 100);
  { const PayloadRef first = PayloadRef::copy_of(bytes); }
  // Died on its home pool: reusable at once.
  { const PayloadRef reused = PayloadRef::copy_of(bytes); }
  EXPECT_EQ(pool.hits(), 1u);
  {
    const PayloadRef crossed = PayloadRef::copy_of(bytes);
    crossed.mark_cross_shard();
  }
  EXPECT_EQ(pool.hits(), 2u);
  // The crossed buffer died on its home pool too, but another shard might
  // have dropped it last: it waits for the round's drain either way.
  { const PayloadRef fresh = PayloadRef::copy_of(bytes); }
  EXPECT_EQ(pool.misses(), 2u);
  pool.drain_remote();
  const PayloadRef a = PayloadRef::copy_of(bytes);
  const PayloadRef b = PayloadRef::copy_of(bytes);
  EXPECT_EQ(pool.hits(), 4u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(Bytes, ReaderOverrunThrows) {
  Buffer buf{1, 2, 3};
  ByteReader r(buf);
  EXPECT_THROW((void)r.u32(), ContractViolation);
}

// ------------------------------------------------------------ PayloadRef

TEST(PayloadRef, SlicesShareOneAllocation) {
  const PayloadCounters before = payload_counters();
  PayloadRef whole(pattern_payload(3, 1000));
  PayloadRef a = whole.slice(0, 400);
  PayloadRef b = whole.slice(400);
  PayloadRef copy = b;  // ref copy, not byte copy
  const PayloadCounters delta = payload_counters().since(before);
  EXPECT_EQ(delta.buffer_allocs, 1u);
  EXPECT_EQ(delta.byte_copies, 0u);
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(b.size(), 600u);
  EXPECT_TRUE(a.same_buffer(b));
  EXPECT_TRUE(copy.same_buffer(whole));
  // The bytes are the original ones, by address.
  EXPECT_EQ(a.data(), whole.data());
  EXPECT_EQ(b.data(), whole.data() + 400);
}

TEST(PayloadRef, JoinRebuildsContiguousViewsWithoutCopy) {
  PayloadRef whole(pattern_payload(9, 500));
  PayloadRef head = whole.slice(0, 200);
  PayloadRef tail = whole.slice(200);
  ASSERT_TRUE(head.directly_precedes(tail));
  EXPECT_FALSE(tail.directly_precedes(head));
  const PayloadRef joined = head.joined_with(tail);
  EXPECT_EQ(joined.size(), 500u);
  EXPECT_EQ(joined.data(), whole.data());
  EXPECT_TRUE(check_pattern(9, joined));
}

TEST(PayloadRef, ToBufferCopiesOutExactBytes) {
  PayloadRef whole(pattern_payload(4, 256));
  const Buffer out = whole.slice(16, 64).to_buffer();
  EXPECT_EQ(out, Buffer(whole.view().begin() + 16, whole.view().begin() + 80));
}

TEST(PayloadRef, KeepsBackingBufferAliveAfterOwnerDies) {
  PayloadRef tail;
  {
    PayloadRef whole(pattern_payload(7, 128));
    tail = whole.slice(64);
  }  // `whole` gone; the slice must still own the bytes
  EXPECT_EQ(tail.size(), 64u);
  const Buffer expected = pattern_payload(7, 128);
  EXPECT_TRUE(std::equal(tail.view().begin(), tail.view().end(),
                         expected.begin() + 64));
}

TEST(PayloadRef, SliceOutOfBoundsThrows) {
  PayloadRef whole(Buffer(10, 0));
  EXPECT_THROW((void)whole.slice(4, 7), ContractViolation);
  EXPECT_THROW((void)whole.slice(11), ContractViolation);
  EXPECT_NO_THROW((void)whole.slice(10));  // empty tail is fine
}

TEST(Bytes, PatternPayloadIsDeterministicAndSeedSensitive) {
  const Buffer a = pattern_payload(5, 100);
  const Buffer b = pattern_payload(5, 100);
  const Buffer c = pattern_payload(6, 100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(check_pattern(5, a));
  EXPECT_FALSE(check_pattern(6, a));
}

TEST(Bytes, PatternPayloadZeroLength) {
  EXPECT_TRUE(pattern_payload(1, 0).empty());
  EXPECT_TRUE(check_pattern(1, Buffer{}));
}

TEST(Bytes, HexDumpTruncates) {
  Buffer buf(100, 0xAA);
  const std::string dump = hex_dump(buf, 4);
  EXPECT_EQ(dump, "aa aa aa aa ...");
}

// ----------------------------------------------------------------- flags

TEST(Flags, ParsesTypedValues) {
  const char* argv[] = {"prog", "--reps=30", "--csv", "--scale=1.5",
                        "--name=fig7"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("reps", 10), 30);
  EXPECT_TRUE(flags.get_bool("csv", false));
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 1.5);
  EXPECT_EQ(flags.get_string("name", ""), "fig7");
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(Flags, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("reps", 25), 25);
  EXPECT_FALSE(flags.get_bool("csv", false));
}

TEST(Flags, UnknownFlagDetected) {
  const char* argv[] = {"prog", "--oops=1"};
  Flags flags(2, argv);
  (void)flags.get_int("reps", 25);
  EXPECT_THROW(flags.check_unknown(), std::invalid_argument);
}

TEST(Flags, MalformedValueThrows) {
  const char* argv[] = {"prog", "--reps=abc"};
  Flags flags(2, argv);
  EXPECT_THROW((void)flags.get_int("reps", 1), std::invalid_argument);
}

TEST(Flags, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Flags flags(2, argv);
  EXPECT_TRUE(flags.help_requested());
  (void)flags.get_int("reps", 25, "repetitions per point");
  EXPECT_NE(flags.usage("demo").find("repetitions per point"),
            std::string::npos);
}

// ----------------------------------------------------------------- table

TEST(Table, AsciiAlignsColumns) {
  Table t({"size", "latency"});
  t.add_row({"100", "12.5"});
  t.add_row({"5000", "1432.1"});
  std::ostringstream os;
  t.print_ascii(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("1432.1"), std::string::npos);
}

TEST(Table, CsvIsMachineReadable) {
  Table t({"a", "b"});
  t.add_row_values({1.0, 2.25});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1.0,2.2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

}  // namespace
}  // namespace mcmpi
