// kop::util: status/result, bits, ring buffer, rng, spinlock, hexdump,
// strict integer parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "kop/util/bits.hpp"
#include "kop/util/hexdump.hpp"
#include "kop/util/log.hpp"
#include "kop/util/parse.hpp"
#include "kop/util/ring_buffer.hpp"
#include "kop/util/rng.hpp"
#include "kop/util/spinlock.hpp"
#include "kop/util/status.hpp"

namespace kop {
namespace {

// ---------------------------------------------------------------- status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "not_found: missing thing");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgument("").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExists("").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(PermissionDenied("").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(OutOfMemory("").code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(OutOfRange("").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(NoSpace("").code(), ErrorCode::kNoSpace);
  EXPECT_EQ(BadModule("").code(), ErrorCode::kBadModule);
  EXPECT_EQ(Busy("").code(), ErrorCode::kBusy);
  EXPECT_EQ(Unimplemented("").code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(Internal("").code(), ErrorCode::kInternal);
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
  EXPECT_TRUE(result.status().ok());
  EXPECT_EQ(result.status(), OkStatus());
  EXPECT_EQ(result.status().ToString(), "ok");
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(5);
  ASSERT_TRUE(result.ok());
  Result<std::unique_ptr<int>> moved = std::move(result);
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(moved.status().ok());
  std::unique_ptr<int> owned = std::move(moved).value();
  EXPECT_EQ(*owned, 5);
}

// A moved-from error Result keeps its error, so code of the form
// `if (!r.ok()) return r.status();` cannot turn it into success.
TEST(ResultTest, MovedFromErrorKeepsItsError) {
  Result<int> source = NotFound("gone");
  Result<int> moved = std::move(source);
  EXPECT_EQ(moved.status().code(), ErrorCode::kNotFound);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is API.
  EXPECT_FALSE(source.ok());
  EXPECT_EQ(source.status().ToString(), "not_found: gone");
  Result<int> assigned = 3;
  assigned = std::move(moved);
  EXPECT_FALSE(assigned.ok());
  EXPECT_EQ(assigned.status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(moved.ok());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.status().code(), ErrorCode::kNotFound);
  // A moved-from OK Result stays OK with an OK status.
  Result<std::string> value = std::string("v");
  Result<std::string> taken = std::move(value);
  EXPECT_EQ(*taken, "v");
  EXPECT_TRUE(value.ok());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(value.status().ok());
}

Result<std::unique_ptr<int>> NoOwner() { return Busy("later"); }

TEST(ResultTest, MoveOnlyError) {
  EXPECT_EQ(NoOwner().status().code(), ErrorCode::kBusy);
  EXPECT_FALSE(NoOwner().ok());
}

// An OK Status is a null pointer: the success path carries one word and
// never allocates.
static_assert(sizeof(Status) == sizeof(void*));

TEST(StatusTest, CopyDeepCopiesAnError) {
  Status original = NotFound("missing thing");
  Status copy = original;
  EXPECT_EQ(copy, original);
  EXPECT_NE(&copy.message(), &original.message());
  Status assigned;
  assigned = original;
  original = Busy("replaced");
  EXPECT_EQ(copy.ToString(), "not_found: missing thing");
  EXPECT_EQ(assigned.ToString(), "not_found: missing thing");
  EXPECT_EQ(original.code(), ErrorCode::kBusy);
  const Status& alias = assigned;
  assigned = alias;  // self-assignment keeps the error
  EXPECT_EQ(assigned.code(), ErrorCode::kNotFound);
}

TEST(StatusTest, MovedFromReadsOk) {
  Status source = Timeout("late");
  Status moved = std::move(source);
  EXPECT_EQ(moved.code(), ErrorCode::kTimeout);
  EXPECT_EQ(moved.message(), "late");
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is API.
  EXPECT_TRUE(source.ok());
  EXPECT_EQ(source.code(), ErrorCode::kOk);
  EXPECT_EQ(source.message(), "");
  EXPECT_EQ(source.ToString(), "ok");
  Status assigned = Internal("old");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.code(), ErrorCode::kTimeout);
  EXPECT_TRUE(moved.ok());  // NOLINT(bugprone-use-after-move)
}

TEST(StatusTest, EqualityAndToStringOnOkAndError) {
  EXPECT_EQ(Status(), OkStatus());
  EXPECT_EQ(OkStatus().ToString(), "ok");
  EXPECT_EQ(OkStatus().message(), "");
  EXPECT_EQ(Busy("x"), Busy("x"));
  EXPECT_FALSE(Busy("x") == Busy("y"));
  EXPECT_FALSE(Busy("x") == NotFound("x"));
  EXPECT_FALSE(Busy("") == OkStatus());
  EXPECT_EQ(Busy("").ToString(), "busy");
  EXPECT_EQ(Busy("now").ToString(), "busy: now");
}

struct NoDefault {
  explicit NoDefault(int v) : value(v) {}
  int value;
};

TEST(ResultTest, ValueWithoutDefaultConstructor) {
  Result<NoDefault> value = NoDefault(4);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->value, 4);
  EXPECT_EQ(value.value_or(NoDefault(1)).value, 4);
  Result<NoDefault> error = NotFound("none");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.value_or(NoDefault(1)).value, 1);
  Result<NoDefault> copy = error;
  EXPECT_EQ(copy.status(), error.status());
}

Status FailingHelper() { return Busy("try later"); }
Status ChainedHelper() {
  KOP_RETURN_IF_ERROR(FailingHelper());
  return OkStatus();
}
Result<int> ProducingHelper(bool ok) {
  if (!ok) return InvalidArgument("no");
  return 3;
}
Result<int> AssignChain(bool ok) {
  KOP_ASSIGN_OR_RETURN(int v, ProducingHelper(ok));
  return v * 2;
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(ChainedHelper().code(), ErrorCode::kBusy);
  auto good = AssignChain(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 6);
  EXPECT_FALSE(AssignChain(false).ok());
}

// ------------------------------------------------------------------ bits --

TEST(BitsTest, PowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1ull << 63));
}

TEST(BitsTest, Alignment) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
  EXPECT_EQ(AlignDown(15, 8), 8u);
  EXPECT_TRUE(IsAligned(64, 16));
  EXPECT_FALSE(IsAligned(65, 16));
}

TEST(BitsTest, ExtractBits) {
  EXPECT_EQ(ExtractBits(0xff00, 8, 15), 0xffu);
  EXPECT_EQ(ExtractBits(0b1010, 1, 2), 0b01u);
  EXPECT_EQ(ExtractBits(~0ull, 0, 63), ~0ull);
}

TEST(BitsTest, RangeContains) {
  EXPECT_TRUE(RangeContains(100, 10, 100, 10));
  EXPECT_TRUE(RangeContains(100, 10, 105, 5));
  EXPECT_FALSE(RangeContains(100, 10, 105, 6));
  EXPECT_FALSE(RangeContains(100, 10, 99, 1));
  // Overflow-safety at the top of the address space.
  EXPECT_TRUE(RangeContains(~0ull - 9, 10, ~0ull - 1, 2));
  EXPECT_FALSE(RangeContains(0, 10, ~0ull, 2));
}

TEST(BitsTest, RangesOverlap) {
  EXPECT_TRUE(RangesOverlap(0, 10, 5, 10));
  EXPECT_FALSE(RangesOverlap(0, 10, 10, 10));
  EXPECT_FALSE(RangesOverlap(0, 0, 0, 10));
  EXPECT_TRUE(RangesOverlap(~0ull - 5, 5, ~0ull - 3, 1));
}

TEST(BitsTest, CeilDiv) {
  EXPECT_EQ(CeilDiv<uint32_t>(10, 3), 4u);
  EXPECT_EQ(CeilDiv<uint32_t>(9, 3), 3u);
  EXPECT_EQ(CeilDiv<uint64_t>(1, 100), 1u);
}

// ----------------------------------------------------------- ring buffer --

TEST(RingBufferTest, PushPopFifo) {
  RingBuffer<int> ring(4);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.pop(), 1);
  EXPECT_EQ(ring.pop(), 2);
  EXPECT_EQ(ring.pop(), 3);
  EXPECT_EQ(ring.pop(), std::nullopt);
}

TEST(RingBufferTest, OverwritesOldestWhenFull) {
  RingBuffer<int> ring(3);
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{3, 4, 5}));
}

TEST(RingBufferTest, PushNodropRefusesWhenFull) {
  RingBuffer<int> ring(2);
  EXPECT_TRUE(ring.push_nodrop(1));
  EXPECT_TRUE(ring.push_nodrop(2));
  EXPECT_FALSE(ring.push_nodrop(3));
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{1, 2}));
}

TEST(RingBufferTest, AtIndexesOldestFirst) {
  RingBuffer<int> ring(3);
  for (int i = 1; i <= 4; ++i) ring.push(i);
  EXPECT_EQ(ring.at(0), 2);
  EXPECT_EQ(ring.at(2), 4);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> ring(3);
  ring.push(1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pop(), std::nullopt);
}

// ------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Xoshiro256 a2(42), c2(43);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, NextBelowStaysInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Xoshiro256 rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoublesInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Xoshiro256 rng(4);
  double sum = 0, sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliProbability) {
  Xoshiro256 rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// -------------------------------------------------------------- spinlock --

TEST(SpinlockTest, MutualExclusionUnderContention) {
  Spinlock lock;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<Spinlock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SpinlockTest, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --------------------------------------------------------------- hexdump --

TEST(HexdumpTest, FormatsBytesAndAscii) {
  const char data[] = "CARAT!";
  const std::string dump = Hexdump(data, 6);
  EXPECT_NE(dump.find("4341 5241 5421"), std::string::npos);
  EXPECT_NE(dump.find("CARAT!"), std::string::npos);
  EXPECT_NE(dump.find("00000000:"), std::string::npos);
}

TEST(HexdumpTest, NonPrintableBecomesDot) {
  const uint8_t data[] = {0x00, 0x1f, 'A'};
  const std::string dump = Hexdump(data, 3);
  EXPECT_NE(dump.find("..A"), std::string::npos);
}

TEST(HexdumpTest, BaseOffsetApplied) {
  const uint8_t data[] = {1, 2, 3};
  const std::string dump = Hexdump(data, 3, 0x1000);
  EXPECT_NE(dump.find("00001000:"), std::string::npos);
}

TEST(HexdumpTest, MultiRow) {
  std::vector<uint8_t> data(40, 0xab);
  const std::string dump = Hexdump(data.data(), data.size());
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 3);
}

// ----------------------------------------------------------------- parse --

TEST(ParseU64Test, AcceptsWholeUnsignedDecimalHexAndOctal) {
  uint64_t value = 0;
  EXPECT_TRUE(util::ParseU64("42", &value));
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(util::ParseU64("0x10", &value));
  EXPECT_EQ(value, 16u);
  EXPECT_TRUE(util::ParseU64("010", &value));
  EXPECT_EQ(value, 8u);
  EXPECT_TRUE(util::ParseU64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  // 2^32 + 1 comes back whole, so a caller's range check sees it before
  // narrowing it to 1.
  EXPECT_TRUE(util::ParseU64("4294967297", &value));
  EXPECT_EQ(value, 4294967297u);
}

TEST(ParseU64Test, RejectsSignsJunkAndOverflow) {
  uint64_t value = 0;
  for (const char* text : {"", "-1", "+1", " 1", "2junk", "2x", "0x", "0xg",
                           "18446744073709551616", "0x10000000000000000"}) {
    EXPECT_FALSE(util::ParseU64(text, &value)) << '"' << text << '"';
  }
}

// ------------------------------------------------------------------- log --

TEST(LogTest, RespectsSeverityAndStream) {
  std::ostringstream captured;
  SetLogStream(&captured);
  SetLogLevel(LogLevel::kWarn);
  KOP_LOG(kInfo) << "hidden";
  KOP_LOG(kError) << "visible " << 42;
  SetLogStream(nullptr);
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(captured.str().find("hidden"), std::string::npos);
  EXPECT_NE(captured.str().find("visible 42"), std::string::npos);
  EXPECT_NE(captured.str().find("[ERROR]"), std::string::npos);
}

}  // namespace
}  // namespace kop
