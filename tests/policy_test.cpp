// kop::policy: the region table (decided through the engine, the only
// code that scans it), the engine and the policy module's ioctl surface.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "kop/kernel/kernel.hpp"
#include "kop/kernel/memory_map.hpp"
#include "kop/policy/engine.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/trace/site.hpp"
#include "kop/util/rng.hpp"

namespace kop::policy {
namespace {

// -------------------------------------------------------- region table --

// Default-deny engine, so Check(read) answers "does a readable region
// cover the whole range" and Check(write) the same for writes.
class RegionTableTest : public ::testing::Test {
 protected:
  RegionTableTest() : engine_(&kernel_, PolicyMode::kDefaultDeny) {}
  RegionTable64& table() { return engine_.store(); }
  bool Readable(uint64_t addr, uint64_t size) {
    return engine_.Check(addr, size, kGuardAccessRead);
  }
  bool Writable(uint64_t addr, uint64_t size) {
    return engine_.Check(addr, size, kGuardAccessWrite);
  }
  kernel::Kernel kernel_;
  PolicyEngine engine_;
};

TEST_F(RegionTableTest, AddCheckRemove) {
  EXPECT_EQ(table().Size(), 0u);
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x10000, 0x100, kProtRead}).ok());
  EXPECT_EQ(table().Size(), 2u);

  EXPECT_TRUE(Readable(0x1800, 8));
  EXPECT_TRUE(Writable(0x1800, 8));
  EXPECT_TRUE(Readable(0x10000, 4));
  EXPECT_FALSE(Writable(0x10000, 4));
  EXPECT_FALSE(Readable(0x3000, 8));

  ASSERT_TRUE(table().Remove(0x1000).ok());
  EXPECT_FALSE(Readable(0x1800, 8));
  EXPECT_EQ(table().Size(), 1u);
  const Status again = table().Remove(0x1000);
  EXPECT_EQ(again.code(), ErrorCode::kNotFound);
}

TEST_F(RegionTableTest, ExactBoundaries) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(Readable(0x1000, 1));      // first byte
  EXPECT_TRUE(Readable(0x10ff, 1));      // last byte
  EXPECT_TRUE(Readable(0x1000, 0x100));  // whole region
  EXPECT_FALSE(Readable(0x0fff, 1));     // one before
  EXPECT_FALSE(Readable(0x1100, 1));     // one after
  // A range extending past the region is not covered.
  EXPECT_FALSE(Readable(0x10ff, 2));
  EXPECT_FALSE(Readable(0x1000, 0x101));
}

TEST_F(RegionTableTest, RejectsDegenerateAndIdenticalRegions) {
  EXPECT_EQ(table().Add(Region{0x1000, 0, kProtRW}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(table().Add(Region{~0ull - 10, 100, kProtRW}).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  // Same base and length is a duplicate whatever the protection.
  EXPECT_EQ(table().Add(Region{0x1000, 0x100, kProtRead}).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(table().Size(), 1u);
}

TEST_F(RegionTableTest, ClearEmpties) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(Readable(0x1000, 1));
  table().Clear();
  EXPECT_EQ(table().Size(), 0u);
  EXPECT_FALSE(Readable(0x1000, 1));
  // Usable after clear.
  EXPECT_TRUE(table().Add(Region{0x2000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(Readable(0x2000, 1));
}

TEST_F(RegionTableTest, SnapshotKeepsInsertionOrder) {
  ASSERT_TRUE(table().Add(Region{0x3000, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x2000, 0x100, kProtWrite}).ok());
  const std::vector<Region> snapshot = table().Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].base, 0x3000u);
  EXPECT_EQ(snapshot[1].base, 0x1000u);
  EXPECT_EQ(snapshot[2].base, 0x2000u);
  EXPECT_EQ(snapshot[2].prot, kProtWrite);
  // The frame guards decide against is the same list.
  const std::vector<Region> frame = engine_.FrameSnapshot();
  ASSERT_EQ(frame.size(), 3u);
  for (size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame[i].base, snapshot[i].base) << i;
  }
}

TEST_F(RegionTableTest, AdjacentRegionsDoNotBleed) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1100, 0x100, kProtWrite}).ok());
  EXPECT_TRUE(Readable(0x10ff, 1));
  EXPECT_FALSE(Writable(0x10ff, 1));
  EXPECT_TRUE(Writable(0x1100, 1));
  EXPECT_FALSE(Readable(0x1100, 1));
  // A range spanning both is covered by neither alone.
  EXPECT_FALSE(Readable(0x10f0, 0x20));
  EXPECT_FALSE(Writable(0x10f0, 0x20));
}

TEST_F(RegionTableTest, OverlapFirstMatchWins) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1800, 0x1000, kProtRead}).ok());
  // In the overlap the earlier (RW) region decides; past it, the later.
  EXPECT_TRUE(Writable(0x1900, 4));
  EXPECT_FALSE(Writable(0x2100, 4));
  EXPECT_TRUE(Readable(0x2100, 4));
  // A restricting region inserted first shadows a wider grant.
  table().Clear();
  ASSERT_TRUE(table().Add(Region{0x1800, 0x100, kProtNone}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  EXPECT_FALSE(Readable(0x1810, 4));
  EXPECT_TRUE(Readable(0x1010, 4));
}

TEST_F(RegionTableTest, CapacityIs64) {
  for (uint64_t i = 0; i < RegionTable64::kMaxRegions; ++i) {
    ASSERT_TRUE(table().Add(Region{i * 0x1000, 0x100, kProtRW}).ok()) << i;
  }
  const Status status = table().Add(Region{65 * 0x1000, 0x100, kProtRW});
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(table().Size(), 64u);
  EXPECT_TRUE(Readable(63 * 0x1000, 4));
  EXPECT_FALSE(Readable(65 * 0x1000, 4));
  // Removing one frees exactly one slot.
  ASSERT_TRUE(table().Remove(0).ok());
  EXPECT_TRUE(table().Add(Region{65 * 0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(Readable(65 * 0x1000, 4));
}

TEST_F(RegionTableTest, RemovePreservesFirstMatchOrder) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1800, 0x1000, kProtRead}).ok());  // overlap
  ASSERT_TRUE(table().Add(Region{0x2000, 0x1000, kProtWrite}).ok()); // overlap
  EXPECT_TRUE(Writable(0x1900, 4));
  ASSERT_TRUE(table().Remove(0x1000).ok());
  // Now the 0x1800 region is first; a probe in its overlap with 0x2000
  // favors it over the later write-only region.
  EXPECT_TRUE(Readable(0x2100, 4));
  EXPECT_FALSE(Writable(0x2100, 4));
}

TEST_F(RegionTableTest, ScanCountsEntries) {
  engine_.SetViolationAction(ViolationAction::kLogOnly);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table().Add(Region{i * 0x1000, 0x100, kProtRW}).ok());
  }
  const trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const uint64_t count0 = depth->count();
  const double sum0 = depth->sum();
  EXPECT_TRUE(engine_.Guard(9 * 0x1000, 4, kGuardAccessRead));  // last: 10
  EXPECT_EQ(depth->count(), count0 + 1);
  EXPECT_EQ(depth->sum(), sum0 + 10);
  EXPECT_TRUE(engine_.Guard(0, 4, kGuardAccessRead));  // first: 1
  EXPECT_EQ(depth->sum(), sum0 + 11);
  EXPECT_FALSE(engine_.Guard(0x50000, 4, kGuardAccessRead));  // miss: all 10
  EXPECT_EQ(depth->count(), count0 + 3);
  EXPECT_EQ(depth->sum(), sum0 + 21);
}

// Edge cases of the base-sorted index: each decision and its table-order
// depth must be what the paper's first-match scan gives.
class RegionIndexTest : public RegionTableTest {
 protected:
  RegionIndexTest() { engine_.SetViolationAction(ViolationAction::kLogOnly); }
  /// policy.lookup_depth recorded by one Guard() of the access.
  uint64_t GuardDepth(uint64_t addr, uint64_t size, uint64_t flags) {
    const trace::Log2Histogram* depth =
        trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
    const double sum0 = depth->sum();
    (void)engine_.Guard(addr, size, flags);
    return static_cast<uint64_t>(depth->sum() - sum0);
  }
};

TEST_F(RegionIndexTest, SizeZeroChecksOneByte) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(Readable(0x1000, 0));
  EXPECT_TRUE(Readable(0x10ff, 0));
  EXPECT_FALSE(Readable(0x1100, 0));
  EXPECT_FALSE(Readable(0x0fff, 0));
  EXPECT_EQ(GuardDepth(0x10ff, 0, kGuardAccessRead), 1u);
}

TEST_F(RegionIndexTest, AccessRunningPastTheEndFallsToALaterContainer) {
  // Nearest base first: the access starts in [0x2000, +0x100) and runs
  // past its end, so only the later, lower-based long region holds it.
  ASSERT_TRUE(table().Add(Region{0x2000, 0x100, kProtNone}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x2000, kProtRW}).ok());
  EXPECT_FALSE(Readable(0x20f8, 8));
  EXPECT_TRUE(Readable(0x20f8, 9));
  EXPECT_EQ(GuardDepth(0x20f8, 8, kGuardAccessRead), 1u);
  EXPECT_EQ(GuardDepth(0x20f8, 9, kGuardAccessRead), 2u);
  // Past the long region's end too: a miss over both.
  EXPECT_FALSE(Readable(0x2ff8, 9));
  EXPECT_EQ(GuardDepth(0x2ff8, 9, kGuardAccessRead), 2u);
}

TEST_F(RegionIndexTest, EarlierShortRegionNestedInALaterLongOne) {
  ASSERT_TRUE(table().Add(Region{0x1800, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtRW}).ok());
  // Inside the short one: it is first in table order and decides.
  EXPECT_FALSE(Writable(0x1810, 4));
  EXPECT_EQ(GuardDepth(0x1810, 4, kGuardAccessWrite), 1u);
  // Starting inside the short one but running past its end: only the
  // long one contains the access, so it decides.
  EXPECT_TRUE(Writable(0x18f8, 0x10));
  EXPECT_EQ(GuardDepth(0x18f8, 0x10, kGuardAccessWrite), 2u);
  // Around it, the long one.
  EXPECT_TRUE(Writable(0x1000, 8));
  EXPECT_TRUE(Writable(0x1900, 8));
  EXPECT_EQ(GuardDepth(0x1900, 8, kGuardAccessWrite), 2u);
}

TEST_F(RegionIndexTest, RegionEndingAtTheTopOfTheAddressSpace) {
  const uint64_t top = ~uint64_t{0};
  // kernel-half: [0xffff800000000000, 2^64 - 1), as the rules name it.
  ASSERT_TRUE(
      table().Add(Region{kernel::kKernelHalfBase,
                         top - kernel::kKernelHalfBase, kProtRead})
          .ok());
  EXPECT_TRUE(Readable(kernel::kKernelHalfBase, 8));
  EXPECT_TRUE(Readable(top - 8, 8));   // the last 8 bytes
  EXPECT_TRUE(Readable(top - 1, 0));   // the last byte
  EXPECT_FALSE(Readable(top - 7, 8));  // covers 2^64 - 1
  EXPECT_FALSE(Readable(top, 0));
  EXPECT_FALSE(Readable(top - 8, 16));  // addr + size wraps
  EXPECT_FALSE(Readable(kernel::kKernelHalfBase, top));
  EXPECT_FALSE(Readable(kernel::kKernelHalfBase - 1, 8));
  EXPECT_EQ(GuardDepth(top - 8, 8, kGuardAccessRead), 1u);
}

TEST_F(RegionIndexTest, IdenticalBasesRemoveTheEarliest) {
  ASSERT_TRUE(table().Add(Region{0x1000, 0x100, kProtRead}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x1000, kProtWrite}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x80, kProtRW}).ok());
  EXPECT_TRUE(Readable(0x1010, 4));
  EXPECT_FALSE(Writable(0x1010, 4));
  EXPECT_EQ(GuardDepth(0x1010, 4, kGuardAccessRead), 1u);
  EXPECT_EQ(GuardDepth(0x1800, 4, kGuardAccessWrite), 2u);

  ASSERT_TRUE(table().Remove(0x1000).ok());  // the read-only one
  ASSERT_EQ(table().Snapshot().size(), 2u);
  EXPECT_EQ(table().Snapshot()[0].len, 0x1000u);
  EXPECT_TRUE(Writable(0x1010, 4));
  EXPECT_FALSE(Readable(0x1010, 4));
  EXPECT_EQ(GuardDepth(0x1010, 4, kGuardAccessWrite), 1u);

  ASSERT_TRUE(table().Remove(0x1000).ok());  // the write-only one
  EXPECT_TRUE(Readable(0x1010, 4));
  EXPECT_FALSE(Readable(0x1100, 4));
  EXPECT_EQ(GuardDepth(0x1010, 4, kGuardAccessRead), 1u);
  ASSERT_TRUE(table().Remove(0x1000).ok());
  EXPECT_EQ(table().Remove(0x1000).code(), ErrorCode::kNotFound);
}

TEST_F(RegionIndexTest, ProbesOutsideEveryRegionMissAtFullDepth) {
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        table().Add(Region{0x10000 + i * 0x1000, 0x800, kProtRW}).ok());
  }
  for (const uint64_t addr :
       {uint64_t{0}, uint64_t{0xfff8}, uint64_t{0x17800}, uint64_t{0x20000},
        ~uint64_t{0} - 8}) {
    EXPECT_FALSE(Readable(addr, 8)) << std::hex << addr;
    EXPECT_EQ(GuardDepth(addr, 8, kGuardAccessRead), 8u) << std::hex << addr;
  }
  EXPECT_TRUE(Readable(0x17000, 8));
  EXPECT_EQ(GuardDepth(0x17000, 8, kGuardAccessRead), 8u);
  EXPECT_EQ(GuardDepth(0x10000, 8, kGuardAccessRead), 1u);
}

TEST_F(RegionIndexTest, ClearEmptiesTheIndex) {
  ASSERT_TRUE(table().Add(Region{0x3000, 0x1000, kProtRW}).ok());
  ASSERT_TRUE(table().Add(Region{0x1000, 0x4000, kProtRead}).ok());
  EXPECT_TRUE(Writable(0x3000, 8));
  table().Clear();
  EXPECT_FALSE(Readable(0x3000, 8));
  EXPECT_EQ(GuardDepth(0x3000, 8, kGuardAccessRead), 0u);
  EXPECT_TRUE(engine_.FrameSnapshot().empty());
  // A cleared table indexes new regions from scratch: no stale running
  // max end from the long region lets a later probe match.
  ASSERT_TRUE(table().Add(Region{0x8000, 0x100, kProtRead}).ok());
  EXPECT_FALSE(Readable(0x3000, 8));
  EXPECT_TRUE(Readable(0x8000, 8));
  EXPECT_EQ(GuardDepth(0x8000, 8, kGuardAccessRead), 1u);
}

// ------------------------------------------------------------- engine --

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : engine_(&kernel_, PolicyMode::kDefaultDeny) {
    engine_.SetViolationAction(ViolationAction::kLogOnly);
  }
  kernel::Kernel kernel_;
  PolicyEngine engine_;
};

TEST_F(EngineTest, DefaultDenySemantics) {
  EXPECT_FALSE(engine_.Check(0x1000, 8, kGuardAccessRead));
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Check(0x1000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Check(0x1000, 8, kGuardAccessWrite));
  EXPECT_FALSE(engine_.Check(0x2000, 8, kGuardAccessRead));
}

TEST_F(EngineTest, DefaultAllowSemantics) {
  engine_.SetMode(PolicyMode::kDefaultAllow);
  EXPECT_TRUE(engine_.Check(0x9000, 8, kGuardAccessWrite));
  // A restricting region takes away write.
  ASSERT_TRUE(engine_.store().Add(Region{0x9000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Check(0x9000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Check(0x9000, 8, kGuardAccessWrite));
}

TEST_F(EngineTest, GuardCountsAndLogs) {
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(engine_.Guard(0x1000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine_.Guard(0x5000, 8, kGuardAccessWrite));
  EXPECT_EQ(engine_.stats().guard_calls, 2u);
  EXPECT_EQ(engine_.stats().allowed, 1u);
  EXPECT_EQ(engine_.stats().denied, 1u);
  EXPECT_TRUE(kernel_.log().Contains("forbidden write access"));
}

TEST_F(EngineTest, GuardChargesClockByRegionCount) {
  engine_.SetMode(PolicyMode::kDefaultAllow);
  const double before = kernel_.clock().NowCycles();
  EXPECT_TRUE(engine_.Guard(0x1, 8, kGuardAccessRead));
  const double one_guard = kernel_.clock().NowCycles() - before;
  EXPECT_NEAR(one_guard, kernel_.machine().GuardCycles(0), 1e-9);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        engine_.store().Add(Region{i << 20, 0x1000, kProtRW}).ok());
  }
  const double before64 = kernel_.clock().NowCycles();
  EXPECT_TRUE(engine_.Guard(0x1, 8, kGuardAccessRead));
  EXPECT_NEAR(kernel_.clock().NowCycles() - before64,
              kernel_.machine().GuardCycles(64), 1e-9);
}

TEST_F(EngineTest, PanicActionThrows) {
  engine_.SetViolationAction(ViolationAction::kPanic);
  EXPECT_THROW((void)engine_.Guard(0x5000, 8, kGuardAccessRead),
               kernel::KernelPanic);
  EXPECT_TRUE(kernel_.panicked());
}

TEST_F(EngineTest, IntrinsicTableThreeStates) {
  engine_.SetIntrinsicDefaultAllow(false);
  EXPECT_FALSE(engine_.IntrinsicGuard(1));
  engine_.AllowIntrinsic(1);
  EXPECT_TRUE(engine_.IntrinsicGuard(1));
  engine_.DenyIntrinsic(1);
  EXPECT_FALSE(engine_.IntrinsicGuard(1));
  engine_.SetIntrinsicDefaultAllow(true);
  EXPECT_TRUE(engine_.IntrinsicGuard(2));  // unlisted -> default
  EXPECT_EQ(engine_.stats().intrinsic_calls, 4u);
  EXPECT_EQ(engine_.stats().intrinsic_denied, 2u);
}

TEST_F(EngineTest, ViolationRingRecordsDenials) {
  ASSERT_TRUE(engine_.store().Add(Region{0x1000, 0x100, kProtRead}).ok());
  EXPECT_TRUE(engine_.Guard(0x1000, 8, kGuardAccessRead));   // allowed
  EXPECT_FALSE(engine_.Guard(0x1000, 8, kGuardAccessWrite)); // denied
  EXPECT_FALSE(engine_.Guard(0x9000, 4, kGuardAccessRead));  // denied
  engine_.SetIntrinsicDefaultAllow(false);
  EXPECT_FALSE(engine_.IntrinsicGuard(3));                   // denied

  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].addr, 0x1000u);
  EXPECT_EQ(violations[0].access_flags, kGuardAccessWrite);
  EXPECT_FALSE(violations[0].intrinsic);
  EXPECT_EQ(violations[1].addr, 0x9000u);
  EXPECT_EQ(violations[1].size, 4u);
  EXPECT_TRUE(violations[2].intrinsic);
  EXPECT_EQ(violations[2].addr, 3u);  // intrinsic id in addr field

  engine_.ResetStats();
  EXPECT_TRUE(engine_.RecentViolations().empty());
}

TEST_F(EngineTest, ViolationRingKeepsMostRecent64) {
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(engine_.Guard(0x10000 + i, 1, kGuardAccessRead));
  }
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 64u);
  EXPECT_EQ(violations.front().addr, 0x10000u + 36);  // oldest kept
  EXPECT_EQ(violations.back().addr, 0x10000u + 99);
}

TEST_F(EngineTest, ViolationRingWrapKeepsMonotonicSequence) {
  // Log-only audit mode (the fixture default) must still record every
  // denial; sequences are guard-call ordinals, so they stay strictly
  // increasing and contiguous even after the 64-entry ring wraps.
  for (uint64_t i = 0; i < 150; ++i) {
    EXPECT_FALSE(engine_.Guard(0x20000 + i, 1, kGuardAccessWrite));
  }
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 64u);
  for (size_t i = 1; i < violations.size(); ++i) {
    EXPECT_EQ(violations[i].sequence, violations[i - 1].sequence + 1);
  }
  EXPECT_EQ(violations.back().sequence, 150u);  // nth guard call overall
  EXPECT_EQ(violations.back().addr, 0x20000u + 149);
  EXPECT_EQ(engine_.stats().denied, 150u);
}

TEST_F(EngineTest, ViolationCarriesPinnedGuardSite) {
  // When a site context is pinned (as the module loader does around
  // interpreted guard calls), the denial and the hot-site table both
  // charge that exact site.
  trace::SiteInfo info;
  info.module_name = "enginetest";
  info.function = "poke";
  const uint64_t token = trace::GlobalSites().Register(info);
  {
    trace::ScopedGuardSite scope(token);
    EXPECT_FALSE(engine_.Guard(0x5000, 8, kGuardAccessWrite));
  }
  EXPECT_FALSE(engine_.Guard(0x6000, 8, kGuardAccessWrite));  // unpinned

  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].site, token);
  EXPECT_EQ(violations[1].site, trace::kUnknownSite);

  uint64_t site_denials = 0;
  for (const HotSite& row : engine_.HotSites()) {
    if (row.site == token) site_denials = row.denied;
  }
  EXPECT_EQ(site_denials, 1u);
}

TEST_F(EngineTest, CfiCheckDecidesMembershipAndCountsDenials) {
  const uint64_t base = engine_.RegisterCfiSets({{0x40, 0x20, 0x30}, {0x10}});
  EXPECT_EQ(engine_.CfiSetCount(), 2u);
  EXPECT_TRUE(engine_.CfiCheck(0x20, base + 0));
  EXPECT_TRUE(engine_.CfiCheck(0x40, base + 0));
  EXPECT_FALSE(engine_.CfiCheck(0x10, base + 0));  // member of the OTHER set
  EXPECT_TRUE(engine_.CfiCheck(0x10, base + 1));
  // An out-of-range set id denies: unknown provenance never licences a jump.
  EXPECT_FALSE(engine_.CfiCheck(0x20, base + 2));
  EXPECT_EQ(engine_.stats().cfi_checks, 5u);
  EXPECT_EQ(engine_.stats().cfi_denied, 2u);
  // CFI misses land in the violation ring flagged as cfi, with the target
  // in the addr field and the set id in the size field.
  const auto violations = engine_.RecentViolations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_TRUE(violations[0].cfi);
  EXPECT_EQ(violations[0].addr, 0x10u);
  EXPECT_EQ(violations[0].size, base + 0);
  EXPECT_TRUE(violations[1].cfi);
}

TEST_F(EngineTest, FastCfiCheckNeedsPinAndSendsMissesToSlowPath) {
  const uint64_t base = engine_.RegisterCfiSets({{0x40, 0x20}});
  // Unpinned: the fast path refuses without deciding anything.
  EXPECT_FALSE(engine_.FastCfiCheck(0x20, base, 0));
  EXPECT_EQ(engine_.stats().cfi_checks, 0u);
  ASSERT_TRUE(engine_.PinFrame());
  EXPECT_TRUE(engine_.FastCfiCheck(0x20, base, 0));
  // A miss deopts; the slow path owns violation semantics and must reach
  // the same verdict.
  EXPECT_FALSE(engine_.FastCfiCheck(0x99, base, 0));
  EXPECT_FALSE(engine_.CfiCheck(0x99, base));
  engine_.UnpinFrame();
  EXPECT_EQ(engine_.stats().cfi_denied, 1u);
}

// ---------------------------------------- pinned allow accounting --

// Everything the guard accounting exposes: both guard histograms (per
// bucket, sums bit for bit), the folded stats, the hot-site table, the
// violation ring's sequences and the virtual clock.
struct AccountingView {
  std::vector<uint64_t> latency_buckets;
  std::vector<uint64_t> depth_buckets;
  uint64_t latency_sum_bits = 0;
  uint64_t depth_sum_bits = 0;
  GuardStats stats;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> sites;
  std::vector<uint64_t> sequences;
  double clock = 0.0;
};

void ReadHistogram(const char* name, std::vector<uint64_t>* buckets,
                   uint64_t* sum_bits) {
  const trace::Log2Histogram* hist = trace::GlobalMetrics().GetHistogram(name);
  for (size_t i = 0; i < trace::Log2Histogram::kBuckets; ++i) {
    buckets->push_back(hist->bucket(i));
  }
  *sum_bits = std::bit_cast<uint64_t>(hist->sum());
}

AccountingView ViewOf(PolicyEngine& engine, kernel::Kernel& kernel) {
  AccountingView view;
  ReadHistogram("guard.latency_cycles", &view.latency_buckets,
                &view.latency_sum_bits);
  ReadHistogram("policy.lookup_depth", &view.depth_buckets,
                &view.depth_sum_bits);
  view.stats = engine.stats();
  for (const HotSite& row : engine.HotSites()) {
    view.sites.emplace_back(row.site, row.hits, row.denied, row.elided);
  }
  for (const ViolationRecord& record : engine.RecentViolations()) {
    view.sequences.push_back(record.sequence);
  }
  view.clock = kernel.clock().NowCycles();
  return view;
}

void ExpectSameAccounting(const AccountingView& got,
                          const AccountingView& want) {
  EXPECT_EQ(got.latency_buckets, want.latency_buckets);
  EXPECT_EQ(got.depth_buckets, want.depth_buckets);
  EXPECT_EQ(got.latency_sum_bits, want.latency_sum_bits);
  EXPECT_EQ(got.depth_sum_bits, want.depth_sum_bits);
  EXPECT_EQ(got.stats.guard_calls, want.stats.guard_calls);
  EXPECT_EQ(got.stats.allowed, want.stats.allowed);
  EXPECT_EQ(got.stats.denied, want.stats.denied);
  EXPECT_EQ(got.stats.elided, want.stats.elided);
  EXPECT_EQ(got.stats.cfi_checks, want.stats.cfi_checks);
  EXPECT_EQ(got.stats.cfi_denied, want.stats.cfi_denied);
  EXPECT_EQ(got.sites, want.sites);
  EXPECT_EQ(got.sequences, want.sequences);
  EXPECT_EQ(got.clock, want.clock);
}

// One guarded access as the native drivers make it: inline against the
// pin when `pinned`, out of line (with the site pinned for attribution)
// otherwise or on a deopt.
void GuardedAccess(PolicyEngine& engine, bool pinned, uint64_t addr,
                   uint64_t flags, uint64_t site) {
  if (pinned && engine.FastGuard(addr, 8, flags, site)) return;
  trace::ScopedGuardSite scope(site);
  (void)engine.Guard(addr, 8, flags);
}

// One covering range guard, pinned or not, as GuardedAccess makes a guard.
void GuardedCover(PolicyEngine& engine, bool pinned, uint64_t addr,
                  uint64_t size, uint64_t flags, uint64_t elided,
                  uint64_t site) {
  if (pinned && engine.FastGuardRange(addr, size, flags, elided, site)) return;
  trace::ScopedGuardSite scope(site);
  (void)engine.GuardRange(addr, size, flags, elided);
}

// One indirect-call check, pinned or not, as GuardedAccess makes a guard.
void CheckedCall(PolicyEngine& engine, bool pinned, uint64_t target,
                 uint64_t set_id, uint64_t site) {
  if (pinned && engine.FastCfiCheck(target, set_id, site)) return;
  trace::ScopedGuardSite scope(site);
  (void)engine.CfiCheck(target, set_id);
}

uint64_t RegisterTestSite(const char* function) {
  trace::SiteInfo info;
  info.module_name = "pinbatch";
  info.function = function;
  return trace::GlobalSites().Register(info);
}

// The scenario: guards at alternating lookup depths and CFI passes, a
// denial (deopt, violation record), a region added mid-call (stale pin:
// deopt and refresh, new guard cost), more guards at the new depths and a
// CFI denial. `covers_and_forced` appends elided covers and denials forced
// at a fault-injection site (one deopt each when pinned).
AccountingView RunAccountingScenario(bool pinned,
                                     bool covers_and_forced = false) {
  trace::GlobalMetrics().Reset();
  kernel::Kernel kernel;
  PolicyEngine engine(&kernel, PolicyMode::kDefaultDeny);
  engine.SetViolationAction(ViolationAction::kLogOnly);
  EXPECT_TRUE(engine.store().Add(Region{0x1000, 0x100, kProtRW}).ok());
  EXPECT_TRUE(engine.store().Add(Region{0x2000, 0x100, kProtRW}).ok());
  // Registered once: both runs must attribute to the same tokens.
  static const uint64_t near = RegisterTestSite("near");
  static const uint64_t far = RegisterTestSite("far");
  static const uint64_t call = RegisterTestSite("call");
  const uint64_t set = engine.RegisterCfiSets({{0x500, 0x600}});
  if (pinned) {
    EXPECT_TRUE(engine.PinFrame());
  }
  for (int i = 0; i < 7; ++i) {
    GuardedAccess(engine, pinned, 0x1000 + 8 * i, kGuardAccessRead, near);
    GuardedAccess(engine, pinned, 0x2000 + 8 * i, kGuardAccessWrite, far);
    GuardedAccess(engine, pinned, 0x2000, kGuardAccessRead, far);
    CheckedCall(engine, pinned, i % 2 == 0 ? 0x500 : 0x600, set, call);
  }
  GuardedAccess(engine, pinned, 0x9000, kGuardAccessRead, near);  // denied
  for (int i = 0; i < 3; ++i) {
    GuardedAccess(engine, pinned, 0x1000, kGuardAccessRead, near);
  }
  EXPECT_TRUE(engine.store().Add(Region{0x3000, 0x100, kProtRead}).ok());
  for (int i = 0; i < 5; ++i) {
    GuardedAccess(engine, pinned, 0x3000, kGuardAccessRead, far);
    GuardedAccess(engine, pinned, 0x1000, kGuardAccessWrite, near);
  }
  CheckedCall(engine, pinned, 0x700, set, call);  // CFI denial
  CheckedCall(engine, pinned, 0x500, set, call);
  GuardedAccess(engine, pinned, 0x3000, kGuardAccessWrite, far);  // denied
  GuardedAccess(engine, pinned, 0x2000, kGuardAccessRead, far);
  if (covers_and_forced) {
    static const uint64_t cover = RegisterTestSite("cover");
    static const uint64_t forced = RegisterTestSite("forced");
    GuardedCover(engine, pinned, 0x1000, 0x40, kGuardAccessRead, 7, cover);
    GuardedCover(engine, pinned, 0x2000, 0x20, kGuardAccessWrite, 3, cover);
    engine.ForceDenyAtSite(forced);
    GuardedAccess(engine, pinned, 0x1000, kGuardAccessRead, forced);
    // A forced-deny cover credits none of its members.
    GuardedCover(engine, pinned, 0x2000, 0x10, kGuardAccessRead, 2, forced);
    engine.ForceDenyAtSite(PolicyEngine::kNoForcedSite);
    GuardedCover(engine, pinned, 0x3000, 0x10, kGuardAccessRead, 1, cover);
  }
  if (pinned) engine.UnpinFrame();
  return ViewOf(engine, kernel);
}

TEST(PinnedAccountingTest, UnpinnedViewEqualsUnbatchedGuards) {
  const AccountingView unbatched = RunAccountingScenario(false);
  ASSERT_EQ(unbatched.stats.guard_calls, 7u * 3 + 1 + 3 + 5 * 2 + 2);
  ASSERT_EQ(unbatched.stats.denied, 2u);
  ASSERT_EQ(unbatched.stats.cfi_checks, 7u + 2);
  ASSERT_EQ(unbatched.stats.cfi_denied, 1u);
  const AccountingView batched = RunAccountingScenario(true);
  // The pinned run really decided inline: three denials plus one stale
  // pin were its only trips out of line (the scenario resets metrics).
  EXPECT_EQ(trace::GlobalMetrics().GetCounter("guard.deopt")->value(), 4u);
  ExpectSameAccounting(batched, unbatched);
}

TEST(PinnedAccountingTest, CoversAndForcedDenialsMatchUnbatchedGuards) {
  const trace::Counter* deopt =
      trace::GlobalMetrics().GetCounter("guard.deopt");
  const trace::Counter* elided =
      trace::GlobalMetrics().GetCounter("guard.elided");
  const AccountingView unbatched = RunAccountingScenario(false, true);
  // Out-of-line decisions never deopt, stale pin or forced site alike.
  EXPECT_EQ(deopt->value(), 0u);
  ASSERT_EQ(unbatched.stats.elided, 7u + 3 + 1);
  const uint64_t unbatched_elided = elided->value();
  EXPECT_EQ(unbatched_elided, unbatched.stats.elided);
  const AccountingView batched = RunAccountingScenario(true, true);
  // The four trips out of line above, plus one per forced denial.
  EXPECT_EQ(deopt->value(), 6u);
  // A pinned cover's credit reaches guard.elided at the unpin.
  EXPECT_EQ(elided->value(), unbatched_elided);
  ExpectSameAccounting(batched, unbatched);
}

// A denial that throws — GuardViolation under kQuarantine, KernelPanic
// under kPanic — through Guard() (or CfiCheck() when `cfi`), with the CPU
// unpinned or nested in a PinFrame. The decision's own pin must close
// before the throw: the slot's depth is as before the call, an unpinned
// FastGuard refuses without a deopt, and a nested run's outer unpin folds
// the same accounting as the unpinned run.
AccountingView RunThrowingDenial(ViolationAction action, bool cfi,
                                 bool nested) {
  trace::GlobalMetrics().Reset();
  kernel::Kernel kernel;
  PolicyEngine engine(&kernel, PolicyMode::kDefaultDeny);
  EXPECT_TRUE(engine.store().Add(Region{0x1000, 0x100, kProtRW}).ok());
  const uint64_t set = engine.RegisterCfiSets({{0x500}});
  static const uint64_t site = RegisterTestSite("throw");
  // A pin slot is its CPU's for good: its depth can be read unpinned.
  const guard::PinSlot* slot = engine.PinCpu();
  engine.UnpinFrame();
  if (nested) {
    EXPECT_TRUE(engine.PinFrame());
  }
  const uint32_t depth_before = slot->depth;
  for (int i = 0; i < 3; ++i) {
    GuardedAccess(engine, nested, 0x1000 + 8 * i, kGuardAccessRead, site);
    CheckedCall(engine, nested, 0x500, set, site);
  }
  engine.SetViolationAction(action);
  bool threw = false;
  try {
    trace::ScopedGuardSite scope(site);
    if (cfi) {
      (void)engine.CfiCheck(0x600, set);
    } else {
      (void)engine.Guard(0x9000, 8, kGuardAccessWrite);
    }
  } catch (const kernel::GuardViolation& violation) {
    threw = action == ViolationAction::kQuarantine && violation.is_cfi == cfi;
  } catch (const kernel::KernelPanic&) {
    threw = action == ViolationAction::kPanic;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(slot->depth, depth_before);
  if (nested) engine.UnpinFrame();
  const trace::Counter* deopt =
      trace::GlobalMetrics().GetCounter("guard.deopt");
  const uint64_t deopts = deopt->value();
  EXPECT_FALSE(engine.FastGuard(0x1000, 8, kGuardAccessRead, site));
  EXPECT_EQ(deopt->value(), deopts);
  return ViewOf(engine, kernel);
}

TEST(OutOfLinePinTest, ThrowingDenialsCloseTheirPin) {
  for (const ViolationAction action :
       {ViolationAction::kQuarantine, ViolationAction::kPanic}) {
    for (const bool cfi : {false, true}) {
      const bool panic = action == ViolationAction::kPanic;
      SCOPED_TRACE(testing::Message() << (panic ? "panic" : "quarantine")
                                      << (cfi ? " cfi" : " guard"));
      const AccountingView unpinned = RunThrowingDenial(action, cfi, false);
      const AccountingView nested = RunThrowingDenial(action, cfi, true);
      EXPECT_EQ(unpinned.stats.guard_calls, cfi ? 3u : 4u);
      EXPECT_EQ(unpinned.sequences.size(), 1u);
      ExpectSameAccounting(nested, unpinned);
    }
  }
}

TEST(PinnedAccountingTest, ResetStatsWhilePinnedDropsThePendingBatch) {
  kernel::Kernel kernel;
  PolicyEngine engine(&kernel, PolicyMode::kDefaultAllow);
  trace::Log2Histogram* depth =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  const uint64_t depth_before = depth->count();
  ASSERT_TRUE(engine.PinFrame());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.FastGuard(0x1000, 8, kGuardAccessRead, 0));
  }
  engine.ResetStats();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.FastGuard(0x1000, 8, kGuardAccessRead, 0));
  }
  engine.UnpinFrame();
  EXPECT_EQ(engine.stats().guard_calls, 4u);
  EXPECT_EQ(engine.stats().allowed, 4u);
  // ResetStats leaves the histograms alone: all ten guards stay observed.
  EXPECT_EQ(depth->count() - depth_before, 10u);
  uint64_t hits = 0;
  for (const HotSite& row : engine.HotSites()) hits += row.hits;
  EXPECT_EQ(hits, 4u);
}

TEST_F(EngineTest, RegisterCfiSetsRebasesPerModule) {
  // Two "modules" register independently; ids are engine-global and the
  // returned base rebases each module's local set 0.
  const uint64_t first = engine_.RegisterCfiSets({{0x100}});
  const uint64_t second = engine_.RegisterCfiSets({{0x200}});
  EXPECT_EQ(second, first + 1);
  EXPECT_TRUE(engine_.CfiCheck(0x100, first));
  EXPECT_TRUE(engine_.CfiCheck(0x200, second));
  EXPECT_FALSE(engine_.CfiCheck(0x200, first));
}

TEST_F(EngineTest, ConcurrentGuardsAndMutationsStaySane) {
  // Hammer the engine from reader threads while a writer churns the
  // table; counts must add up and nothing may crash or deadlock.
  engine_.SetMode(PolicyMode::kDefaultAllow);
  constexpr int kReaders = 3;
  constexpr int kGuardsPerReader = 20000;
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    uint64_t i = 0;
    while (!stop.load()) {
      const uint64_t base = 0x100000 + (i % 32) * 0x1000;
      if (engine_.store().Add(Region{base, 0x800, kProtRW}).ok()) {
        (void)engine_.store().Remove(base);
      }
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      // One host thread per simulated CPU, as every per-CPU slot (here the
      // pin each out-of-line Guard opens) requires.
      smp::ScopedCpu cpu(static_cast<uint32_t>(t) + 1);
      Xoshiro256 rng(uint64_t(t) + 1);
      for (int i = 0; i < kGuardsPerReader; ++i) {
        (void)engine_.Guard(0x100000 + rng.NextBelow(32 * 0x1000), 8,
                            kGuardAccessRead);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(engine_.stats().guard_calls,
            uint64_t(kReaders) * kGuardsPerReader);
  EXPECT_EQ(engine_.stats().allowed + engine_.stats().denied,
            engine_.stats().guard_calls);
}

// ------------------------------------------------------- policy module --

class PolicyModuleTest : public ::testing::Test {
 protected:
  PolicyModuleTest() {
    auto module = PolicyModule::Insert(&kernel_);
    EXPECT_TRUE(module.ok());
    module_ = std::move(*module);
    module_->engine().SetViolationAction(ViolationAction::kLogOnly);
  }

  Status Ioctl(uint32_t cmd, std::vector<uint8_t>& arg) {
    return kernel_.devices().Ioctl(kCaratDevicePath, cmd, arg);
  }

  kernel::Kernel kernel_;
  std::unique_ptr<PolicyModule> module_;
};

TEST_F(PolicyModuleTest, ExportsGuardSymbols) {
  EXPECT_TRUE(kernel_.symbols().HasFunction("carat_guard"));
  EXPECT_TRUE(kernel_.symbols().HasFunction("carat_intrinsic_guard"));
  EXPECT_TRUE(kernel_.devices().Exists(kCaratDevicePath));
  EXPECT_TRUE(kernel_.log().Contains("policy module loaded"));
}

TEST_F(PolicyModuleTest, GuardSymbolRoutesToEngine) {
  auto arg = PackArg(CaratRegionArg{0x5000, 0x100, kProtRead, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, arg).ok());
  auto allowed =
      kernel_.symbols().Call("carat_guard", {0x5000, 8, kGuardAccessRead});
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(*allowed, 1u);
  auto denied =
      kernel_.symbols().Call("carat_guard", {0x5000, 8, kGuardAccessWrite});
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(*denied, 0u);
}

TEST_F(PolicyModuleTest, SecondInsertFails) {
  auto second = PolicyModule::Insert(&kernel_);
  EXPECT_FALSE(second.ok());  // carat_guard already exported
}

TEST_F(PolicyModuleTest, RmmodUnexports) {
  module_.reset();
  EXPECT_FALSE(kernel_.symbols().HasFunction("carat_guard"));
  EXPECT_FALSE(kernel_.devices().Exists(kCaratDevicePath));
  // Reinsert works after rmmod.
  auto again = PolicyModule::Insert(&kernel_);
  EXPECT_TRUE(again.ok());
}

TEST_F(PolicyModuleTest, IoctlAddRemoveClearCount) {
  auto add = PackArg(CaratRegionArg{0x1000, 0x100, kProtRW, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add).ok());
  auto add2 = PackArg(CaratRegionArg{0x2000, 0x100, kProtRW, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add2).ok());

  CaratCountArg count;
  auto count_arg = PackArg(count);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_COUNT_REGIONS, count_arg).ok());
  ASSERT_TRUE(UnpackArg(count_arg, &count));
  EXPECT_EQ(count.count, 2u);

  auto remove = PackArg(CaratRegionArg{0x1000, 0, 0, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_REMOVE_REGION, remove).ok());
  std::vector<uint8_t> empty;
  ASSERT_TRUE(Ioctl(KOP_IOCTL_CLEAR_REGIONS, empty).ok());
  count_arg = PackArg(CaratCountArg{});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_COUNT_REGIONS, count_arg).ok());
  ASSERT_TRUE(UnpackArg(count_arg, &count));
  EXPECT_EQ(count.count, 0u);
}

TEST_F(PolicyModuleTest, IoctlListRegions) {
  for (uint64_t i = 0; i < 3; ++i) {
    auto add = PackArg(CaratRegionArg{0x1000 * (i + 1), 0x80, kProtRead, 0});
    ASSERT_TRUE(Ioctl(KOP_IOCTL_ADD_REGION, add).ok());
  }
  CaratListArg list;
  auto list_arg = PackArg(list);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_LIST_REGIONS, list_arg).ok());
  ASSERT_TRUE(UnpackArg(list_arg, &list));
  ASSERT_EQ(list.count, 3u);
  EXPECT_EQ(list.regions[1].base, 0x2000u);
  EXPECT_EQ(list.regions[2].prot, kProtRead);
}

TEST_F(PolicyModuleTest, IoctlSetModeAndStats) {
  auto mode = PackArg(CaratModeArg{1, 0});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_SET_MODE, mode).ok());
  EXPECT_EQ(module_->engine().mode(), PolicyMode::kDefaultAllow);

  (void)module_->engine().Guard(0x1234, 8, kGuardAccessRead);
  CaratStatsArg stats;
  auto stats_arg = PackArg(stats);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_STATS, stats_arg).ok());
  ASSERT_TRUE(UnpackArg(stats_arg, &stats));
  EXPECT_EQ(stats.guard_calls, 1u);
  EXPECT_EQ(stats.allowed, 1u);

  std::vector<uint8_t> empty;
  ASSERT_TRUE(Ioctl(KOP_IOCTL_RESET_STATS, empty).ok());
  stats_arg = PackArg(CaratStatsArg{});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_STATS, stats_arg).ok());
  ASSERT_TRUE(UnpackArg(stats_arg, &stats));
  EXPECT_EQ(stats.guard_calls, 0u);
}

TEST_F(PolicyModuleTest, IoctlIntrinsicControl) {
  auto allow = PackArg(CaratIntrinsicArg{4});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_ALLOW_INTRINSIC, allow).ok());
  EXPECT_TRUE(module_->engine().IntrinsicGuard(4));
  auto deny = PackArg(CaratIntrinsicArg{4});
  ASSERT_TRUE(Ioctl(KOP_IOCTL_DENY_INTRINSIC, deny).ok());
  EXPECT_FALSE(module_->engine().IntrinsicGuard(4));
}

TEST_F(PolicyModuleTest, IoctlGetViolations) {
  (void)module_->engine().Guard(0x1234, 8, kGuardAccessWrite);  // denied
  (void)module_->engine().Guard(0x5678, 2, kGuardAccessRead);   // denied
  CaratViolationsArg reply;
  auto arg = PackArg(reply);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_VIOLATIONS, arg).ok());
  ASSERT_TRUE(UnpackArg(arg, &reply));
  ASSERT_EQ(reply.count, 2u);
  EXPECT_EQ(reply.records[0].addr, 0x1234u);
  EXPECT_EQ(reply.records[0].access_flags, kGuardAccessWrite);
  EXPECT_EQ(reply.records[1].addr, 0x5678u);
  EXPECT_EQ(reply.records[1].size, 2u);
}

TEST_F(PolicyModuleTest, IoctlGetViolationsFlagsCfiDenials) {
  // One memory denial and one CFI miss, both logged (kLogOnly): userspace
  // must tell them apart by the cfi flag, not by guessing from the size.
  PolicyEngine& engine = module_->engine();
  const uint64_t set = engine.RegisterCfiSets({{0x4000}});
  EXPECT_FALSE(engine.Guard(0x1234, 8, kGuardAccessWrite));
  EXPECT_FALSE(engine.CfiCheck(0x5000, set));
  CaratViolationsArg reply;
  auto arg = PackArg(reply);
  ASSERT_TRUE(Ioctl(KOP_IOCTL_GET_VIOLATIONS, arg).ok());
  ASSERT_TRUE(UnpackArg(arg, &reply));
  ASSERT_EQ(reply.count, 2u);
  const CaratViolationArg& memory = reply.records[0];
  EXPECT_EQ(memory.cfi, 0u);
  EXPECT_EQ(memory.intrinsic, 0u);
  EXPECT_EQ(memory.addr, 0x1234u);
  EXPECT_EQ(memory.size, 8u);
  EXPECT_EQ(memory.access_flags, kGuardAccessWrite);
  const CaratViolationArg& cfi = reply.records[1];
  EXPECT_EQ(cfi.cfi, 1u);
  EXPECT_EQ(cfi.intrinsic, 0u);
  EXPECT_EQ(cfi.addr, 0x5000u);
  EXPECT_EQ(cfi.size, set);
  EXPECT_EQ(cfi.access_flags, 0u);
}

TEST_F(PolicyModuleTest, IoctlRejectsBadInput) {
  std::vector<uint8_t> tiny(2);
  EXPECT_FALSE(Ioctl(KOP_IOCTL_ADD_REGION, tiny).ok());
  std::vector<uint8_t> empty;
  EXPECT_FALSE(Ioctl(0x9999, empty).ok());
}

TEST_F(PolicyModuleTest, RegionToStringReadable) {
  const Region region{0x1000, 0x200, kProtRead};
  EXPECT_EQ(region.ToString(), "[0x1000, +0x200) r-");
  const Region rw{0x0, 0x1, kProtRW};
  EXPECT_EQ(rw.ToString(), "[0x0, +0x1) rw");
}

}  // namespace
}  // namespace kop::policy
