// Property-based and differential tests: randomized sweeps checking
// invariants across modules rather than single behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "kop/e1000e/driver.hpp"
#include "kop/kernel/kernel.hpp"
#include "kop/kernel/kmalloc.hpp"
#include "kop/kernel/module_loader.hpp"
#include "kop/kir/kir.hpp"
#include "kop/kirmods/corpus.hpp"
#include "kop/net/packet_gun.hpp"
#include "kop/nic/e1000_device.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/rules.hpp"
#include "kop/signing/sha256.hpp"
#include "kop/signing/signer.hpp"
#include "kop/trace/metrics.hpp"
#include "kop/transform/compiler.hpp"
#include "kop/util/rng.hpp"

namespace kop {
namespace {

// ----------------------------------------- synthetic module round trips --

class SyntheticModuleProperty
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(SyntheticModuleProperty, ParsePrintRoundTripStable) {
  const auto [functions, accesses] = GetParam();
  const std::string source =
      kirmods::SyntheticModuleSource(functions, accesses);
  auto module = kir::ParseModule(source);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ASSERT_TRUE(kir::VerifyModule(**module).ok());
  const std::string once = kir::PrintModule(**module);
  auto reparsed = kir::ParseModule(once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(kir::PrintModule(**reparsed), once);
}

TEST_P(SyntheticModuleProperty, GuardCountEqualsAccessCount) {
  const auto [functions, accesses] = GetParam();
  auto output = transform::CompileModuleText(
      kirmods::SyntheticModuleSource(functions, accesses));
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->attestation.guard_count,
            uint64_t{functions} * accesses);
  EXPECT_TRUE(output->attestation.guards_complete);
  EXPECT_TRUE(kir::VerifyModule(*output->module).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SyntheticModuleProperty,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 16u),
                      std::make_pair(4u, 8u), std::make_pair(16u, 4u),
                      std::make_pair(8u, 32u), std::make_pair(32u, 16u)));

// ------------------------------------- interpreter vs host arithmetic --

struct BinOpCase {
  const char* op;
  kir::Type type;
};

class ArithmeticProperty : public ::testing::TestWithParam<BinOpCase> {};

uint64_t HostEval(const std::string& op, kir::Type type, uint64_t a,
                  uint64_t b) {
  using kir::ClampToType;
  using kir::SignExtend;
  const unsigned bits = kir::BitWidth(type);
  a = ClampToType(a, type);
  b = ClampToType(b, type);
  uint64_t r = 0;
  if (op == "add") r = a + b;
  else if (op == "sub") r = a - b;
  else if (op == "mul") r = a * b;
  else if (op == "and") r = a & b;
  else if (op == "or") r = a | b;
  else if (op == "xor") r = a ^ b;
  else if (op == "shl") r = (b >= bits) ? 0 : a << b;
  else if (op == "lshr") r = (b >= bits) ? 0 : a >> b;
  else if (op == "udiv") r = b == 0 ? 0 : a / b;
  else if (op == "urem") r = b == 0 ? 0 : a % b;
  else if (op == "sdiv")
    r = b == 0 ? 0
               : static_cast<uint64_t>(SignExtend(a, type) /
                                       SignExtend(b, type));
  else if (op == "srem")
    r = b == 0 ? 0
               : static_cast<uint64_t>(SignExtend(a, type) %
                                       SignExtend(b, type));
  return ClampToType(r, type);
}

class NullMemory : public kir::MemoryInterface {
 public:
  Result<uint64_t> Load(uint64_t, uint32_t) override {
    return Internal("no memory");
  }
  Status Store(uint64_t, uint64_t, uint32_t) override {
    return Internal("no memory");
  }
};

class NullResolver : public kir::ExternalResolver {
 public:
  uint64_t Bind(const std::string&) override { return 0; }
  Result<uint64_t> Call(uint64_t, const std::vector<uint64_t>&,
                        uint64_t) override {
    return Internal("no externals");
  }
};

TEST_P(ArithmeticProperty, InterpreterMatchesHostSemantics) {
  const BinOpCase param = GetParam();
  const std::string type_name(kir::TypeName(param.type));
  const std::string source = "module \"m\"\nfunc @f(" + type_name + " %a, " +
                             type_name + " %b) -> " + type_name +
                             " {\nentry:\n  %r = " + param.op + " " +
                             type_name + " %a, %b\n  ret " + type_name +
                             " %r\n}\n";
  auto module = kir::ParseModule(source);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  NullMemory memory;
  NullResolver resolver;
  kir::Interpreter interp(**module, memory, resolver, {});

  Xoshiro256 rng(0xc0ffee);
  for (int i = 0; i < 300; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next();
    // Mix in interesting edge values.
    if (i % 7 == 0) a = 0;
    if (i % 11 == 0) b = 0;
    if (i % 13 == 0) a = ~0ull;
    if (i % 17 == 0) b = 1;
    const bool div_like = std::string(param.op) == "udiv" ||
                          std::string(param.op) == "sdiv" ||
                          std::string(param.op) == "urem" ||
                          std::string(param.op) == "srem";
    auto result = interp.Call("f", {a, b});
    if (div_like && kir::ClampToType(b, param.type) == 0) {
      EXPECT_FALSE(result.ok());
      continue;
    }
    ASSERT_TRUE(result.ok()) << param.op << " a=" << a << " b=" << b;
    EXPECT_EQ(*result, HostEval(param.op, param.type, a, b))
        << param.op << " " << type_name << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ArithmeticProperty,
    ::testing::Values(BinOpCase{"add", kir::Type::kI64},
                      BinOpCase{"add", kir::Type::kI8},
                      BinOpCase{"sub", kir::Type::kI32},
                      BinOpCase{"mul", kir::Type::kI16},
                      BinOpCase{"udiv", kir::Type::kI64},
                      BinOpCase{"sdiv", kir::Type::kI32},
                      BinOpCase{"urem", kir::Type::kI16},
                      BinOpCase{"srem", kir::Type::kI8},
                      BinOpCase{"and", kir::Type::kI64},
                      BinOpCase{"or", kir::Type::kI32},
                      BinOpCase{"xor", kir::Type::kI8},
                      BinOpCase{"shl", kir::Type::kI64},
                      BinOpCase{"shl", kir::Type::kI8},
                      BinOpCase{"lshr", kir::Type::kI32}),
    [](const ::testing::TestParamInfo<BinOpCase>& info) {
      return std::string(info.param.op) + "_" +
             std::string(kir::TypeName(info.param.type));
    });

// ------------------------------- differential region-table sequences --

TEST(PolicyDifferentialProperty, RandomOpsAgreeWithFirstMatchReference) {
  // Drive the engine's table and an in-test reference list through the
  // same random add/remove/clear/check sequence. Regions sit on a
  // quarter-page grid with lengths up to four pages, so overlaps are the
  // norm and first-match order decides; the table also fills to its cap.
  // The reference is the paper's linear first-match scan; every probe
  // checks the engine's index against it three ways: the decision
  // (Check), the scan depth (the policy.lookup_depth a Guard() records)
  // and the inline decision under a frame pin (FastGuard).
  kernel::Kernel kernel;
  policy::PolicyEngine engine(&kernel);
  engine.SetViolationAction(policy::ViolationAction::kLogOnly);
  const trace::Log2Histogram* depth_hist =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  std::vector<policy::Region> reference;  // first-match (insertion) order
  Xoshiro256 rng(2024);
  auto same_region = [](const policy::Region& a, const policy::Region& b) {
    return a.base == b.base && a.len == b.len;
  };

  uint64_t cap_hits = 0;
  uint64_t overlapped_checks = 0;  // probes more than one region covers
  uint64_t deep_matches = 0;       // first match not the nearest base
  for (int step = 0; step < 6000; ++step) {
    const uint64_t roll = rng.NextBelow(1000);
    if (roll < 400) {
      const policy::Region region{0x40000 + rng.NextBelow(64) * 0x400,
                                  0x100 + rng.NextBelow(0x4000),
                                  static_cast<uint32_t>(rng.NextBelow(4))};
      ErrorCode expected = ErrorCode::kOk;
      if (reference.size() == policy::RegionTable64::kMaxRegions) {
        expected = ErrorCode::kNoSpace;
        ++cap_hits;
      } else {
        for (const policy::Region& have : reference) {
          if (same_region(have, region)) expected = ErrorCode::kAlreadyExists;
        }
      }
      ASSERT_EQ(engine.store().Add(region).code(), expected) << step;
      if (expected == ErrorCode::kOk) reference.push_back(region);
    } else if (roll < 550) {
      // Remove by base: the earliest region with that base goes.
      const uint64_t base = 0x40000 + rng.NextBelow(64) * 0x400;
      auto it = std::find_if(
          reference.begin(), reference.end(),
          [base](const policy::Region& r) { return r.base == base; });
      const bool present = it != reference.end();
      ASSERT_EQ(engine.store().Remove(base).ok(), present) << step;
      if (present) reference.erase(it);
    } else if (roll < 551) {
      engine.store().Clear();
      reference.clear();
    } else if (roll < 570) {
      engine.SetMode(engine.mode() == policy::PolicyMode::kDefaultDeny
                         ? policy::PolicyMode::kDefaultAllow
                         : policy::PolicyMode::kDefaultDeny);
    } else {
      const uint64_t addr = 0x40000 + rng.NextBelow(0x14000);
      const uint64_t size = rng.NextBelow(65);  // 0 checks one byte
      const uint64_t flags = 1 + rng.NextBelow(3);  // r, w or rw
      bool expected = engine.mode() == policy::PolicyMode::kDefaultAllow;
      uint64_t expected_depth = reference.size();
      uint64_t nearest_base = 0;
      int covering = 0;
      for (size_t i = 0; i < reference.size(); ++i) {
        const policy::Region& region = reference[i];
        if (!region.Contains(addr, size)) continue;
        if (covering++ == 0) {
          expected = region.Allows(flags);
          expected_depth = i + 1;
        }
        nearest_base = std::max(nearest_base, region.base);
      }
      if (covering > 1) ++overlapped_checks;
      if (covering > 0 && reference[expected_depth - 1].base != nearest_base) {
        ++deep_matches;
      }
      EXPECT_EQ(engine.Check(addr, size, flags), expected)
          << "step " << step << " addr=0x" << std::hex << addr
          << " size=0x" << size << " flags=" << flags;

      const double depth0 = depth_hist->sum();
      EXPECT_EQ(engine.Guard(addr, size, flags), expected) << step;
      EXPECT_EQ(depth_hist->sum() - depth0,
                static_cast<double>(expected_depth))
          << "step " << step << " addr=0x" << std::hex << addr
          << " size=0x" << size;

      ASSERT_TRUE(engine.PinFrame());
      EXPECT_EQ(engine.FastGuard(addr, size, flags, 0), expected) << step;
      engine.UnpinFrame();
    }
    const std::vector<policy::Region> snapshot = engine.store().Snapshot();
    ASSERT_EQ(snapshot.size(), reference.size()) << step;
    for (size_t i = 0; i < snapshot.size(); ++i) {
      ASSERT_TRUE(same_region(snapshot[i], reference[i])) << step;
    }
  }
  // The sequence must actually exercise the cap, overlap resolution, and
  // first matches the nearest base would get wrong.
  EXPECT_GT(cap_hits, 0u);
  EXPECT_GT(overlapped_checks, 100u);
  EXPECT_GT(deep_matches, 100u);
}

// ------------------------------------------- pinned verdict windows --

/// The paper's linear first-match scan over `regions` (table order): the
/// match's position + 1 and its protection, or the region count and no
/// protection on a miss.
struct FirstMatch {
  uint64_t depth = 0;
  std::optional<uint32_t> prot;
};
FirstMatch FirstMatchDepth(const std::vector<policy::Region>& regions,
                           uint64_t addr, uint64_t size) {
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].Contains(addr, size)) return {i + 1, regions[i].prot};
  }
  return {regions.size(), std::nullopt};
}

TEST(PolicyWindowProperty, PinnedDecisionsMatchFirstMatchAcrossWindows) {
  // Random tables — disjoint, overlapping, nested, equal-base and
  // top-of-space regions — and random access streams inside long pins:
  // repeats, region and gap edges, straddles, size 0 and 8. Tables and
  // the mode change between pins and mid-pin. Every decision, inline or
  // re-decided out of line after a deopt, must give the reference
  // verdict and depth and account exactly one decision (stats, site row,
  // both histograms; pending batches included); Check must agree.
  kernel::Kernel kernel;
  policy::PolicyEngine engine(&kernel);
  engine.SetViolationAction(policy::ViolationAction::kLogOnly);
  trace::Log2Histogram* depth_hist =
      trace::GlobalMetrics().GetHistogram("policy.lookup_depth");
  trace::Log2Histogram* latency_hist =
      trace::GlobalMetrics().GetHistogram("guard.latency_cycles");
  trace::SiteInfo info;
  info.module_name = "window_property";
  info.function = "probe";
  const uint64_t site = trace::GlobalSites().Register(info);
  constexpr uint64_t kLow = 0x100000;
  constexpr uint64_t kTop = ~uint64_t{0};
  std::vector<policy::Region> reference;
  Xoshiro256 rng(4242);

  auto random_region = [&]() -> policy::Region {
    const uint32_t prot = static_cast<uint32_t>(rng.NextBelow(4));
    switch (rng.NextBelow(reference.empty() ? 2 : 5)) {
      case 0:  // a grid slot: disjoint from every other grid slot
        return {kLow + rng.NextBelow(64) * 0x1000, 0x800, prot};
      case 1:  // anywhere in the low zone: overlaps are common
        return {kLow + rng.NextBelow(0x40000), 1 + rng.NextBelow(0x1000),
                prot};
      case 2: {  // nested inside an existing region
        const policy::Region& outer =
            reference[rng.NextBelow(reference.size())];
        const uint64_t off = rng.NextBelow(outer.len);
        return {outer.base + off, 1 + rng.NextBelow(outer.len - off), prot};
      }
      case 3: {  // an existing region's base, another length
        const uint64_t base = reference[rng.NextBelow(reference.size())].base;
        return {base, 1 + rng.NextBelow(std::min<uint64_t>(0x2000, kTop - base)),
                prot};
      }
      default: {  // near or right at 2^64 - 1 (2^64 would wrap)
        const uint64_t base = kTop - 1 - rng.NextBelow(0x8000);
        const uint64_t room = kTop - base;
        return {base,
                rng.NextBelow(4) == 0
                    ? room
                    : 1 + rng.NextBelow(std::min<uint64_t>(0x800, room)),
                prot};
      }
    }
  };
  auto mutate = [&] {
    if (rng.NextBelow(2) != 0 || reference.empty()) {
      const policy::Region region = random_region();
      ErrorCode expected = ErrorCode::kOk;
      if (reference.size() == policy::RegionTable64::kMaxRegions) {
        expected = ErrorCode::kNoSpace;
      } else {
        for (const policy::Region& have : reference) {
          if (have.base == region.base && have.len == region.len) {
            expected = ErrorCode::kAlreadyExists;
          }
        }
      }
      ASSERT_EQ(engine.store().Add(region).code(), expected);
      if (expected == ErrorCode::kOk) reference.push_back(region);
    } else {
      const uint64_t base = reference[rng.NextBelow(reference.size())].base;
      ASSERT_TRUE(engine.store().Remove(base).ok());
      reference.erase(std::find_if(
          reference.begin(), reference.end(),
          [base](const policy::Region& r) { return r.base == base; }));
    }
  };
  auto flip_mode = [&] {
    engine.SetMode(engine.mode() == policy::PolicyMode::kDefaultDeny
                       ? policy::PolicyMode::kDefaultAllow
                       : policy::PolicyMode::kDefaultDeny);
  };

  uint64_t prev_addr = kLow;
  uint64_t prev_size = 8;
  auto next_probe = [&](uint64_t* addr, uint64_t* size) {
    static constexpr uint64_t kSizes[] = {0, 1, 8, 8, 8, 64, 0x1000};
    *size = kSizes[rng.NextBelow(std::size(kSizes))];
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 50) {  // the same access or a near one
      *addr = prev_addr + rng.NextBelow(16) - 8;
      if (roll < 35) *size = prev_size;
    } else if (roll < 80 && !reference.empty()) {
      // At, just inside, just past or straddling a region's edges, which
      // are its gaps' edges too.
      const policy::Region& r = reference[rng.NextBelow(reference.size())];
      const uint64_t end = r.base + r.len;
      const uint64_t span = *size == 0 ? 1 : *size;
      const uint64_t edges[] = {r.base - 1, r.base, r.base - span + 1,
                                end - span, end - span + 1, end - 1, end};
      *addr = edges[rng.NextBelow(std::size(edges))];
    } else if (roll < 90) {
      *addr = kLow - 0x1000 + rng.NextBelow(0x42000);
    } else if (roll < 98) {
      *addr = kTop - rng.NextBelow(0x9000);
    } else {
      *addr = rng.Next();
    }
    prev_addr = *addr;
    prev_size = *size;
  };

  uint64_t decisions = 0;
  uint64_t allows = 0;
  uint64_t denials = 0;
  uint64_t window_hits[2] = {0, 0};  // [gap, region]
  const policy::GuardStats stats0 = engine.stats();
  const uint64_t latency0 = latency_hist->count();
  const uint64_t depth_count0 = depth_hist->count();
  const double depth_sum0 = depth_hist->sum();
  double depth_total = 0;
  auto site_row = [&]() {
    for (const policy::HotSite& row : engine.HotSites()) {
      if (row.site == site) return row;
    }
    return policy::HotSite{};
  };

  for (int round = 0; round < 400; ++round) {
    for (uint64_t k = rng.NextBelow(4); k > 0; --k) mutate();
    if (rng.NextBelow(8) == 0) flip_mode();
    guard::PinSlot* pin = engine.PinCpu();
    for (int step = 0; step < 80; ++step) {
      const uint64_t roll = rng.NextBelow(100);
      if (roll < 3) mutate();
      if (roll == 3) flip_mode();
      uint64_t addr = 0;
      uint64_t size = 0;
      uint64_t flags = 1 + rng.NextBelow(3);
      next_probe(&addr, &size);
      const FirstMatch want = FirstMatchDepth(reference, addr, size);
      const bool want_allowed =
          want.prot.has_value()
              ? (*want.prot & flags) == flags
              : engine.mode() == policy::PolicyMode::kDefaultAllow;
      // Counts how often the window, as the pin left it, would answer.
      if (pin->window.range.Holds(addr, size) &&
          pin->window.generation ==
              pin->frame->store_generation) {
        ++window_hits[pin->window.match ? 1 : 0];
      }
      const size_t bucket = std::min<size_t>(std::bit_width(want.depth),
                                             trace::Log2Buckets::kBuckets - 1);
      const uint64_t bucket0 = depth_hist->bucket(bucket);
      const double owed0 =
          depth_hist->sum() + static_cast<double>(pin->depth_sum);

      bool allowed = engine.FastGuard(addr, size, flags, site);
      if (!allowed) {
        trace::ScopedGuardSite scope(site);
        allowed = engine.Guard(addr, size, flags);
      }
      ++decisions;
      ++(allowed ? allows : denials);
      depth_total += static_cast<double>(want.depth);
      const std::string where = "round " + std::to_string(round) +
                                " step " + std::to_string(step) +
                                " addr " + std::to_string(addr) + " size " +
                                std::to_string(size);
      ASSERT_EQ(allowed, want_allowed) << where;
      ASSERT_EQ(engine.Check(addr, size, flags), want_allowed) << where;
      ASSERT_EQ(depth_hist->bucket(bucket), bucket0 + 1) << where;
      ASSERT_EQ(depth_hist->sum() + static_cast<double>(pin->depth_sum) -
                    owed0,
                static_cast<double>(want.depth))
          << where;
      const policy::GuardStats stats = engine.stats();
      ASSERT_EQ(stats.guard_calls + pin->allowed_batch - stats0.guard_calls,
                decisions)
          << where;
      ASSERT_EQ(stats.allowed + pin->allowed_batch - stats0.allowed, allows)
          << where;
      ASSERT_EQ(stats.denied - stats0.denied, denials) << where;
      ASSERT_EQ(latency_hist->count() + pin->allowed_batch - latency0,
                decisions)
          << where;
      const policy::HotSite row = site_row();
      ASSERT_EQ(row.hits, decisions) << where;
      ASSERT_EQ(row.denied, denials) << where;
    }
    engine.UnpinFrame();
    // Unpinned, nothing is owed: the folded values are exact.
    const policy::GuardStats stats = engine.stats();
    ASSERT_EQ(stats.guard_calls - stats0.guard_calls, decisions);
    ASSERT_EQ(stats.allowed - stats0.allowed, allows);
    ASSERT_EQ(latency_hist->count() - latency0, decisions);
    ASSERT_EQ(depth_hist->count() - depth_count0, decisions);
    ASSERT_EQ(depth_hist->sum() - depth_sum0, depth_total);
  }
  // The stream must lean on both kinds of window, and deny as well.
  EXPECT_GT(window_hits[0], 2000u);
  EXPECT_GT(window_hits[1], 500u);
  EXPECT_GT(denials, 1000u);
}

// -------------------------------------------------- kmalloc invariants --

TEST(KmallocProperty, RandomAllocFreeNeverOverlapsAndConserves) {
  kernel::KmallocArena arena(0x100000, 1 << 20);
  Xoshiro256 rng(77);
  std::map<uint64_t, uint64_t> live;  // addr -> size
  uint64_t live_bytes = 0;

  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.NextBernoulli(0.6)) {
      const uint64_t size = 8 + rng.NextBelow(4096);
      auto addr = arena.Kmalloc(size);
      if (!addr.ok()) continue;  // exhaustion is legal
      const uint64_t rounded = (size + 7) & ~7ull;
      // In-range.
      ASSERT_GE(*addr, arena.base());
      ASSERT_LE(*addr + rounded, arena.base() + arena.size());
      // No overlap with any live allocation.
      for (const auto& [base, len] : live) {
        ASSERT_FALSE(RangesOverlap(*addr, rounded, base, len))
            << "overlap at step " << step;
      }
      live[*addr] = rounded;
      live_bytes += rounded;
    } else {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      ASSERT_TRUE(arena.Kfree(it->first).ok());
      live_bytes -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(arena.Stats().allocated_bytes, live_bytes);
    ASSERT_EQ(arena.Stats().allocation_count, live.size());
  }
  // Free everything: the arena must coalesce back to one chunk.
  for (const auto& [base, len] : live) ASSERT_TRUE(arena.Kfree(base).ok());
  EXPECT_EQ(arena.Stats().largest_free_chunk, arena.size());
}

// ------------------------------------------------ sha256 chunking prop --

TEST(Sha256Property, ArbitraryChunkingMatchesOneShot) {
  Xoshiro256 rng(5);
  std::string message;
  for (int i = 0; i < 4096; ++i) {
    message.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  const auto expected = signing::Sha256::Hash(message);
  for (int trial = 0; trial < 30; ++trial) {
    signing::Sha256 hasher;
    size_t pos = 0;
    while (pos < message.size()) {
      const size_t chunk =
          std::min(message.size() - pos, 1 + rng.NextBelow(300));
      hasher.Update(message.substr(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(hasher.Finish(), expected) << "trial " << trial;
  }
}

// ---------------------------------- guard-opt semantic preservation --

TEST(GuardOptProperty, OptimizedModuleComputesSameResults) {
  // Compile memcopy twice (unoptimized / dominated guards), load both
  // into kernels with permissive policies, and check the module's
  // observable behaviour is identical.
  auto run = [&](bool optimize) -> std::vector<uint64_t> {
    transform::CompileOptions options;
    options.dominate_guards = optimize;
    options.coalesce_guards = optimize;
    auto compiled =
        transform::CompileModuleText(kirmods::MemcopySource(), options);
    EXPECT_TRUE(compiled.ok());
    auto image = signing::SignModule(compiled->text, compiled->attestation,
                                     signing::SigningKey::DevelopmentKey());
    kernel::Kernel kernel;
    signing::Keyring keyring;
    keyring.Trust(signing::SigningKey::DevelopmentKey());
    kernel::ModuleLoader loader(&kernel, keyring);
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(policy.ok());
    auto loaded = loader.Insmod(image);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::vector<uint64_t> outputs;
    EXPECT_TRUE((*loaded)->Call("fill", {64, 3}).ok());
    auto copied = (*loaded)->Call("copy", {64});
    EXPECT_TRUE(copied.ok());
    outputs.push_back(*copied);
    auto checksum = (*loaded)->Call("checksum", {64});
    EXPECT_TRUE(checksum.ok());
    outputs.push_back(*checksum);
    return outputs;
  };
  EXPECT_EQ(run(false), run(true));
}

// -------------------------------------------- robustness (fuzz-style) --

TEST(RobustnessProperty, MutatedModuleTextNeverCrashesTheToolchain) {
  // Random single-byte mutations of valid module text: the parser +
  // verifier must either reject cleanly or accept a still-verifiable
  // module — never crash, hang or accept garbage IR.
  Xoshiro256 rng(31337);
  const std::string original = kirmods::RingbufSource();
  int parsed_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = original;
    const int edits = 1 + static_cast<int>(rng.NextBelow(3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:  // flip to random printable byte
          mutated[pos] = static_cast<char>(0x20 + rng.NextBelow(95));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // duplicate
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    auto module = kir::ParseModule(mutated);
    if (module.ok() && kir::VerifyModule(**module).ok()) {
      ++parsed_ok;
      // Anything the verifier accepts must print/reparse stably.
      const std::string printed = kir::PrintModule(**module);
      auto reparsed = kir::ParseModule(printed);
      ASSERT_TRUE(reparsed.ok()) << "trial " << trial;
    }
  }
  // Some mutations (comments, names) legitimately survive.
  EXPECT_GE(parsed_ok, 0);
}

TEST(RobustnessProperty, MutatedContainersNeverValidate) {
  // Any mutation of a signed container must be rejected by the validator
  // (or fail to deserialize) — and must never crash it.
  auto compiled = transform::CompileModuleText(kirmods::RingbufSource());
  ASSERT_TRUE(compiled.ok());
  const auto image =
      signing::SignModule(compiled->text, compiled->attestation,
                          signing::SigningKey::DevelopmentKey());
  const std::string container = image.Serialize();
  signing::Keyring keyring;
  keyring.Trust(signing::SigningKey::DevelopmentKey());

  Xoshiro256 rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = container;
    const size_t pos = rng.NextBelow(mutated.size());
    const char before = mutated[pos];
    mutated[pos] = static_cast<char>(rng.Next() & 0xff);
    if (mutated[pos] == before) continue;
    auto parsed = signing::SignedModule::Deserialize(mutated);
    if (!parsed.ok()) continue;  // framing broken: fine
    auto validated = signing::ValidateSignedModule(*parsed, keyring);
    EXPECT_FALSE(validated.ok())
        << "mutation at " << pos << " slipped past the validator";
  }
}

TEST(RobustnessProperty, RandomRuleFilesNeverCrashParser) {
  kernel::Kernel kernel;
  const auto names = policy::DefaultNamedRanges(kernel);
  Xoshiro256 rng(99991);
  const char* words[] = {"mode",  "allow", "deny",   "restrict", "intrinsic",
                         "rw",    "r",     "w",      "none",     "0x1000",
                         "+0x10", "cli",   "kernel-half", "#x",  "0x1-0x2"};
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const int lines = 1 + static_cast<int>(rng.NextBelow(5));
    for (int l = 0; l < lines; ++l) {
      const int tokens = static_cast<int>(rng.NextBelow(5));
      for (int t = 0; t < tokens; ++t) {
        text += words[rng.NextBelow(std::size(words))];
        text += ' ';
      }
      text += '\n';
    }
    auto spec = policy::ParsePolicyRules(text, names);
    if (spec.ok()) {
      // Whatever parses must apply cleanly to a fresh engine.
      policy::PolicyEngine engine(&kernel);
      (void)policy::ApplyPolicySpec(*spec, engine);
    }
  }
  SUCCEED();
}

// ------------------------------- simplify semantic-preservation prop --

TEST(SimplifyProperty, SimplifiedSyntheticModulesComputeSameResults) {
  // Random synthetic modules (straight-line arithmetic over a global)
  // must compute identical results before and after SimplifyPass, and
  // after guard injection on top.
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    const std::string source =
        kirmods::SyntheticModuleSource(3, 8 + seed * 2);
    auto run = [&](bool simplify) -> std::vector<uint64_t> {
      transform::CompileOptions options;
      options.simplify = simplify;
      auto compiled = transform::CompileModuleText(source, options);
      EXPECT_TRUE(compiled.ok());
      auto image = signing::SignModule(compiled->text,
                                       compiled->attestation,
                                       signing::SigningKey::DevelopmentKey());
      kernel::Kernel kernel;
      signing::Keyring keyring;
      keyring.Trust(signing::SigningKey::DevelopmentKey());
      kernel::ModuleLoader loader(&kernel, keyring);
      auto policy = policy::PolicyModule::Insert(
          &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
      EXPECT_TRUE(policy.ok());
      auto loaded = loader.Insmod(image);
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::vector<uint64_t> outputs;
      for (uint64_t arg : {0ull, 1ull, 42ull, ~0ull}) {
        auto result = (*loaded)->Call("work0", {arg});
        EXPECT_TRUE(result.ok());
        outputs.push_back(result.value_or(0));
        auto result2 = (*loaded)->Call("work2", {arg});
        EXPECT_TRUE(result2.ok());
        outputs.push_back(result2.value_or(0));
      }
      return outputs;
    };
    EXPECT_EQ(run(false), run(true)) << "seed " << seed;
  }
}

// ------------------------------------ driver wire-equality over sizes --

class WireEqualityProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WireEqualityProperty, BaselineAndCaratEmitIdenticalFrames) {
  const uint32_t size = GetParam();
  auto run = [&](bool guarded) -> std::vector<uint8_t> {
    kernel::Kernel kernel;
    nic::CountingSink sink{/*retain=*/16};
    nic::E1000Device device(&kernel.mem(), &sink);
    EXPECT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultAllow);
    EXPECT_TRUE(policy.ok());
    auto frame_addr = kernel.heap().Kmalloc(2048, 64);
    EXPECT_TRUE(frame_addr.ok());
    std::vector<uint8_t> bytes(size);
    for (uint32_t i = 0; i < size; ++i) bytes[i] = uint8_t(i * 7 + 1);
    EXPECT_TRUE(kernel.mem().Write(*frame_addr, bytes.data(), size).ok());
    if (guarded) {
      auto driver = e1000e::CaratDriver::Probe(
          e1000e::GuardedMemOps(&kernel, &(*policy)->engine()),
          kernel::kVmallocBase);
      EXPECT_TRUE(driver.ok());
      EXPECT_TRUE(driver->XmitFrame(*frame_addr, size).ok());
    } else {
      auto driver = e1000e::BaselineDriver::Probe(e1000e::RawMemOps(&kernel),
                                                  kernel::kVmallocBase);
      EXPECT_TRUE(driver.ok());
      EXPECT_TRUE(driver->XmitFrame(*frame_addr, size).ok());
    }
    EXPECT_EQ(sink.packets(), 1u);
    return sink.RecentFrames()[0];
  };
  EXPECT_EQ(run(false), run(true)) << "size " << size;
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireEqualityProperty,
                         ::testing::Values(14u, 20u, 59u, 60u, 61u, 64u,
                                           127u, 128u, 129u, 256u, 512u,
                                           1024u, 1500u, 1514u));

// --------------------------------------- throughput overhead property --

class OverheadProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OverheadProperty, GuardOverheadScalesWithRegionCountButStaysSmall) {
  const uint32_t regions = GetParam();
  auto measure = [&](bool guarded) -> double {
    kernel::Kernel kernel;
    nic::CountingSink sink;
    nic::E1000Device device(&kernel.mem(), &sink);
    EXPECT_TRUE(device.MapAt(kernel::kVmallocBase).ok());
    auto policy = policy::PolicyModule::Insert(
        &kernel, nullptr, policy::PolicyMode::kDefaultDeny);
    EXPECT_TRUE(policy.ok());
    // First region allows the whole kernel half; the rest are far-away
    // decoys so the scan length is `regions`.
    EXPECT_TRUE((*policy)
                    ->engine()
                    .store()
                    .Add(policy::Region{kernel::kKernelHalfBase,
                                        ~0ull - kernel::kKernelHalfBase,
                                        policy::kProtRW})
                    .ok());
    for (uint32_t i = 1; i < regions; ++i) {
      EXPECT_TRUE((*policy)
                      ->engine()
                      .store()
                      .Add(policy::Region{0x1000 + i * 0x10000, 0x100,
                                          policy::kProtRead})
                      .ok());
    }
    net::TrialConfig config;
    config.packets = 400;
    config.frame_bytes = 128;
    double cycles = 0.0;
    if (guarded) {
      auto driver = e1000e::CaratDriver::Probe(
          e1000e::GuardedMemOps(&kernel, &(*policy)->engine()),
          kernel::kVmallocBase);
      EXPECT_TRUE(driver.ok());
      net::DriverNetDevice<e1000e::CaratDriver> netdev(&*driver);
      net::PacketSocket socket(&kernel, &netdev, 5);
      socket.set_noise_enabled(false);
      net::PacketGun gun(&kernel, &socket);
      auto trial = gun.RunTrial(config);
      EXPECT_TRUE(trial.ok());
      cycles = trial->cycles_per_packet;
    } else {
      auto driver = e1000e::BaselineDriver::Probe(e1000e::RawMemOps(&kernel),
                                                  kernel::kVmallocBase);
      EXPECT_TRUE(driver.ok());
      net::DriverNetDevice<e1000e::BaselineDriver> netdev(&*driver);
      net::PacketSocket socket(&kernel, &netdev, 5);
      socket.set_noise_enabled(false);
      net::PacketGun gun(&kernel, &socket);
      auto trial = gun.RunTrial(config);
      EXPECT_TRUE(trial.ok());
      cycles = trial->cycles_per_packet;
    }
    return cycles;
  };

  const double baseline = measure(false);
  const double carat = measure(true);
  const double overhead = (carat - baseline) / baseline;
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 0.01) << "regions=" << regions;  // paper: <1%
}

INSTANTIATE_TEST_SUITE_P(Regions, OverheadProperty,
                         ::testing::Values(1u, 2u, 8u, 16u, 32u, 64u));

}  // namespace
}  // namespace kop
