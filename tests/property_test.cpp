// Property-based and differential tests: randomized sweeps checking
// invariants across modules rather than single behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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
  engine.SetChargeCycles(false);
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
