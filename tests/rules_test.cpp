// The policy rules language: parsing, application, rendering, and the
// end-to-end "operator writes a firewall file" flow.
#include <gtest/gtest.h>

#include "kop/kernel/kernel.hpp"
#include "kop/policy/policy_module.hpp"
#include "kop/policy/rules.hpp"
#include "kop/transform/privileged.hpp"
#include "kop/util/carat_abi.hpp"

namespace kop::policy {
namespace {

class RulesTest : public ::testing::Test {
 protected:
  RulesTest() : names_(DefaultNamedRanges(kernel_)) {
    auto module = PolicyModule::Insert(&kernel_);
    EXPECT_TRUE(module.ok());
    module_ = std::move(*module);
    module_->engine().SetViolationAction(ViolationAction::kLogOnly);
  }

  Result<PolicySpec> Parse(const std::string& text) {
    return ParsePolicyRules(text, names_);
  }

  kernel::Kernel kernel_;
  NamedRanges names_;
  std::unique_ptr<PolicyModule> module_;
};

TEST_F(RulesTest, ParsesModeLine) {
  auto allow = Parse("mode allow\n");
  ASSERT_TRUE(allow.ok());
  EXPECT_TRUE(allow->mode_set);
  EXPECT_EQ(allow->mode, PolicyMode::kDefaultAllow);
  auto deny = Parse("mode deny\n");
  ASSERT_TRUE(deny.ok());
  EXPECT_EQ(deny->mode, PolicyMode::kDefaultDeny);
  EXPECT_FALSE(Parse("mode maybe\n").ok());
  EXPECT_FALSE(Parse("mode\n").ok());
}

TEST_F(RulesTest, ParsesExplicitRanges) {
  auto spec = Parse(
      "allow 0x1000 +0x100 r\n"
      "allow 0x2000-0x3000 w\n"
      "deny 0x4000 +0x10\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->regions.size(), 3u);
  EXPECT_EQ(spec->regions[0].base, 0x1000u);
  EXPECT_EQ(spec->regions[0].len, 0x100u);
  EXPECT_EQ(spec->regions[0].prot, kProtRead);
  EXPECT_EQ(spec->regions[1].base, 0x2000u);
  EXPECT_EQ(spec->regions[1].len, 0x1000u);
  EXPECT_EQ(spec->regions[1].prot, kProtWrite);
  EXPECT_EQ(spec->regions[2].prot, kProtNone);
}

TEST_F(RulesTest, ParsesNamedRanges) {
  auto spec = Parse("allow kernel-half rw\ndeny user-half\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->regions.size(), 2u);
  EXPECT_EQ(spec->regions[0].base, kernel::kKernelHalfBase);
  EXPECT_EQ(spec->regions[1].base, 0u);
  EXPECT_EQ(spec->regions[1].len, kernel::kUserSpaceEnd);
}

TEST_F(RulesTest, AllowDefaultsToReadWrite) {
  auto spec = Parse("allow module-area\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->regions[0].prot, kProtRW);
}

TEST_F(RulesTest, CommentsAndBlanksIgnored) {
  auto spec = Parse(
      "# a policy file\n"
      "\n"
      "mode deny   # trailing comment\n"
      "allow direct-map r  # read-only heap\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->regions.size(), 1u);
}

TEST_F(RulesTest, ParsesIntrinsicRules) {
  auto spec = Parse(
      "intrinsic allow wrmsr\n"
      "intrinsic deny kir.cli\n"
      "intrinsic deny 8\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->intrinsics.size(), 3u);
  EXPECT_TRUE(spec->intrinsics[0].allow);
  EXPECT_EQ(spec->intrinsics[0].intrinsic_id,
            static_cast<uint64_t>(transform::PrivilegedIntrinsic::kWrmsr));
  EXPECT_FALSE(spec->intrinsics[1].allow);
  EXPECT_EQ(spec->intrinsics[1].intrinsic_id,
            static_cast<uint64_t>(transform::PrivilegedIntrinsic::kCli));
  EXPECT_EQ(spec->intrinsics[2].intrinsic_id, 8u);
}

TEST_F(RulesTest, ErrorsCarryLineNumbers) {
  const auto result = Parse("mode deny\nfrobnicate everything\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST_F(RulesTest, RejectsMalformedRanges) {
  EXPECT_FALSE(Parse("allow\n").ok());
  EXPECT_FALSE(Parse("allow 0x1000\n").ok());            // missing +len
  EXPECT_FALSE(Parse("allow 0x3000-0x2000 rw\n").ok());  // end <= base
  EXPECT_FALSE(Parse("allow 0x1000 +0 rw\n").ok());      // empty
  EXPECT_FALSE(Parse("allow nowhere-land rw\n").ok());
  EXPECT_FALSE(Parse("deny 0x1000 +0x10 rw\n").ok());    // deny takes no prot
  EXPECT_FALSE(Parse("restrict 0x1000 +0x10\n").ok());   // restrict needs one
  EXPECT_FALSE(Parse("allow 0x1000 +0x10 rwx\n").ok());
  EXPECT_FALSE(Parse("intrinsic allow levitate\n").ok());
}

TEST_F(RulesTest, RejectsSignedAndOverflowingNumbers) {
  // strtoull would read these as 0xfffffffffffff000, a length of
  // 0xfffffffffffffff0 and a saturated 0xffffffffffffffff.
  EXPECT_FALSE(Parse("allow -4096 +16 r\n").ok());
  EXPECT_FALSE(Parse("allow 0x1000 +-16 r\n").ok());
  EXPECT_FALSE(Parse("allow 0x1000 +99999999999999999999999 r\n").ok());
  EXPECT_FALSE(Parse("allow 0x1000-+0x2000 r\n").ok());
  EXPECT_FALSE(Parse("allow 0x1000 ++16 r\n").ok());
  EXPECT_FALSE(Parse("intrinsic allow -1\n").ok());
  // The largest values that fit still parse.
  auto top = Parse("allow 0xfffffffffffff000 +4095 r\n");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->regions.size(), 1u);
  EXPECT_EQ(top->regions[0].base, 0xfffffffffffff000u);
  EXPECT_EQ(top->regions[0].len, 4095u);
  EXPECT_TRUE(Parse("allow 0x1000 +18446744073709547519 r\n").ok());
}

TEST_F(RulesTest, ApplyConfiguresEngine) {
  auto spec = Parse(
      "mode allow\n"
      "deny user-half\n"
      "allow direct-map r\n"
      "intrinsic deny cli\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ApplyPolicySpec(*spec, module_->engine()).ok());

  auto& engine = module_->engine();
  EXPECT_EQ(engine.mode(), PolicyMode::kDefaultAllow);
  EXPECT_EQ(engine.store().Size(), 2u);
  // user half: denied.
  EXPECT_FALSE(engine.Check(0x400000, 8, kGuardAccessRead));
  // direct map: read ok, write blocked.
  EXPECT_TRUE(engine.Check(kernel_.direct_map_base(), 8, kGuardAccessRead));
  EXPECT_FALSE(engine.Check(kernel_.direct_map_base(), 8, kGuardAccessWrite));
  // untouched kernel text region: default-allow.
  EXPECT_TRUE(engine.Check(kernel_.kernel_text_base(), 8, kGuardAccessRead));
  // intrinsic table.
  EXPECT_FALSE(engine.IntrinsicGuard(
      static_cast<uint64_t>(transform::PrivilegedIntrinsic::kCli)));
}

TEST_F(RulesTest, ApplyReplacesPreviousPolicy) {
  ASSERT_TRUE(module_->engine()
                  .store()
                  .Add(Region{0x9000, 0x100, kProtRW})
                  .ok());
  auto spec = Parse("mode deny\nallow module-area rw\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ApplyPolicySpec(*spec, module_->engine()).ok());
  EXPECT_EQ(module_->engine().store().Size(), 1u);
  EXPECT_FALSE(module_->engine().Check(0x9000, 8, kGuardAccessRead));
}

TEST_F(RulesTest, FileOrderIsMatchOrder) {
  // First-match semantics: the earlier, more specific rule wins.
  auto spec = Parse(
      "mode deny\n"
      "deny 0xffff888000000000 +0x1000\n"   // carve-out first
      "allow direct-map rw\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ApplyPolicySpec(*spec, module_->engine()).ok());
  EXPECT_FALSE(module_->engine().Check(0xffff888000000800ull, 8,
                                       kGuardAccessRead));
  EXPECT_TRUE(module_->engine().Check(0xffff888000002000ull, 8,
                                      kGuardAccessWrite));
}

TEST_F(RulesTest, RenderRoundTrips) {
  auto spec = Parse(
      "mode allow\n"
      "allow 0x1000 +0x100 r\n"
      "deny 0x2000 +0x200\n"
      "allow 0x3000 +0x300 rw\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ApplyPolicySpec(*spec, module_->engine()).ok());
  const std::string rendered = RenderPolicyRules(module_->engine());

  // Re-parse and re-apply onto a fresh engine: identical behaviour.
  auto reparsed = Parse(rendered);
  ASSERT_TRUE(reparsed.ok()) << rendered;
  EXPECT_EQ(reparsed->regions.size(), spec->regions.size());
  for (size_t i = 0; i < spec->regions.size(); ++i) {
    EXPECT_EQ(reparsed->regions[i].base, spec->regions[i].base);
    EXPECT_EQ(reparsed->regions[i].len, spec->regions[i].len);
    EXPECT_EQ(reparsed->regions[i].prot, spec->regions[i].prot);
  }
  EXPECT_EQ(reparsed->mode, spec->mode);
}

TEST_F(RulesTest, SynthesizeCoalescesPagesAndUnionsFlags) {
  std::vector<ViolationRecord> trace{
      {0x10000, 8, kGuardAccessRead, 1, false},
      {0x10800, 8, kGuardAccessWrite, 2, false},   // same page: union
      {0x11000, 8, kGuardAccessRead | kGuardAccessWrite, 3, false},
      {0x13000, 4, kGuardAccessRead, 4, false},    // gap -> new region
      {0x13ffe, 4, kGuardAccessRead, 5, false},    // straddles into 0x14xxx
  };
  const PolicySpec spec = SynthesizePolicy(trace, 4096);
  EXPECT_EQ(spec.mode, PolicyMode::kDefaultDeny);
  ASSERT_EQ(spec.regions.size(), 2u);
  // Pages 0x10 and 0x11 coalesce (both end up rw).
  EXPECT_EQ(spec.regions[0].base, 0x10000u);
  EXPECT_EQ(spec.regions[0].len, 0x2000u);
  EXPECT_EQ(spec.regions[0].prot, kProtRW);
  // Pages 0x13 and 0x14 coalesce (both r).
  EXPECT_EQ(spec.regions[1].base, 0x13000u);
  EXPECT_EQ(spec.regions[1].len, 0x2000u);
  EXPECT_EQ(spec.regions[1].prot, kProtRead);
}

TEST_F(RulesTest, SynthesizeHandlesIntrinsics) {
  std::vector<ViolationRecord> trace{
      {1 /*cli*/, 0, 0, 1, true},
      {4 /*wrmsr*/, 0, 0, 2, true},
      {1, 0, 0, 3, true},  // duplicate
  };
  const PolicySpec spec = SynthesizePolicy(trace);
  EXPECT_TRUE(spec.regions.empty());
  ASSERT_EQ(spec.intrinsics.size(), 2u);
  EXPECT_TRUE(spec.intrinsics[0].allow);
}

TEST_F(RulesTest, SynthesizedPolicyAllowsExactlyTheTrace) {
  std::vector<ViolationRecord> trace{
      {0x50000, 64, kGuardAccessWrite, 1, false},
      {0x51000, 8, kGuardAccessRead, 2, false},
  };
  const PolicySpec spec = SynthesizePolicy(trace, 4096);
  ASSERT_TRUE(ApplyPolicySpec(spec, module_->engine()).ok());
  auto& engine = module_->engine();
  EXPECT_TRUE(engine.Check(0x50000, 64, kGuardAccessWrite));
  EXPECT_TRUE(engine.Check(0x51000, 8, kGuardAccessRead));
  EXPECT_FALSE(engine.Check(0x51000, 8, kGuardAccessWrite));  // not traced
  EXPECT_FALSE(engine.Check(0x52000, 8, kGuardAccessRead));   // outside
}

TEST_F(RulesTest, PaperTwoRegionRuleAsFile) {
  // Footnote 5 of the paper, as the operator would write it.
  auto spec = Parse(
      "mode deny\n"
      "allow kernel-half rw\n"
      "deny user-half\n");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ApplyPolicySpec(*spec, module_->engine()).ok());
  EXPECT_TRUE(module_->engine().Check(kernel::kDirectMapBase, 8,
                                      kGuardAccessWrite));
  EXPECT_FALSE(module_->engine().Check(0x400000, 1, kGuardAccessRead));
}

}  // namespace
}  // namespace kop::policy
